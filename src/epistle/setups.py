"""The four problem setups tying predicates to observability patterns, and
``fixed_observability``, which builds the fixed setups' matrices."""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache

from .kripke import ObservabilityMatrix

__all__ = ["SetupKind", "ALL_SETUPS", "setup_ordinal", "fixed_observability"]


class SetupKind(str, Enum):
    """What the per-agent predicate is and who can see it.

    * ``FOREHEAD_MUD`` -- mud on the forehead; visible to everyone except its
      bearer.
    * ``FOREHEAD_MUD_MIRROR`` -- same predicate, but a mirror makes every
      forehead visible to everyone, the bearer included.
    * ``THIRST`` -- thirst; each agent knows only their own.
    * ``EXPLICIT`` -- a drawn card; visibility is random and spelled out
      reveal by reveal.
    """

    FOREHEAD_MUD = "forehead-mud"
    FOREHEAD_MUD_MIRROR = "forehead-mud-mirror"
    THIRST = "thirst"
    EXPLICIT = "explicit"


ALL_SETUPS = tuple(SetupKind)


def setup_ordinal(kind: SetupKind) -> int:
    """Canonical position of the setup, independent of any configuration."""
    return ALL_SETUPS.index(kind)


@lru_cache(maxsize=None)
def fixed_observability(kind: SetupKind, n: int) -> ObservabilityMatrix:
    """Matrix of a non-random setup from its rule of who sees whose predicate;
    agent-symmetric, so kept at any agent count and tabled however large."""
    if kind is SetupKind.FOREHEAD_MUD:
        sees = operator.ne  # everyone but the bearer
    elif kind is SetupKind.FOREHEAD_MUD_MIRROR:
        sees = lambda i, j: True  # everyone
    elif kind is SetupKind.THIRST:
        sees = operator.eq  # only the bearer
    else:
        raise ValueError(f"{kind.value} has no fixed observability matrix")
    return ObservabilityMatrix.from_rows([[sees(i, j) for j in range(n)] for i in range(n)])
