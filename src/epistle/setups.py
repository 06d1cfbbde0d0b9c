"""The four problem setups tying predicates to observability patterns."""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .kripke import ObservabilityMatrix, kept

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
    """Deterministic matrix for the non-random setups; kept for the process,
    so the symbolic backend tables it at any agent count."""
    if kind is SetupKind.FOREHEAD_MUD:
        return kept(ObservabilityMatrix.ones_minus_identity(n))
    if kind is SetupKind.FOREHEAD_MUD_MIRROR:
        return kept(ObservabilityMatrix.ones(n))
    if kind is SetupKind.THIRST:
        return kept(ObservabilityMatrix.identity(n))
    raise ValueError(f"{kind.value} has no fixed observability matrix")
