"""Explicit-state S5 model checking over bitsets.

Worlds are integers: bit ``j`` of a world gives the truth of proposition
``j``.  A set of worlds is one ``int`` with bit ``w`` for world ``w``, so
each subformula is evaluated once for all worlds with a few big-integer
operations.  Agent ``i`` cannot distinguish two live worlds that agree on
every proposition it observes, which makes each agent's relation an
equivalence relation by construction; ``K_i f`` fails wherever flipping the
propositions ``i`` does not observe reaches a live world without ``f``.  A
public announcement keeps exactly the worlds where it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .errors import ContradictoryPremise, DeadWorld, SizeLimit
from .formula import (
    And,
    Announced,
    Atom,
    Formula,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
)

__all__ = [
    "MAX_EXPLICIT_AGENTS",
    "ObservabilityMatrix",
    "KripkeModel",
    "build_initial_model",
    "evaluate",
    "announce",
    "is_contradictory",
    "label",
]

# A world set is a 2^n-bit integer (128 KiB at n=20); larger problems
# belong to the symbolic backend.
MAX_EXPLICIT_AGENTS = 20


@dataclass(frozen=True)
class ObservabilityMatrix:
    """Square boolean matrix: entry (i, j) means agent i initially knows
    whether proposition j is true.

    ``hidden[i]`` lists the propositions agent ``i`` does not observe,
    ascending: the variables both backends quantify over for ``K_i``.  It is
    derived from the rows once and left out of comparison, hashing and
    ``repr``.
    """

    rows: tuple[tuple[bool, ...], ...]
    hidden: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("observability matrix must be square")
        hidden = tuple([tuple([j for j, seen in enumerate(row) if not seen]) for row in self.rows])
        object.__setattr__(self, "hidden", hidden)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows) -> "ObservabilityMatrix":
        return cls(tuple(tuple(bool(b) for b in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "ObservabilityMatrix":
        return cls.from_rows([[i == j for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, n: int) -> "ObservabilityMatrix":
        return cls.from_rows([[True] * n for _ in range(n)])

    @classmethod
    def ones_minus_identity(cls, n: int) -> "ObservabilityMatrix":
        return cls.from_rows([[i != j for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class KripkeModel:
    """Immutable set of live worlds plus the observability structure; bit
    ``w`` of ``mask`` is set iff world ``w`` is live."""

    n_agents: int
    mask: int
    obs: ObservabilityMatrix

    @property
    def live(self) -> frozenset[int]:
        """The live worlds, as a read-only view of ``mask``."""
        bits = bin(self.mask)[:1:-1]  # bit 0 first
        return frozenset(w for w, bit in enumerate(bits) if bit == "1")


@lru_cache(maxsize=None)
def _atom_masks(n: int) -> tuple[int, ...]:
    """Entry ``j`` has bit ``w`` set iff proposition ``j`` holds at world ``w``."""
    masks = []
    for j in range(n):
        width = 1 << j
        mask, span = ((1 << width) - 1) << width, width << 1
        while span < 1 << n:  # repeat the pattern by doubling
            mask |= mask << span
            span <<= 1
        masks.append(mask)
    return tuple(masks)


def build_initial_model(n: int, obs: ObservabilityMatrix) -> KripkeModel:
    """Full model over all ``2^n`` valuations."""
    if not 1 <= n <= MAX_EXPLICIT_AGENTS:
        raise SizeLimit(
            f"explicit backend handles 1..{MAX_EXPLICIT_AGENTS} agents, got {n}"
        )
    if obs.n != n:
        raise ValueError(f"observability matrix is {obs.n}x{obs.n}, expected {n}x{n}")
    return KripkeModel(n, (1 << (1 << n)) - 1, obs)


def evaluate(m: KripkeModel, w: int, f: Formula) -> bool:
    """Truth of ``f`` at world ``w``; ``w`` must still be live."""
    if w < 0 or not (m.mask >> w) & 1:
        raise DeadWorld(f"world {w:0{m.n_agents}b} is not in the model")
    return bool((_eval(m, m.mask, f) >> w) & 1)


def _blur(m: KripkeModel, agent: int, bad: int) -> int:
    """Worlds ``agent`` cannot tell from some world in ``bad``: ``bad``
    closed under flipping each proposition the agent does not observe."""
    if bad:
        atoms = _atom_masks(m.n_agents)
        for j in m.obs.hidden[agent]:
            high, shift = bad & atoms[j], 1 << j
            bad |= (high >> shift) | ((bad ^ high) << shift)
    return bad


def _eval(m: KripkeModel, live: int, f: Formula) -> int:
    """Worlds in ``live`` where ``f`` holds, with ``live`` as the model."""
    if isinstance(f, Atom):
        return live & _atom_masks(m.n_agents)[f.prop]
    if isinstance(f, Not):
        return live ^ _eval(m, live, f.child)
    if isinstance(f, And):
        out = live
        for c in f.children:
            out &= _eval(m, live, c)
            if not out:
                break
        return out
    if isinstance(f, Or):
        out = 0
        for c in f.children:
            out |= _eval(m, live, c)
        return out
    if isinstance(f, Implies):
        return (live ^ _eval(m, live, f.left)) | _eval(m, live, f.right)
    if isinstance(f, Knows):
        return live & ~_blur(m, f.agent, live ^ _eval(m, live, f.child))
    if isinstance(f, KnowsWhether):
        holds = _eval(m, live, f.child)
        return live & ~(_blur(m, f.agent, live ^ holds) & _blur(m, f.agent, holds))
    if isinstance(f, Announced):
        survivors = _eval(m, live, f.announcement)
        return (live ^ survivors) | _eval(m, survivors, f.continuation)
    raise TypeError(f"not a formula: {f!r}")


def announce(m: KripkeModel, psi: Formula) -> KripkeModel:
    """Restrict the model to the worlds where ``psi`` holds; may be empty."""
    return replace(m, mask=_eval(m, m.mask, psi))


def is_contradictory(m0: KripkeModel, anns: list[Formula]) -> bool:
    """True iff announcing ``anns`` in order empties the model at some step."""
    live = m0.mask
    for a in anns:
        live = _eval(m0, live, a)
        if not live:
            return True
    return False


def label(m0: KripkeModel, anns: list[Formula], hyp: Formula) -> bool:
    """True iff ``hyp`` holds at every world surviving the announcements.

    Raises ``ContradictoryPremise`` when some announcement empties the model.
    """
    live = m0.mask
    for i, a in enumerate(anns):
        live = _eval(m0, live, a)
        if not live:
            raise ContradictoryPremise(f"announcement {i + 1} eliminates every world")
    return _eval(m0, live, hyp) == live
