"""Explicit-state S5 model checking over bitsets.

Worlds are integers: bit ``j`` of a world gives the truth of proposition
``j``.  A set of worlds is one ``int`` with bit ``w`` for world ``w``, so
each subformula is evaluated once for all worlds with a few big-integer
operations.  A state is such a set of live worlds, passed beside the
observability matrix.  Agent ``i`` cannot distinguish two live worlds that
agree on every proposition it observes, which makes each agent's relation an
equivalence relation by construction; ``K_i f`` fails wherever flipping the
propositions ``i`` does not observe reaches a live world without ``f``.  A
public announcement keeps exactly the worlds where it holds.  A proposition
or agent index outside ``0..n-1`` is a ``ValueError``.

The process keeps one matrix per rows of at most three agents or
agent-symmetric rows (one value on the diagonal and one off it, as in every
fixed setup), decided from the rows alone; each carries ``key``, an int no
other rows get in this process, and every other matrix has ``key = None``.  One
evaluation table, which the process's threads share, maps ``(key, live,
subformula)`` to the world set the subformula holds at, for every subformula
but atoms (one mask anyway), negations included, at up to three agents.
``_eval`` dispatches on the node's exact class, atoms before the table (an
instance of a subclass is not a formula), and recurses through its
module-level name, so a wrapper installed under that name sees every call.
An evaluation that raises enters nothing.  The table is emptied past
``TABLE_LIMIT`` entries, as each symbolic translation table is.  A label
looks each announcement and its hypothesis up in the table itself, under
``_eval``'s key, and calls ``_eval`` only on a miss (atoms always miss).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "build_initial_model",
    "evaluate",
    "announce",
    "is_contradictory",
    "label",
]

# A world set is a 2^n-bit integer (128 KiB at n=20); larger problems
# belong to the symbolic backend.
MAX_EXPLICIT_AGENTS = 20

# Agents up to which the evaluation table enters a world set, which takes
# 2^n bits.  Tabling four to six agents halved ``_eval`` calls but left
# generation there no faster end to end, and put 15-25% on the p90 and p99 of
# a cold ``crosscheck`` label (2 vCPUs, Python 3.11).
_MAX_TABLED_AGENTS = 3

# Entries a table may hold before it is emptied.  Every key names a matrix
# kept for the process.  Over 5,000 label-mix problems (n=2-3) and their draw
# the evaluation table ends at 12,430-12,860 entries, the translation table
# at 10,662-11,042 and the symbolic step table at 5,767-5,893, at seeds 1, 2,
# 3, 7, 13 and 42: none is emptied there, as the first two were mid-pass at
# 1 << 13.  An entry takes about 110 B (dict slot, key tuple, world-set ints),
# so a full evaluation table holds about 2 MB.
TABLE_LIMIT = 1 << 14

# Threads share it: an entry depends only on its key, whose matrix the process
# keeps; dict get, set and clear are atomic, so a race only costs repeated work.
_table: dict[tuple, int] = {}


@dataclass(frozen=True)
class ObservabilityMatrix:
    """Square boolean matrix: entry (i, j) means agent i initially knows
    whether proposition j is true; ``rows`` is kept as tuples of bools.

    ``n`` is the number of rows.  ``hidden[i]`` lists the propositions agent
    ``i`` does not observe, ascending: the variables both backends quantify
    over for ``K_i``.  ``key`` is the ``id`` of the matrix the process keeps
    for these rows, or ``None`` if it keeps none; both backends' tables key
    on it.  Rows of at most three agents or agent-symmetric rows have one.
    All three are derived once and left out of comparison, hashing, ``repr``
    and pickling: a key means nothing in another process, so an unpickled
    matrix is built anew from its rows.
    """

    rows: tuple[tuple[bool, ...], ...]
    n: int = field(init=False, repr=False, compare=False)
    hidden: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    key: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple([tuple(map(bool, row)) for row in self.rows])
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("observability matrix must be square")
        hidden = tuple([tuple([j for j, seen in enumerate(row) if not seen]) for row in rows])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "hidden", hidden)
        if n <= _MAX_TABLED_AGENTS or _agent_symmetric(rows):
            object.__setattr__(self, "key", id(_SHARED.setdefault(rows, self)))

    def __reduce__(self):
        return type(self), (self.rows,)

    @classmethod
    def from_rows(cls, rows) -> "ObservabilityMatrix":
        """The matrix of ``rows``: the one the process keeps, if it keeps one."""
        rows = tuple(map(tuple, rows))
        obs = _SHARED.get(rows)
        if obs is None:
            obs = cls(rows)
            obs = _SHARED.get(obs.rows, obs)
        return obs


# The first matrix built per rows the process keeps (one ``setdefault``, so
# threads agree): rows of at most ``_MAX_TABLED_AGENTS`` agents, as the
# evaluation table keys on ``obs.key`` up to that size and three give only
# 16 + 512 rows (four, 65,536), and agent-symmetric rows, four per size.
_SHARED: dict[tuple[tuple[bool, ...], ...], ObservabilityMatrix] = {}


def _agent_symmetric(rows: tuple[tuple[bool, ...], ...]) -> bool:
    """One value on the diagonal and one off it; stops at the first other row."""
    on, off, n = rows[0][0], rows[0][-1], len(rows)
    return all(row == (off,) * i + (on,) + (off,) * (n - 1 - i) for i, row in enumerate(rows))


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


def build_initial_model(obs: ObservabilityMatrix) -> int:
    """World set of all ``2^n`` valuations."""
    if not 1 <= obs.n <= MAX_EXPLICIT_AGENTS:
        raise SizeLimit(
            f"explicit backend handles 1..{MAX_EXPLICIT_AGENTS} agents, got {obs.n}"
        )
    return (1 << (1 << obs.n)) - 1


def evaluate(obs: ObservabilityMatrix, live: int, w: int, f: Formula) -> bool:
    """Truth of ``f`` at world ``w``; ``w`` must be in ``live``."""
    if w < 0 or not (live >> w) & 1:
        raise DeadWorld(f"world {w:0{obs.n}b} is not in the model")
    return bool((_eval(obs, live, f) >> w) & 1)


def _blur(obs: ObservabilityMatrix, agent: int, bad: int) -> int:
    """Worlds ``agent`` cannot tell from some world in ``bad``: ``bad``
    closed under flipping each proposition the agent does not observe."""
    if not 0 <= agent < obs.n:
        raise ValueError(f"agent {agent} outside vocabulary of {obs.n}")
    if bad:
        atoms = _atom_masks(obs.n)
        for j in obs.hidden[agent]:
            high, shift = bad & atoms[j], 1 << j
            bad |= (high >> shift) | ((bad ^ high) << shift)
    return bad


def _eval(obs: ObservabilityMatrix, live: int, f: Formula) -> int:
    """Worlds in ``live`` where ``f`` holds, with ``live`` as the model;
    found in, or entered into, the evaluation table."""
    kind = type(f)
    if kind is Atom:
        if not 0 <= f.prop < obs.n:
            raise ValueError(f"proposition p{f.prop} outside vocabulary of {obs.n}")
        return live & _atom_masks(obs.n)[f.prop]
    tabled = obs.n <= _MAX_TABLED_AGENTS
    if tabled:
        key = (obs.key, live, f)
        out = _table.get(key)
        if out is not None:
            return out
    if kind is Not:
        out = live ^ _eval(obs, live, f.child)
    elif kind is And:
        out = live
        for c in f.children:
            out &= _eval(obs, live, c)
    elif kind is Or:
        out = 0
        for c in f.children:
            out |= _eval(obs, live, c)
    elif kind is Implies:
        out = (live ^ _eval(obs, live, f.left)) | _eval(obs, live, f.right)
    elif kind is Knows:
        out = live & ~_blur(obs, f.agent, live ^ _eval(obs, live, f.child))
    elif kind is KnowsWhether:
        holds = _eval(obs, live, f.child)
        out = live & ~(_blur(obs, f.agent, live ^ holds) & _blur(obs, f.agent, holds))
    elif kind is Announced:
        survivors = _eval(obs, live, f.announcement)
        out = (live ^ survivors) | _eval(obs, survivors, f.continuation)
    else:
        raise TypeError(f"not a formula: {f!r}")
    if tabled:
        _table[key] = out
        if len(_table) > TABLE_LIMIT:
            _table.clear()
    return out


def announce(obs: ObservabilityMatrix, live: int, psi: Formula) -> int:
    """The worlds of ``live`` where ``psi`` holds; may be empty."""
    return _eval(obs, live, psi)


def is_contradictory(obs: ObservabilityMatrix, live: int, anns: list[Formula]) -> bool:
    """True iff announcing ``anns`` in order empties ``live`` at some step."""
    for a in anns:
        live = _eval(obs, live, a)
        if not live:
            return True
    return False


def label(obs: ObservabilityMatrix, live: int, anns: list[Formula], hyp: Formula) -> bool:
    """True iff ``hyp`` holds at every world of ``live`` left by ``anns``.

    Raises ``ContradictoryPremise`` when some announcement empties the set.
    """
    tabled = obs.n <= _MAX_TABLED_AGENTS
    for i, a in enumerate(anns):
        step = _table.get((obs.key, live, a)) if tabled else None
        live = _eval(obs, live, a) if step is None else step
        if not live:
            raise ContradictoryPremise(f"announcement {i + 1} eliminates every world")
    step = _table.get((obs.key, live, hyp)) if tabled else None
    return (_eval(obs, live, hyp) if step is None else step) == live
