"""Knowledge structures: one formula interpreter over two Boolean algebras.

A problem has one proposition per agent, a state and an observability
matrix.  Agent ``a`` knows ``f`` where ``∀ hidden_a (law → f)`` holds: ``f``
holds at every world of the state law that agrees with this one on what
``a`` observes, which makes each agent's relation an equivalence relation
(the knowledge-structure semantics of SMCDEL).  ``_eval`` gives ``⟦f⟧``, the
worlds where ``f`` holds, over all ``2^n`` valuations, in any algebra with
``true``, ``false``, ``var``, ``not_``, ``and_``, ``or_``, ``implies`` and
``_forall(vs, x)``: a ``DdStore``, whose state is a diagram (the symbolic
backend, ``epistle.symbolic``), or a ``WorldSets``, whose state is a
``2^n``-bit int with bit ``w`` for world ``w`` (the explicit backend, whose
entry points are here).  A proposition or agent index outside ``0..n-1`` is
a ``ValueError``.

A public announcement is the state step ``law ∧ ⟦f⟧`` (``_step``).  A label
(``_label``) folds the announcements through it, raises
``ContradictoryPremise`` when one leaves the false state, and holds when the
hypothesis's step gives the state back (both algebras are canonical), so
announcements and hypotheses share entries.

The process keeps one matrix per rows of at most three agents or
agent-symmetric rows (one value on the diagonal and one off it, as in every
fixed setup), decided from the rows alone; each carries ``key``, an int no
other rows get in this process, and every other matrix has ``key = None``.
For a matrix with a key, an algebra's translation table maps ``(key, law,
subformula)`` to ``⟦subformula⟧`` for every subformula but atoms (one
``var`` anyway), negations included, and its step table maps the same key
to the step.  Each ``DdStore`` has its own pair; the ``WorldSets`` of up to
three agents share one pair, which the process's threads share, and larger
ones have none.  ``_eval`` dispatches on the node's exact class, atoms
before the table (an instance of a subclass is not a formula), and recurses
through its module-level name, so a wrapper installed under that name sees
every call.  An evaluation that raises enters nothing.  A table past
``TABLE_LIMIT`` entries is emptied.  A label looks each step up in the
table itself and calls ``_step`` only on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "WorldSets",
    "build_initial_model",
    "evaluate",
    "announce",
    "is_contradictory",
    "label",
]

# A world set is a 2^n-bit integer (128 KiB at n=20); larger problems
# belong to the symbolic backend.
MAX_EXPLICIT_AGENTS = 20

# Agents up to which a ``WorldSets`` has tables, whose entries take 2^n bits.
# Tabling four to six agents halved ``_eval`` calls but left generation there
# no faster end to end, and put 15-25% on the p90 and p99 of a cold
# ``crosscheck`` label (2 vCPUs, Python 3.11).
_MAX_TABLED_AGENTS = 3

# Entries a table may hold before it is emptied.  Every key names a matrix
# kept for the process.  Over 5,000 label-mix problems (n=2-3) and their draw
# the explicit translation table ends at 12,430-12,860 entries, the symbolic
# one at 10,662-11,042, the explicit step table at 6,997-7,168 and the
# symbolic one at 5,767-5,893, at seeds 1, 2, 3, 7, 13 and 42: none is
# emptied there, as the translation tables were mid-pass at 1 << 13.  An entry takes about 110 B (dict slot, key tuple,
# world-set ints), so a full explicit table holds about 2 MB.
TABLE_LIMIT = 1 << 14

# The translation and step tables of the ``WorldSets`` of up to three agents.
# Threads share them: an entry depends only on its key, whose matrix the
# process keeps; dict get, set and clear are atomic, so a race only costs
# repeated work.
_table: dict[tuple, int] = {}
_steps: dict[tuple, int] = {}


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
# explicit tables key on ``obs.key`` up to that size and three give only
# 16 + 512 rows (four, 65,536), and agent-symmetric rows, four per size.
_SHARED: dict[tuple[tuple[bool, ...], ...], ObservabilityMatrix] = {}


def _agent_symmetric(rows: tuple[tuple[bool, ...], ...]) -> bool:
    """One value on the diagonal and one off it; stops at the first other row."""
    on, off, n = rows[0][0], rows[0][-1], len(rows)
    return all(row == (off,) * i + (on,) + (off,) * (n - 1 - i) for i, row in enumerate(rows))


class WorldSets:
    """The Boolean algebra of the sets of valuations of ``n`` propositions,
    each a ``2^n``-bit int with bit ``w`` for world ``w``, under the
    operation names of ``DdStore``.  Raises ``SizeLimit`` outside
    ``1..MAX_EXPLICIT_AGENTS``."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_EXPLICIT_AGENTS:
            raise SizeLimit(f"explicit backend handles 1..{MAX_EXPLICIT_AGENTS} agents, got {n}")
        self.true, self.false = (1 << (1 << n)) - 1, 0
        # entry j has bit w set iff proposition j holds at world w
        self._atoms = []
        for j in range(n):
            width = 1 << j
            mask, span = ((1 << width) - 1) << width, width << 1
            while span < 1 << n:  # repeat the pattern by doubling
                mask |= mask << span
                span <<= 1
            self._atoms.append(mask)
        tabled = n <= _MAX_TABLED_AGENTS
        self._translate_cache = _table if tabled else None
        self._step_cache = _steps if tabled else None

    def var(self, index: int) -> int:
        return self._atoms[index]

    def not_(self, x: int) -> int:
        return self.true ^ x

    def and_(self, x: int, y: int) -> int:
        return x & y

    def or_(self, x: int, y: int) -> int:
        return x | y

    def implies(self, x: int, y: int) -> int:
        return (self.true ^ x) | y

    def _forall(self, vs: tuple[int, ...], x: int) -> int:
        """The worlds whose every variant on ``vs`` is in ``x``: the
        complement of ``x``'s complement closed under flipping each of ``vs``."""
        bad = self.true ^ x
        if bad:
            atoms = self._atoms
            for j in vs:
                high, shift = bad & atoms[j], 1 << j
                bad |= (high >> shift) | ((bad ^ high) << shift)
        return self.true ^ bad


class _BySize(dict):
    """One ``WorldSets`` per size, built on first use."""

    def __missing__(self, n: int) -> WorldSets:
        self[n] = worlds = WorldSets(n)
        return worlds


_worlds = _BySize()


def _eval(alg, obs: ObservabilityMatrix, law, f: Formula):
    """``⟦f⟧`` in ``alg``: the worlds where ``f`` holds under the state
    ``law``; found in, or entered into, ``alg``'s translation table.

    ``symbolic.translate`` is this function, bound at import: a wrapper
    installed on ``kripke._eval`` later sees every call beneath a
    ``translate`` call, but not that call itself."""
    kind = type(f)
    if kind is Atom:
        if not 0 <= f.prop < obs.n:
            raise ValueError(f"proposition p{f.prop} outside vocabulary of {obs.n}")
        return alg.var(f.prop)
    table = alg._translate_cache if obs.key is not None else None
    if table is not None:
        key = (obs.key, law, f)
        out = table.get(key)
        if out is not None:
            return out
    if kind is Not:
        out = alg.not_(_eval(alg, obs, law, f.child))
    elif kind is And:
        out = alg.true
        for c in f.children:
            out = alg.and_(out, _eval(alg, obs, law, c))
    elif kind is Or:
        out = alg.false
        for c in f.children:
            out = alg.or_(out, _eval(alg, obs, law, c))
    elif kind is Implies:
        out = alg.implies(_eval(alg, obs, law, f.left), _eval(alg, obs, law, f.right))
    elif kind is Knows or kind is KnowsWhether:
        body = _eval(alg, obs, law, f.child)
        if not 0 <= f.agent < obs.n:
            raise ValueError(f"agent {f.agent} outside vocabulary of {obs.n}")
        hidden = obs.hidden[f.agent]
        out = alg._forall(hidden, alg.implies(law, body))
        if kind is KnowsWhether:
            out = alg.or_(out, alg._forall(hidden, alg.implies(law, alg.not_(body))))
    elif kind is Announced:
        made = _eval(alg, obs, law, f.announcement)
        out = alg.implies(made, _eval(alg, obs, alg.and_(law, made), f.continuation))
    else:
        raise TypeError(f"not a formula: {f!r}")
    if table is not None:
        table[key] = out
        if len(table) > TABLE_LIMIT:
            table.clear()
    return out


def _step(alg, obs: ObservabilityMatrix, law, f: Formula):
    """The state step ``law ∧ ⟦f⟧``, found in, or entered into, ``alg``'s
    step table."""
    table = alg._step_cache if obs.key is not None else None
    if table is not None:
        key = (obs.key, law, f)
        out = table.get(key)
        if out is not None:
            return out
    out = alg.and_(law, _eval(alg, obs, law, f))
    if table is not None:
        table[key] = out
        if len(table) > TABLE_LIMIT:
            table.clear()
    return out


def _contradictory(alg, obs: ObservabilityMatrix, law, anns: list[Formula]) -> bool:
    """True iff announcing ``anns`` in order leaves the false state at some step."""
    for a in anns:
        law = _step(alg, obs, law, a)
        if law == alg.false:
            return True
    return False


def _label(alg, obs: ObservabilityMatrix, law, anns: list[Formula], hyp: Formula) -> bool:
    """True iff ``hyp`` holds at every world of the state ``anns`` leave.

    Raises ``ContradictoryPremise`` when some announcement leaves none.
    """
    key, false = obs.key, alg.false
    steps = alg._step_cache if key is not None else None
    for i, a in enumerate(anns):
        step = steps.get((key, law, a)) if steps is not None else None
        law = _step(alg, obs, law, a) if step is None else step
        if law == false:
            raise ContradictoryPremise(f"announcement {i + 1} eliminates every world")
    step = steps.get((key, law, hyp)) if steps is not None else None
    # law ∧ ⟦hyp⟧ is law exactly when law entails hyp
    return (_step(alg, obs, law, hyp) if step is None else step) == law


# -- the explicit backend: the interpreter over the world sets of obs.n ------


def build_initial_model(obs: ObservabilityMatrix) -> int:
    """World set of all ``2^n`` valuations."""
    return _worlds[obs.n].true


def evaluate(obs: ObservabilityMatrix, live: int, w: int, f: Formula) -> bool:
    """Truth of ``f`` at world ``w``; ``w`` must be in ``live``."""
    if w < 0 or not (live >> w) & 1:
        raise DeadWorld(f"world {w:0{obs.n}b} is not in the model")
    return bool((_eval(_worlds[obs.n], obs, live, f) >> w) & 1)


def announce(obs: ObservabilityMatrix, live: int, psi: Formula) -> int:
    """The worlds of ``live`` where ``psi`` holds; may be empty."""
    return _step(_worlds[obs.n], obs, live, psi)


def is_contradictory(obs: ObservabilityMatrix, live: int, anns: list[Formula]) -> bool:
    """True iff announcing ``anns`` in order empties ``live`` at some step."""
    return _contradictory(_worlds[obs.n], obs, live, anns)


def label(obs: ObservabilityMatrix, live: int, anns: list[Formula], hyp: Formula) -> bool:
    """True iff ``hyp`` holds at every world of ``live`` left by ``anns``.

    Raises ``ContradictoryPremise`` when some announcement empties the set.
    """
    return _label(_worlds[obs.n], obs, live, anns, hyp)
