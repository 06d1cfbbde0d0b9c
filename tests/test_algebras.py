"""The interpreter's two algebras agree: ``WorldSets`` and ``DdStore``.

Both backends run ``kripke._eval`` over their own algebra, so comparing the
backends' labels compares the algebras.  This states that comparison
directly: over random laws and formulas at two to six agents the world set
equals the diagram's satisfying assignments on all ``2^n`` worlds, and each
operation agrees on random sets, and at up to three agents on every world
set, pair of world sets and set of quantified variables.
"""

from itertools import combinations

import pytest

from epistle import kripke
from epistle.bdd import DdStore
from epistle.errors import SizeLimit
from epistle.kripke import ObservabilityMatrix, WorldSets
from epistle.rng import SplitMix64

from support import forall, random_boolean_formula, random_formula, sat_worlds, worlds


def diagram(store: DdStore, n: int, members: int):
    """The diagram whose satisfying assignments are the worlds of ``members``."""
    out = store.false
    for w in worlds(members):
        cube = store.true
        for j in range(n):
            cube = store.and_(cube, store.var(j) if w >> j & 1 else store.not_(store.var(j)))
        out = store.or_(out, cube)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_interpreter_agrees_on_every_world(n):
    rng = SplitMix64(0xA16E + n)
    sets, store = WorldSets(n), DdStore()
    for _ in range(30):
        obs = ObservabilityMatrix.from_rows([[rng.chance(0.5) for _ in range(n)] for _ in range(n)])
        live, law = sets.true, store.true
        for _ in range(rng.below(3)):
            a = random_formula(rng, n, depth=2) if rng.chance(0.5) else random_boolean_formula(rng, n, 2)
            live, law = kripke._step(sets, obs, live, a), kripke._step(store, obs, law, a)
            assert worlds(live) == sat_worlds(store, law, n)
        for _ in range(5):
            f = random_formula(rng, n, depth=2)
            held = kripke._eval(sets, obs, live, f)
            assert 0 <= held <= sets.true
            assert worlds(held) == sat_worlds(store, kripke._eval(store, obs, law, f), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_each_operation_agrees(n):
    rng = SplitMix64(0x0A1 + n)
    sets, store = WorldSets(n), DdStore()
    assert worlds(sets.true) == sat_worlds(store, store.true, n)
    assert worlds(sets.false) == sat_worlds(store, store.false, n) == frozenset()
    for j in range(n):
        assert worlds(sets.var(j)) == sat_worlds(store, store.var(j), n)
    for _ in range(40):
        x, y = (rng.next_u64() & sets.true for _ in range(2))
        dx, dy = diagram(store, n, x), diagram(store, n, y)
        pairs = [
            (sets.not_(x), store.not_(dx)),
            (sets.and_(x, y), store.and_(dx, dy)),
            (sets.or_(x, y), store.or_(dx, dy)),
            (sets.implies(x, y), store.implies(dx, dy)),
        ]
        vs = tuple(j for j in range(n) if rng.chance(0.5))
        pairs.append((sets._forall(vs, x), forall(store, vs, dx)))
        pairs.append((sets._forall(vs, x), store._forall(vs, dx)))
        for got, expected in pairs:
            assert 0 <= got <= sets.true
            assert worlds(got) == sat_worlds(store, expected, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_operation_agrees_on_every_world_set(n):
    sets, store = WorldSets(n), DdStore()
    every = range(sets.true + 1)  # 2^(2^n) world sets, 256 at n=3
    tables: dict = {}

    def table(node) -> int:
        """The world set of a diagram, read from its truth table."""
        if node not in tables:
            tables[node] = sum(1 << w for w in range(1 << n) if store.eval(node, w))
        return tables[node]

    dd = [diagram(store, n, x) for x in every]
    assert [table(d) for d in dd] == list(every)
    wrong = [("not_", x) for x in every if table(store.not_(dd[x])) != sets.not_(x)]
    for name in ("and_", "or_", "implies"):
        ours, theirs = getattr(sets, name), getattr(store, name)
        wrong += [
            (name, x, y) for x in every for y in every
            if table(theirs(dd[x], dd[y])) != ours(x, y)
        ]
    subsets = [vs for k in range(n + 1) for vs in combinations(range(n), k)]
    wrong += [
        ("_forall", vs, x) for vs in subsets for x in every
        if table(store._forall(vs, dd[x])) != sets._forall(vs, x)
    ]
    assert wrong == []


def test_sizes_past_the_explicit_bound_raise():
    for n in (0, kripke.MAX_EXPLICIT_AGENTS + 1):
        with pytest.raises(SizeLimit):
            WorldSets(n)
