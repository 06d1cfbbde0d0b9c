from functools import reduce

import pytest

from epistle.bdd import DEFAULT_NODE_CAPACITY, NODE_LIMIT_ENV, DdStore, default_node_capacity
from epistle.errors import StoreCapacity
from epistle.formula import And, Atom, Implies, Not, Or
from epistle.kripke import ObservabilityMatrix
from epistle.rng import SplitMix64
from epistle.symbolic import announce_symbolic, translate

from support import (
    check_reduced,
    forall,
    random_boolean_formula,
    random_formula,
    sat_worlds,
    truth_table_worlds,
)


def build(store, f):
    """Translate a boolean formula tree into a diagram."""
    if isinstance(f, Atom):
        return store.var(f.prop)
    if isinstance(f, Not):
        return store.not_(build(store, f.child))
    if isinstance(f, And):
        return reduce(store.and_, (build(store, c) for c in f.children), store.true)
    if isinstance(f, Or):
        return reduce(store.or_, (build(store, c) for c in f.children), store.false)
    if isinstance(f, Implies):
        return store.implies(build(store, f.left), build(store, f.right))
    raise TypeError(f)


class TestBasics:
    def test_contradiction_is_false_terminal(self):
        store = DdStore()
        x = store.var(0)
        assert store.and_(x, store.not_(x)) is store.false

    def test_excluded_middle_is_true_terminal(self):
        store = DdStore()
        x = store.var(0)
        assert store.or_(x, store.not_(x)) is store.true

    def test_double_negation_restores_node(self):
        store = DdStore()
        x = store.var(2)
        assert store.not_(store.not_(x)) is x

    def test_terminal_constants(self):
        store = DdStore()
        assert store.true is not store.false
        assert store.true.var is None and store.false.var is None
        assert store.eval(store.true, 0) and not store.eval(store.false, 0)

    def test_var_is_one_node_per_index(self):
        store = DdStore()
        with pytest.raises(ValueError, match="nonnegative"):
            store.var(-1)
        x = store.var(0)
        assert store.var(0) is x and store.var(3) is store.var(3)
        assert len(store) == 4  # two terminals, p0 and p3
        with pytest.raises(ValueError, match="nonnegative"):
            store.var(-1)

    def test_implies(self):
        store = DdStore()
        x, y = store.var(0), store.var(1)
        f = store.implies(x, y)
        assert store.eval(f, 0b00) and store.eval(f, 0b10) and store.eval(f, 0b11)
        assert not store.eval(f, 0b01)


class TestCanonicity:
    def test_structural_equality_is_identity(self):
        store = DdStore()
        a = store.and_(store.var(0), store.var(1))
        b = store.and_(store.var(0), store.var(1))
        assert a is b

    def test_logically_equivalent_formulas_share_a_node(self):
        store = DdStore()
        x, y = store.var(0), store.var(1)
        de_morgan_left = store.not_(store.and_(x, y))
        de_morgan_right = store.or_(store.not_(x), store.not_(y))
        assert de_morgan_left is de_morgan_right

    def test_equivalence_of_random_formulas_matches_tables(self):
        rng = SplitMix64(0xDD)
        store = DdStore()
        for _ in range(300):
            f = random_boolean_formula(rng, 5, 3)
            g = random_boolean_formula(rng, 5, 3)
            same = truth_table_worlds(f, 5) == truth_table_worlds(g, 5)
            assert (build(store, f) is build(store, g)) == same

    def test_store_stays_reduced(self):
        rng = SplitMix64(0xEE)
        store = DdStore()
        for _ in range(200):
            build(store, random_boolean_formula(rng, 6, 4))
        check_reduced(store)

    def test_store_stays_reduced_after_symbolic_labels(self):
        # the per-label pattern: announcements, then one hypothesis
        rng = SplitMix64(0xEF)
        for n in (2, 3, 4):
            for _ in range(25):
                rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
                store = DdStore()
                obs, law = ObservabilityMatrix.from_rows(rows), store.true
                for _ in range(rng.below(3)):
                    law = announce_symbolic(
                        store, obs, law, random_formula(rng, n, announce_budget=0)
                    )
                store.implies(law, translate(store, obs, law, random_formula(rng, n)))
                check_reduced(store)

    def test_order_violation_is_refused(self):
        rng = SplitMix64(0xF1)
        populated = DdStore()
        for _ in range(200):
            build(populated, random_boolean_formula(rng, 4, 3))
        for store in (DdStore(), populated):
            x0, x1 = store.var(0), store.var(1)
            for var, low, high in (
                (1, x0, store.true),  # child above its parent
                (1, store.false, x1),  # child at its parent's level
                (2, x1, x0),  # both children above
            ):
                with pytest.raises(AssertionError, match="variable order violated"):
                    store._node(var, low, high)
            check_reduced(store)


class TestIte:
    def test_matches_and_or_composition(self):
        rng = SplitMix64(0x17E)
        store = DdStore()
        for _ in range(1000):
            c = build(store, random_boolean_formula(rng, 6, 3))
            t = build(store, random_boolean_formula(rng, 6, 3))
            e = build(store, random_boolean_formula(rng, 6, 3))
            composed = store.or_(store.and_(c, t), store.and_(store.not_(c), e))
            assert store.ite(c, t, e) is composed

    def test_matches_truth_table(self):
        rng = SplitMix64(0x17F)
        store = DdStore()
        for _ in range(200):
            fc = random_boolean_formula(rng, 4, 2)
            ft = random_boolean_formula(rng, 4, 2)
            fe = random_boolean_formula(rng, 4, 2)
            node = store.ite(build(store, fc), build(store, ft), build(store, fe))
            expected = frozenset(
                w
                for w in range(16)
                if (
                    w in truth_table_worlds(ft, 4)
                    if w in truth_table_worlds(fc, 4)
                    else w in truth_table_worlds(fe, 4)
                )
            )
            assert sat_worlds(store, node, 4) == expected

    def test_truth_table_with_branches_above_the_condition(self):
        # c uses only p2, p3; t and e are terminals or sit above, below or
        # level with c, so every cofactor case of ite runs
        rng = SplitMix64(0x180)
        n = 4
        store = DdStore()
        constants = (Or((Atom(0), Not(Atom(0)))), And((Atom(0), Not(Atom(0)))))
        for _ in range(300):
            fc = _shift(random_boolean_formula(rng, 2, 2), 2)
            operands = []
            for _ in range(2):
                kind = rng.below(4)
                if kind == 0:
                    operands.append(rng.choice(constants))
                elif kind == 1:
                    operands.append(random_boolean_formula(rng, 2, 2))  # above c
                elif kind == 2:
                    operands.append(_shift(random_boolean_formula(rng, 2, 2), 2))
                else:
                    operands.append(random_boolean_formula(rng, n, 2))
            ft, fe = operands
            c = build(store, fc)
            if c is store.true or c is store.false:
                continue
            node = store.ite(c, build(store, ft), build(store, fe))
            in_c, in_t, in_e = (truth_table_worlds(f, n) for f in (fc, ft, fe))
            expected = frozenset(
                w for w in range(1 << n) if (w in in_t if w in in_c else w in in_e)
            )
            assert sat_worlds(store, node, n) == expected
        check_reduced(store)


def _shift(f, by):
    """``f`` with every proposition index raised by ``by``."""
    if isinstance(f, Atom):
        return Atom(f.prop + by)
    if isinstance(f, Not):
        return Not(_shift(f.child, by))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_shift(c, by) for c in f.children))
    return Implies(_shift(f.left, by), _shift(f.right, by))


class TestForall:
    def test_single_variable(self):
        store = DdStore()
        assert forall(store, {0}, store.var(0)) is store.false

    def test_empty_set_is_identity(self):
        store = DdStore()
        x = store.and_(store.var(0), store.var(2))
        assert forall(store, set(), x) is x

    def test_unconstrained_variable_ignored(self):
        store = DdStore()
        x = store.var(1)
        assert forall(store, {0, 2}, x) is x

    def test_agrees_with_cofactor_conjunction(self):
        rng = SplitMix64(0xF0)
        store = DdStore()
        n = 6
        for _ in range(300):
            f = random_boolean_formula(rng, n, 3)
            node = build(store, f)
            vs = {v for v in range(n) if rng.chance(0.4)}
            got = forall(store, vs, node)
            table = truth_table_worlds(f, n)
            expected = set()
            for w in range(1 << n):
                # ``w`` satisfies the quantified formula iff every variant on
                # the quantified variables satisfies f
                ok = True
                for combo in range(1 << len(vs)):
                    v = w
                    for k, var in enumerate(sorted(vs)):
                        if (combo >> k) & 1:
                            v |= 1 << var
                        else:
                            v &= ~(1 << var)
                    if v not in table:
                        ok = False
                        break
                if ok:
                    expected.add(w)
            assert sat_worlds(store, got, n) == frozenset(expected)


class TestCounting:
    def test_count_sat(self):
        store = DdStore()
        x, y = store.var(0), store.var(1)
        assert store.count_sat(store.or_(x, y), 2) == 3
        assert store.count_sat(store.true, 3) == 8
        assert store.count_sat(store.false, 3) == 0
        assert store.count_sat(x, 4) == 8

    def test_sat_worlds_matches_truth_table(self):
        rng = SplitMix64(0xC0)
        store = DdStore()
        for _ in range(200):
            f = random_boolean_formula(rng, 5, 3)
            node = build(store, f)
            assert sat_worlds(store, node, 5) == truth_table_worlds(f, 5)
            assert store.count_sat(node, 5) == len(truth_table_worlds(f, 5))


class TestCapacity:
    def test_store_capacity_error(self, monkeypatch):
        monkeypatch.setenv(NODE_LIMIT_ENV, "8")
        store = DdStore()
        with pytest.raises(StoreCapacity):
            # a parity chain needs more than six internal nodes
            f = store.var(0)
            for v in range(1, 8):
                x = store.var(v)
                f = store.or_(
                    store.and_(f, store.not_(x)), store.and_(store.not_(f), x)
                )

    def test_full_store_refuses_a_new_variable_but_returns_a_made_one(self, monkeypatch):
        monkeypatch.setenv(NODE_LIMIT_ENV, "3")
        store = DdStore()
        x = store.var(0)
        for _ in range(2):  # a refused node is not made
            with pytest.raises(StoreCapacity):
                store.var(1)
        assert store.var(0) is x

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("EPISTLE_NODE_LIMIT", "123")
        assert default_node_capacity() == 123
        assert DdStore().capacity == 123
        monkeypatch.delenv("EPISTLE_NODE_LIMIT")
        assert default_node_capacity() == DEFAULT_NODE_CAPACITY

    def test_env_override_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("EPISTLE_NODE_LIMIT", "abc")
        with pytest.raises(ValueError, match="must be an integer, got 'abc'"):
            default_node_capacity()
