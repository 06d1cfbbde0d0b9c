import hashlib
from functools import partial

import pytest
from click.testing import CliRunner

import epistle.cli as cli
import epistle.kripke as kripke
import epistle.symbolic as symbolic
from epistle.bdd import DdStore
from epistle.dsl import parse_formula
from epistle.errors import ContradictoryPremise
from epistle.formula import (
    And,
    Atom,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
    conj,
    disj,
)
from epistle.kripke import (
    ObservabilityMatrix,
    announce,
    build_initial_model,
    is_contradictory,
    label,
)
from epistle.rng import SplitMix64
from epistle.setups import ALL_SETUPS, SetupKind, fixed_observability
from epistle.symbolic import (
    announce_symbolic,
    is_contradictory_symbolic,
    label_symbolic,
    translate,
)

from support import (
    expand_whether,
    random_boolean_formula,
    random_formula,
    sat_worlds,
    worlds,
    worlds_where,
)

forehead = partial(fixed_observability, SetupKind.FOREHEAD_MUD)


class TestTranslate:
    def test_observed_variable_is_known(self):
        store = DdStore()
        # agent 0 observes p1 only
        assert translate(store, forehead(2), store.true, Knows(0, Atom(1))) is store.var(1)

    def test_unobserved_unconstrained_variable_is_unknown(self):
        store = DdStore()
        assert translate(store, forehead(2), store.true, Knows(0, Atom(0))) is store.false

    def test_whether_expansion_shares_node(self):
        store, obs = DdStore(), forehead(3)
        f = KnowsWhether(1, Or((Atom(0), Atom(2))))
        assert translate(store, obs, store.true, f) is translate(
            store, obs, store.true, expand_whether(1, f.child)
        )
        # random formulas and matrices, under laws left by announcements
        rng = SplitMix64(0x3E)
        for n in (2, 3, 4, 5):
            for _ in range(8):
                rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
                store = DdStore()
                obs = ObservabilityMatrix.from_rows(rows)
                law = store.true
                # keep only announcements that leave some state alive
                for _ in range(rng.below(3)):
                    after = announce_symbolic(
                        store, obs, law, random_formula(rng, n, depth=2, announce_budget=0)
                    )
                    if after is not store.false:
                        law = after
                for _ in range(10):
                    agent = rng.below(n)
                    child = random_formula(rng, n, depth=3)
                    assert translate(store, obs, law, KnowsWhether(agent, child)) is translate(
                        store, obs, law, expand_whether(agent, child)
                    )

    def test_nested_whether_visits_each_node_once(self, monkeypatch):
        visited = []
        original = symbolic.translate

        def counting(store, obs, law, f):
            visited.append(f)
            return original(store, obs, law, f)

        # the recursion looks ``translate`` up on the module, so it counts too
        monkeypatch.setattr(symbolic, "translate", counting)
        for depth in range(1, 21):
            f = Atom(0)
            for _ in range(depth):
                f = KnowsWhether(1, f)
            store = DdStore()
            visited.clear()
            # agent 1 observes p0 on foreheads, so every level is known
            assert symbolic.translate(store, forehead(2), store.true, f) is store.true
            assert len(visited) == depth + 1

    def test_matches_explicit_satisfying_sets(self):
        rng = SplitMix64(0x51)
        for n in (2, 3):
            for matrix in (fixed_observability(kind, n) for kind in ALL_SETUPS[:3]):
                store = DdStore()
                law = store.true
                live = build_initial_model(matrix)
                # vary the state law with a boolean restriction half the time
                if rng.chance(0.5):
                    restriction = random_boolean_formula(rng, n, 2)
                    law = announce_symbolic(store, matrix, law, restriction)
                    live = announce(matrix, live, restriction)
                for _ in range(100):
                    f = random_formula(rng, n, depth=3)
                    node = store.and_(law, translate(store, matrix, law, f))
                    assert sat_worlds(store, node, n) == worlds_where(matrix, live, f)

    def test_a_store_made_directly_bounds_its_table(self, monkeypatch):
        # as ``puzzle`` makes one, outside the backends' retained store
        monkeypatch.setattr(kripke, "TABLE_LIMIT", 2)
        store, obs = DdStore(), forehead(2)
        p, q = store.var(0), store.var(1)
        compounds = [
            (And((Atom(0), Atom(1))), store.and_(p, q)),
            (Or((Atom(0), Atom(1))), store.or_(p, q)),
            (Implies(Atom(0), Atom(1)), store.implies(p, q)),
        ]
        for f, expected in compounds:
            assert translate(store, obs, store.true, f) is expected
            assert len(store._translate_cache) <= 2
        # the third entry passed the limit: the table was emptied
        assert not store._translate_cache

    def test_negations_of_an_atom_and_of_a_compound_are_entered(self):
        store, obs = DdStore(), forehead(3)
        either = Or((Atom(0), Knows(1, Atom(2))))
        translate(store, obs, store.true, Not(Atom(0)))
        translate(store, obs, store.true, Not(either))
        table = store._translate_cache
        assert set(table) == {
            (obs.key, store.true, f) for f in (Not(Atom(0)), either, Knows(1, Atom(2)), Not(either))
        }
        assert table[obs.key, store.true, Not(Atom(0))] is store.not_(store.var(0))
        assert table[obs.key, store.true, Not(either)] is store.not_(
            table[obs.key, store.true, either]
        )

    def test_a_warm_negated_hypothesis_takes_no_call(self, monkeypatch):
        calls = []
        original = symbolic.translate

        def counting(store, obs, law, f):
            calls.append(f)
            return original(store, obs, law, f)

        monkeypatch.setattr(symbolic, "translate", counting)
        store, obs = DdStore(), forehead(3)
        hyp = Not(KnowsWhether(0, And((Atom(1), Not(Atom(2))))))
        first = label_symbolic(store, obs, store.true, [], hyp)
        assert len(calls) == 6
        calls.clear()
        # the step table answers the hypothesis before any translation
        assert label_symbolic(store, obs, store.true, [], hyp) is first
        assert calls == []
        # the translation table answers the negation itself in one call
        for _ in range(2):
            symbolic.translate(store, obs, store.true, hyp)
        assert calls == [hyp, hyp]

    def test_a_negation_that_raises_enters_nothing(self):
        store = DdStore()
        for f in (Not(Atom(3)), Not(And((Atom(0), Not(Atom(3)))))):
            with pytest.raises(ValueError, match="p3 outside vocabulary of 3"):
                translate(store, forehead(3), store.true, f)
            assert not store._translate_cache

    def test_negations_under_a_drawn_matrix_enter_nothing(self):
        rows = ((True, False, False, True), (False,) * 4, (True,) * 4, (False, True, True, False))
        store, obs = DdStore(), ObservabilityMatrix.from_rows(rows)
        assert obs.key is None
        anns, hyp = [Not(And((Atom(0), Atom(1))))], Not(Knows(3, Not(Atom(2))))
        expected = label(obs, build_initial_model(obs), anns, hyp)
        assert label_symbolic(store, obs, store.true, anns, hyp) is expected
        assert not store._translate_cache and not store._step_cache


class TestStepTable:
    """``announce_symbolic`` enters each step ``law ∧ ⟦f⟧`` under
    ``(obs.key, law, f)``, under the translation table's rules."""

    def test_an_entry_is_the_law_and_the_translation(self):
        store, obs = DdStore(), forehead(3)
        ann, hyp = Or((Atom(0), Atom(1), Atom(2))), Not(Knows(0, Atom(0)))
        law = announce_symbolic(store, obs, store.true, ann)
        after = announce_symbolic(store, obs, law, hyp)
        assert store._step_cache == {(obs.key, store.true, ann): law, (obs.key, law, hyp): after}
        assert law is store.and_(store.true, translate(store, obs, store.true, ann))
        assert after is store.and_(law, translate(store, obs, law, hyp))

    def test_a_formula_that_raises_enters_nothing(self):
        store, obs = DdStore(), forehead(3)
        for f in (Atom(3), Not(And((Atom(0), Not(Atom(3)))))):
            for anns, hyp in (([f], Atom(0)), ([Atom(0)], f)):
                with pytest.raises(ValueError, match="p3 outside vocabulary of 3"):
                    label_symbolic(store, obs, store.true, anns, hyp)
        # only the announcement p0 of the second problem was stepped
        assert set(store._step_cache) == {(obs.key, store.true, Atom(0))}

    def test_a_store_made_directly_bounds_its_step_table(self, monkeypatch):
        monkeypatch.setattr(kripke, "TABLE_LIMIT", 2)
        store, obs = DdStore(), forehead(2)
        sizes = []
        for f in (Atom(0), Atom(1), Or((Atom(0), Atom(1)))):
            announce_symbolic(store, obs, store.true, f)
            sizes.append(len(store._step_cache))
        # the third entry passed the limit: the table was emptied
        assert sizes == [1, 2, 0]

    @pytest.mark.parametrize(
        "n, digest",
        [
            (3, "acf22b91d23f152d74725af910eff094fb4b0a205a325e8c390d01b234d1c304"),
            (6, "f0264d4b3184b148d9dbf7be14bd8d2a85739969d3395e41db2945ee76e5db6e"),
            (64, "1224042632ec386a00a76ce8ac66071a1f3f73e52ec094b314c848777b4ee802"),
        ],
    )
    def test_symbolic_puzzle_prints_the_same_bytes(self, n, digest):
        # the output's sha256, the same with and without the step table
        result = CliRunner().invoke(cli.main, ["puzzle", "--n", str(n), "--backend", "symbolic"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


class TestAnnounceSymbolic:
    def test_tautology_returns_same_law_node(self):
        store = DdStore()
        after = announce_symbolic(store, forehead(2), store.true, Or((Atom(0), Not(Atom(0)))))
        assert after is store.true

    def test_existential_keeps_three_states(self):
        store = DdStore()
        after = announce_symbolic(store, forehead(2), store.true, Or((Atom(0), Atom(1))))
        assert store.count_sat(after, 2) == 3
        assert sat_worlds(store, after, 2) == frozenset({1, 2, 3})

    def test_round_announcements_shrink_like_explicit(self):
        n = 3
        store, obs = DdStore(), forehead(n)
        law, live = store.true, build_initial_model(obs)
        existential = disj(Atom(i) for i in range(n))
        ignorance = conj(Not(KnowsWhether(i, Atom(i))) for i in range(n))

        for step in (existential, ignorance, ignorance):
            law = announce_symbolic(store, obs, law, step)
            live = announce(obs, live, step)
            assert sat_worlds(store, law, n) == worlds(live)


class TestLabelSymbolic:
    def test_muddy_children_pair(self):
        existential = parse_formula("p0 | p1", 2)
        ignorance = parse_formula("~Kw[0]p0 & ~Kw[1]p1", 2)
        hyp = parse_formula("Kw[0]p0 & Kw[1]p1", 2)
        store = DdStore()
        assert label_symbolic(store, forehead(2), store.true, [existential], hyp) is False
        assert (
            label_symbolic(store, forehead(2), store.true, [existential, ignorance], hyp)
            is True
        )

    def test_contradiction_raises(self):
        store = DdStore()
        with pytest.raises(ContradictoryPremise):
            label_symbolic(store, forehead(2), store.true, [Atom(0), Not(Atom(0))], Atom(0))

    def test_generalized_muddy_children_small(self):
        for n in range(2, 9):
            store, obs = DdStore(), forehead(n)
            existential = disj(Atom(i) for i in range(n))
            ignorance = conj(Not(KnowsWhether(i, Atom(i))) for i in range(n))
            everyone = conj(KnowsWhether(i, Atom(i)) for i in range(n))
            for k in range(n):
                anns = [existential] + [ignorance] * k
                assert label_symbolic(store, obs, store.true, anns, everyone) is (k >= n - 1)


class TestBackendEquivalence:
    def test_random_problems_agree(self):
        rng = SplitMix64(0xE0)
        for trial in range(250):
            n = 2 + rng.below(2)
            rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
            matrix = ObservabilityMatrix.from_rows(rows)
            live = build_initial_model(matrix)
            store = DdStore()
            anns = [
                random_formula(rng, n, depth=3, announce_budget=0)
                for _ in range(rng.below(3))
            ]
            hyp = random_formula(rng, n, depth=3, modal_budget=3, announce_budget=2)
            assert is_contradictory(matrix, live, anns) == is_contradictory_symbolic(
                store, matrix, store.true, anns
            )
            try:
                explicit = label(matrix, live, anns, hyp)
            except ContradictoryPremise:
                with pytest.raises(ContradictoryPremise):
                    label_symbolic(store, matrix, store.true, anns, hyp)
                continue
            assert label_symbolic(store, matrix, store.true, anns, hyp) == explicit
