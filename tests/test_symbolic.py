import pytest

import epistle.symbolic as symbolic
from epistle.bdd import DdStore
from epistle.dsl import parse_formula
from epistle.errors import ContradictoryPremise
from epistle.formula import (
    Atom,
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
from epistle.symbolic import (
    KnowledgeStructure,
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
    worlds_where,
)


def forehead_ks(store, n):
    return KnowledgeStructure.from_observability(
        store, ObservabilityMatrix.ones_minus_identity(n)
    )


class TestTranslate:
    def test_observed_variable_is_known(self):
        store = DdStore()
        ks = forehead_ks(store, 2)  # agent 0 observes p1 only
        assert translate(ks, Knows(0, Atom(1))) is store.var(1)

    def test_unobserved_unconstrained_variable_is_unknown(self):
        store = DdStore()
        ks = forehead_ks(store, 2)
        assert translate(ks, Knows(0, Atom(0))) is store.false

    def test_whether_expansion_shares_node(self):
        store = DdStore()
        ks = forehead_ks(store, 3)
        f = KnowsWhether(1, Or((Atom(0), Atom(2))))
        assert translate(ks, f) is translate(ks, expand_whether(1, f.child))
        # random formulas and matrices, under laws left by announcements
        rng = SplitMix64(0x3E)
        for n in (2, 3, 4, 5):
            for _ in range(8):
                rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
                store = DdStore()
                ks = KnowledgeStructure.from_observability(
                    store, ObservabilityMatrix.from_rows(rows)
                )
                # keep only announcements that leave some state alive
                for _ in range(rng.below(3)):
                    after = announce_symbolic(
                        ks, random_formula(rng, n, depth=2, announce_budget=0)
                    )
                    if after.state_law is not store.false:
                        ks = after
                for _ in range(10):
                    agent = rng.below(n)
                    child = random_formula(rng, n, depth=3)
                    assert translate(ks, KnowsWhether(agent, child)) is translate(
                        ks, expand_whether(agent, child)
                    )

    def test_nested_whether_visits_each_node_once(self, monkeypatch):
        visited = []
        original = symbolic.translate

        def counting(ks, f, law=None):
            visited.append(f)
            return original(ks, f, law)

        # the recursion looks ``translate`` up on the module, so it counts too
        monkeypatch.setattr(symbolic, "translate", counting)
        for depth in range(1, 21):
            f = Atom(0)
            for _ in range(depth):
                f = KnowsWhether(1, f)
            store = DdStore()
            visited.clear()
            # agent 1 observes p0 on foreheads, so every level is known
            assert symbolic.translate(forehead_ks(store, 2), f) is store.true
            assert len(visited) == depth + 1

    def test_matches_explicit_satisfying_sets(self):
        rng = SplitMix64(0x51)
        for n in (2, 3):
            for matrix in (
                ObservabilityMatrix.ones_minus_identity(n),
                ObservabilityMatrix.ones(n),
                ObservabilityMatrix.identity(n),
            ):
                store = DdStore()
                ks = KnowledgeStructure.from_observability(store, matrix)
                model = build_initial_model(n, matrix)
                # vary the state law with a boolean restriction half the time
                if rng.chance(0.5):
                    restriction = random_boolean_formula(rng, n, 2)
                    ks = announce_symbolic(ks, restriction)
                    model = announce(model, restriction)
                for _ in range(100):
                    f = random_formula(rng, n, depth=3)
                    node = store.and_(ks.state_law, translate(ks, f))
                    assert sat_worlds(store, node, n) == worlds_where(model, f)


class TestAnnounceSymbolic:
    def test_keeps_store_vocabulary_and_observations(self):
        store = DdStore()
        ks = forehead_ks(store, 3)
        after = announce_symbolic(ks, Or((Atom(0), Atom(2))))
        assert after.store is ks.store
        assert after.obs is ks.obs
        assert after.state_law is not ks.state_law

    def test_tautology_returns_same_law_node(self):
        store = DdStore()
        ks = forehead_ks(store, 2)
        after = announce_symbolic(ks, Or((Atom(0), Not(Atom(0)))))
        assert after.state_law is ks.state_law

    def test_existential_keeps_three_states(self):
        store = DdStore()
        ks = forehead_ks(store, 2)
        after = announce_symbolic(ks, Or((Atom(0), Atom(1))))
        assert after.live_count() == 3
        assert sat_worlds(store, after.state_law, 2) == frozenset({1, 2, 3})

    def test_round_announcements_shrink_like_explicit(self):
        n = 3
        store = DdStore()
        ks = forehead_ks(store, n)
        model = build_initial_model(n, ObservabilityMatrix.ones_minus_identity(n))
        existential = disj(Atom(i) for i in range(n))
        ignorance = conj(Not(KnowsWhether(i, Atom(i))) for i in range(n))
        from epistle.kripke import announce

        for step in (existential, ignorance, ignorance):
            ks = announce_symbolic(ks, step)
            model = announce(model, step)
            assert sat_worlds(store, ks.state_law, n) == model.live


class TestLabelSymbolic:
    def test_muddy_children_pair(self):
        existential = parse_formula("p0 | p1", 2)
        ignorance = parse_formula("~Kw[0]p0 & ~Kw[1]p1", 2)
        hyp = parse_formula("Kw[0]p0 & Kw[1]p1", 2)
        store = DdStore()
        assert label_symbolic(forehead_ks(store, 2), [existential], hyp) is False
        assert (
            label_symbolic(forehead_ks(store, 2), [existential, ignorance], hyp)
            is True
        )

    def test_contradiction_raises(self):
        store = DdStore()
        with pytest.raises(ContradictoryPremise):
            label_symbolic(forehead_ks(store, 2), [Atom(0), Not(Atom(0))], Atom(0))

    def test_generalized_muddy_children_small(self):
        for n in range(2, 9):
            store = DdStore()
            ks = forehead_ks(store, n)
            existential = disj(Atom(i) for i in range(n))
            ignorance = conj(Not(KnowsWhether(i, Atom(i))) for i in range(n))
            everyone = conj(KnowsWhether(i, Atom(i)) for i in range(n))
            for k in range(n):
                anns = [existential] + [ignorance] * k
                assert label_symbolic(ks, anns, everyone) is (k >= n - 1)


class TestBackendEquivalence:
    def test_random_problems_agree(self):
        rng = SplitMix64(0xE0)
        for trial in range(250):
            n = 2 + rng.below(2)
            rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
            matrix = ObservabilityMatrix.from_rows(rows)
            model = build_initial_model(n, matrix)
            store = DdStore()
            ks = KnowledgeStructure.from_observability(store, matrix)
            anns = [
                random_formula(rng, n, depth=3, announce_budget=0)
                for _ in range(rng.below(3))
            ]
            hyp = random_formula(rng, n, depth=3, modal_budget=3, announce_budget=2)
            assert is_contradictory(model, anns) == is_contradictory_symbolic(ks, anns)
            try:
                explicit = label(model, anns, hyp)
            except ContradictoryPremise:
                with pytest.raises(ContradictoryPremise):
                    label_symbolic(ks, anns, hyp)
                continue
            assert label_symbolic(ks, anns, hyp) == explicit
