import pytest
from hypothesis import given, settings

from epistle.formula import (
    And,
    Announced,
    Atom,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
    Quantifier,
    desugar_subject,
)
from epistle.kripke import ObservabilityMatrix, build_initial_model, evaluate
from epistle.rng import SplitMix64

from conftest import formula_strategy
from support import expand_whether, modal_depth, random_formula, reduce_announcements, worlds


class TestDesugarSubject:
    def test_someone_two_agents(self):
        assert desugar_subject(Quantifier.SOMEONE, False, 2) == Or((Atom(0), Atom(1)))

    def test_nobody_two_agents(self):
        assert desugar_subject(Quantifier.NOBODY, False, 2) == And(
            (Not(Atom(0)), Not(Atom(1)))
        )

    def test_not_everyone_three_agents(self):
        assert desugar_subject(Quantifier.NOT_EVERYONE, False, 3) == Not(
            And((Atom(0), Atom(1), Atom(2)))
        )

    def test_everyone(self):
        assert desugar_subject(Quantifier.EVERYONE, False, 2) == And((Atom(0), Atom(1)))

    def test_single_agent_literal(self):
        assert desugar_subject(1, False, 3) == Atom(1)
        assert desugar_subject(1, True, 3) == Not(Atom(1))

    def test_nobody_negated_collapses_double_negation(self):
        assert desugar_subject(Quantifier.NOBODY, True, 2) == And((Atom(0), Atom(1)))

    def test_single_conjunct_unwrapped(self):
        assert desugar_subject(Quantifier.EVERYONE, False, 1) == Atom(0)

    def test_agent_out_of_range(self):
        with pytest.raises(ValueError):
            desugar_subject(3, False, 3)


class TestModalDepth:
    def test_boolean_is_zero(self):
        assert modal_depth(Implies(Atom(0), Not(Atom(1)))) == 0

    def test_nesting(self):
        f = Knows(0, Not(KnowsWhether(1, Atom(2))))
        assert modal_depth(f) == 2

    def test_siblings_take_max(self):
        f = And((Knows(0, Atom(0)), Atom(1)))
        assert modal_depth(f) == 1


def _all_small_models():
    for n in (2, 3):
        for matrix in (
            ObservabilityMatrix.ones_minus_identity(n),
            ObservabilityMatrix.ones(n),
            ObservabilityMatrix.identity(n),
        ):
            yield matrix, build_initial_model(matrix)


class TestKnowsWhetherExpansion:
    def test_definitional_equivalence_everywhere(self):
        rng = SplitMix64(0xA11CE)
        for obs, live in _all_small_models():
            for _ in range(60):
                inner = random_formula(rng, obs.n, depth=2, announce_budget=0)
                agent = rng.below(obs.n)
                kw = KnowsWhether(agent, inner)
                expanded = expand_whether(agent, inner)
                for w in worlds(live):
                    assert evaluate(obs, live, w, kw) == evaluate(obs, live, w, expanded)


class TestReduceAnnouncements:
    def test_atomic_axiom(self):
        f = Announced(Atom(0), Atom(1))
        assert reduce_announcements(f) == Implies(Atom(0), Atom(1))

    def test_knowledge_axiom(self):
        f = Announced(Atom(0), Knows(1, Atom(0)))
        assert reduce_announcements(f) == Implies(
            Atom(0), Knows(1, Implies(Atom(0), Atom(0)))
        )

    def test_negation_axiom(self):
        f = Announced(Atom(0), Not(Atom(1)))
        assert reduce_announcements(f) == Implies(
            Atom(0), Not(Implies(Atom(0), Atom(1)))
        )

    def test_removes_every_announcement_node(self):
        rng = SplitMix64(0xBEEF)

        def has_announced(f):
            if isinstance(f, Announced):
                return True
            if isinstance(f, (Not, Knows, KnowsWhether)):
                return has_announced(getattr(f, "child"))
            if isinstance(f, (And, Or)):
                return any(has_announced(c) for c in f.children)
            if isinstance(f, Implies):
                return has_announced(f.left) or has_announced(f.right)
            return False

        for _ in range(300):
            f = random_formula(rng, 3, depth=4)
            assert not has_announced(reduce_announcements(f))

    def test_preserves_truth_seeded(self):
        rng = SplitMix64(0xFACE)
        models = list(_all_small_models())
        for i in range(400):
            obs, live = models[i % len(models)]
            f = random_formula(rng, obs.n, depth=3)
            g = reduce_announcements(f)
            for w in worlds(live):
                assert evaluate(obs, live, w, f) == evaluate(obs, live, w, g)

    @given(formula_strategy())
    @settings(max_examples=150, deadline=None)
    def test_preserves_truth_property(self, f):
        obs = ObservabilityMatrix.ones_minus_identity(3)
        live = build_initial_model(obs)
        g = reduce_announcements(f)
        for w in worlds(live):
            assert evaluate(obs, live, w, f) == evaluate(obs, live, w, g)


class TestConstructors:
    def test_empty_and_rejected(self):
        with pytest.raises(ValueError):
            And(())

    def test_empty_or_rejected(self):
        with pytest.raises(ValueError):
            Or(())
