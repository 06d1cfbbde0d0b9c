import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistle import formula
from epistle.dsl import parse_formula, print_formula
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
from epistle.kripke import build_initial_model, evaluate
from epistle.rng import SplitMix64
from epistle.setups import ALL_SETUPS, SetupKind, fixed_observability

from conftest import formula_strategy
from support import (
    distinct_nodes,
    expand_whether,
    modal_depth,
    random_formula,
    reduce_announcements,
    worlds,
)


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
        for kind in ALL_SETUPS[:3]:  # the fixed setups
            matrix = fixed_observability(kind, n)
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

    @pytest.mark.parametrize("depth, max_nodes", [(12, 200), (40, 2000)])
    def test_long_announcement_chains_reduce_to_a_small_dag(self, depth, max_nodes):
        f = Atom(0)
        for _ in range(depth):
            f = Announced(Or((Atom(0), Atom(1))), f)
        # in a thread, so that a reduction gone exponential fails in 1 s
        # instead of hanging the run
        done = []
        worker = threading.Thread(target=lambda: done.append(reduce_announcements(f)), daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert done, "the reduction took more than 1 s"
        assert distinct_nodes(done[0]) <= max_nodes
        assert distinct_nodes(f) == depth + 3  # the chain, its disjunction, p0 and p1

    @given(formula_strategy())
    @settings(max_examples=150, deadline=None)
    def test_preserves_truth_property(self, f):
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, 3)
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


# one construction of each node type; each call builds every node afresh
BUILDERS = {
    "Atom": lambda: Atom(2),
    "Not": lambda: Not(Atom(0)),
    "And": lambda: And((Atom(0), Not(Atom(1)))),
    "Or": lambda: Or((Atom(0), Atom(1), Atom(2))),
    "Implies": lambda: Implies(Atom(0), Atom(1)),
    "Knows": lambda: Knows(1, Atom(0)),
    "KnowsWhether": lambda: KnowsWhether(0, Not(Atom(1))),
    "Announced": lambda: Announced(Atom(0), Knows(1, Atom(0))),
}


class TestHashConsing:
    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_equal_constructions_are_one_node(self, build):
        f = build()
        assert build() is f
        assert build() == f and hash(build()) == hash(f)

    def test_different_fields_are_different_nodes(self):
        nodes = [build() for build in BUILDERS.values()]
        nodes += [Atom(1), Knows(0, Atom(0)), KnowsWhether(0, Atom(1)), And((Atom(1), Atom(0)))]
        assert len(set(nodes)) == len(nodes)
        assert And((Atom(0), Atom(1))) != Or((Atom(0), Atom(1)))

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_pickle_and_copy_return_the_same_node(self, build):
        f = build()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_fields_cannot_be_assigned_or_deleted(self, build):
        f = build()
        name = type(f).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(f, name, Atom(0))
        with pytest.raises(AttributeError):
            delattr(f, name)
        with pytest.raises(AttributeError):
            f.extra = 1
        assert build() is f

    def test_repr_is_pinned(self):
        f = Announced(
            Or((Atom(0), Not(Atom(1)))),
            And((Knows(1, Atom(0)), KnowsWhether(0, Implies(Atom(1), Atom(2))))),
        )
        assert repr(f) == (
            "Announced(announcement=Or(children=(Atom(prop=0), Not(child=Atom(prop=1)))), "
            "continuation=And(children=(Knows(agent=1, child=Atom(prop=0)), "
            "KnowsWhether(agent=0, child=Implies(left=Atom(prop=1), right=Atom(prop=2))))))"
        )

    def test_wrong_field_count_is_a_type_error(self):
        with pytest.raises(TypeError):
            Not()
        with pytest.raises(TypeError):
            Knows(0, Atom(0), Atom(1))
        with pytest.raises(TypeError):
            Atom("p0")

    def test_index_fields_are_normalised(self):
        # a node not built before, so its first construction decides its fields
        child = Atom(987_654)
        f = Knows(True, child)
        assert f.agent == 1 and type(f.agent) is int
        assert Knows(1, child) is f
        assert print_formula(f) == "K[1] p987654"

    def test_atom_true_then_atom_one_prints_p1(self):
        # a fresh interpreter, where no Atom(1) exists before Atom(True)
        src = Path(formula.__file__).resolve().parents[1]
        code = (
            "from epistle.formula import Atom\n"
            "from epistle.dsl import print_formula\n"
            "first = Atom(True)\n"
            "print(print_formula(Atom(1)), first is Atom(1), type(first.prop).__name__)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert out == "p1 True int\n"

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_printed_text_parses_back_to_the_same_node(self, seed):
        f = random_formula(SplitMix64(seed), 3, depth=4)
        assert parse_formula(print_formula(f), 3) is f


class TestUniqueTable:
    def test_dropped_formulas_leave_the_table(self):
        gc.collect()
        formula._sweep()
        start = len(formula._table)
        built = [Knows(0, Not(Atom(i))) for i in range(10_000, 20_000)]
        assert len(set(built)) == 10_000
        del built
        gc.collect()
        formula._sweep()
        assert len(formula._table) <= start + 8

    def test_built_and_dropped_one_at_a_time_the_table_stays_bounded(self):
        gc.collect()
        formula._sweep()
        # a sweep sets the next one at twice the live entries, which include
        # the few nodes in flight while one is built
        bound = max(1 << 12, 2 * len(formula._table)) + 8
        peak = 0
        for i in range(20_000, 40_000):
            Implies(Atom(i), Not(Atom(i)))
            peak = max(peak, len(formula._table))
        assert peak <= bound

    def test_threads_building_the_same_formulas_get_one_node_each(self):
        n_threads, count = 4, 1000
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def build(slot):
            barrier.wait(timeout=30)
            results[slot] = [
                KnowsWhether(i % 7, And((Atom(50_000 + i), Not(Atom(50_000 + i))))) for i in range(count)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        first = results[0]
        assert len(set(first)) == count
        for other in results[1:]:
            assert len(other) == count
            assert all(a is b for a, b in zip(first, other))
