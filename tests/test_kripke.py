import copy
import os
import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epistle.kripke as kripke
from epistle.backends import both_label, explicit_label, outcome, symbolic_label
from epistle.dsl import parse_formula
from epistle.errors import ContradictoryPremise, DeadWorld, SizeLimit
from epistle.formula import (
    And,
    Announced,
    Atom,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
)
from epistle.kripke import (
    ObservabilityMatrix,
    announce,
    build_initial_model,
    evaluate,
    is_contradictory,
    label,
)
from epistle.generator import sample_observability
from epistle.rng import SplitMix64
from epistle.setups import ALL_SETUPS, SetupKind, fixed_observability

from support import (
    agent_mask,
    oracle_eval,
    oracle_label,
    random_boolean_formula,
    random_formula,
    reduce_announcements,
    worlds,
    worlds_where,
)

# worlds are ints with bit j = proposition j, so (p0=1, p1=0) is 0b01


forehead = partial(fixed_observability, SetupKind.FOREHEAD_MUD)
mirror = partial(fixed_observability, SetupKind.FOREHEAD_MUD_MIRROR)
thirst = partial(fixed_observability, SetupKind.THIRST)


def random_observability(rng, n):
    """A matrix of one of the four setups, or uniformly random rows."""
    kind = rng.below(len(ALL_SETUPS) + 1)
    if kind < len(ALL_SETUPS):
        return sample_observability(ALL_SETUPS[kind], n, rng)
    return ObservabilityMatrix.from_rows([[rng.chance(0.5) for _ in range(n)] for _ in range(n)])


def classes(obs, agent):
    mask = agent_mask(obs, agent)
    buckets = {}
    for w in worlds(build_initial_model(obs)):
        buckets.setdefault(w & mask, set()).add(w)
    return {frozenset(v) for v in buckets.values()}


@st.composite
def matrix_rows(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.booleans(), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


class TestObservabilityMatrix:
    @given(matrix_rows())
    @settings(max_examples=200, deadline=None)
    def test_hidden_is_the_ascending_complement_of_each_row(self, rows):
        obs = ObservabilityMatrix.from_rows(rows)
        n = len(rows)
        assert obs.n == len(rows)
        for row, hidden in zip(rows, obs.hidden, strict=True):
            assert list(hidden) == [j for j in range(n) if not row[j]]
        assert "hidden" not in repr(obs)

    @given(matrix_rows())
    @settings(max_examples=200, deadline=None)
    def test_equal_rows_make_equal_matrices(self, rows):
        obs = ObservabilityMatrix.from_rows(rows)
        twin = ObservabilityMatrix.from_rows([list(row) for row in rows])
        assert twin == obs and hash(twin) == hash(obs)
        flipped = [list(row) for row in rows]
        flipped[0][0] = not flipped[0][0]
        assert ObservabilityMatrix.from_rows(flipped) != obs

    def test_small_matrices_are_shared_whatever_the_row_type(self):
        rows = [[True, False, True], [False, False, True], [True, True, True]]
        obs = ObservabilityMatrix.from_rows(rows)
        as_ints = [[int(b) for b in row] for row in rows]
        assert ObservabilityMatrix.from_rows(as_ints) is obs
        assert ObservabilityMatrix.from_rows(tuple(map(tuple, rows))) is obs
        assert thirst(1) is mirror(1)  # equal rows, one kept matrix

    def test_equal_rows_get_one_key_however_given(self, monkeypatch):
        # an empty registry, so the first matrix is built directly from ints
        monkeypatch.setattr(kripke, "_SHARED", {})
        rows = [[True, False, True], [False, False, True], [True, True, True]]
        obs = ObservabilityMatrix([[int(b) for b in row] for row in rows])
        assert obs.rows == tuple(map(tuple, rows))
        assert all(type(b) is bool for row in obs.rows for b in row)
        assert obs.key == id(obs) and kripke._SHARED[obs.rows] is obs
        assert ObservabilityMatrix.from_rows(rows) is obs
        given = [
            ObservabilityMatrix.from_rows([[int(b) for b in row] for row in rows]),
            ObservabilityMatrix.from_rows(tuple(map(tuple, rows))),
            ObservabilityMatrix(obs.rows),
            ObservabilityMatrix(tuple(tuple(int(b) for b in row) for row in rows)),
            copy.copy(obs),
            copy.deepcopy(obs),
            pickle.loads(pickle.dumps(obs)),
        ]
        assert all(m == obs and m.key == obs.key for m in given)
        assert given[2] is not obs  # built apart, keyed as the kept one
        flipped = [list(row) for row in rows]
        flipped[0][0] = False
        assert ObservabilityMatrix.from_rows(flipped).key not in (None, obs.key)
        assert repr(obs) == f"ObservabilityMatrix(rows={obs.rows!r})"

    def test_drawn_larger_matrices_have_no_key_and_enter_nothing(self):
        rows = ((True, False, False, True), (False,) * 4, (True,) * 4, (False, True, True, False))
        first, again = ObservabilityMatrix.from_rows(rows), ObservabilityMatrix(rows)
        assert first == again and first is not again
        assert first.key is None and again.key is None and rows not in kripke._SHARED
        kripke._table.clear()
        problems = [
            (
                [Or((Atom(0), Atom(1)))],
                KnowsWhether(0, And((Atom(0), Or((Atom(1), Knows(2, Atom(3))))))),
            ),
            ([Not(And((Atom(0), Atom(1))))], Not(Knows(3, Not(Atom(2))))),
        ]
        for anns, hyp in problems:
            assert outcome(explicit_label, first, anns, hyp) == oracle_outcome(4, rows, anns, hyp)
        assert not kripke._table

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_fixed_matrices_of_any_size_have_a_key(self, n):
        for kind in ALL_SETUPS[:3]:
            obs = fixed_observability(kind, n)
            assert obs.key == id(obs) and kripke._SHARED[obs.rows] is obs
            assert ObservabilityMatrix.from_rows(obs.rows) is obs
            assert pickle.loads(pickle.dumps(obs)).key == obs.key
        assert forehead(n).rows == tuple(tuple(i != j for j in range(n)) for i in range(n))

    @pytest.mark.parametrize(
        "n, sees, kept",
        [
            (4, lambda i, j: False, True),  # nobody observes anything
            (5, lambda i, j: False, True),
            (4, lambda i, j: i == j or (i, j) == (3, 0), False),  # one value on the diagonal only
            (4, lambda i, j: i != j or i == 2, False),  # one value off the diagonal only
            (4, lambda i, j: i != j and (i, j) != (3, 2), False),  # only the last row breaks it
        ],
    )
    def test_larger_rows_are_kept_when_agent_symmetric(self, n, sees, kept):
        rows = tuple(tuple(sees(i, j) for j in range(n)) for i in range(n))
        obs = ObservabilityMatrix(rows)
        if kept:
            assert obs.key == id(kripke._SHARED[rows])
            assert ObservabilityMatrix.from_rows(rows) is kripke._SHARED[rows]
        else:
            assert obs.key is None and ObservabilityMatrix.from_rows(rows).key is None
            assert rows not in kripke._SHARED

    def test_a_matrix_pickled_elsewhere_takes_this_process_key(self):
        # a fresh interpreter, whose ids mean nothing here
        src = Path(kripke.__file__).resolve().parents[1]
        code = (
            "import pickle, sys\n"
            "from epistle.kripke import ObservabilityMatrix\n"
            "obs = ObservabilityMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 1, 0]])\n"
            "sys.stdout.buffer.write(pickle.dumps(obs))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, timeout=60, check=True,
        ).stdout
        loaded = pickle.loads(out)
        here = ObservabilityMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 1, 0]])
        assert loaded == here and loaded.key == here.key
        rng = SplitMix64(0x91C)
        for _ in range(20):
            anns = [random_formula(rng, 3, depth=2) for _ in range(rng.below(3))]
            hyp = random_formula(rng, 3, depth=2)
            expected = oracle_outcome(3, here.rows, anns, hyp)
            assert outcome(explicit_label, loaded, anns, hyp) == expected
            assert outcome(symbolic_label, loaded, anns, hyp) == expected

    @pytest.mark.parametrize(
        "rows", [[[1, 0], [1]], [[1], [0, 1]], [[1, 0, 1], [0, 1, 1], [1, 1]], [[1, 1]] * 4]
    )
    def test_ragged_rows_raise(self, rows):
        with pytest.raises(ValueError, match="square"):
            ObservabilityMatrix.from_rows(rows)
        assert tuple(tuple(bool(b) for b in row) for row in rows) not in kripke._SHARED


class TestBuildInitialModel:
    def test_thirst_classes_agree_on_own_bit(self):
        obs = thirst(2)
        assert classes(obs, 0) == {frozenset({0b00, 0b10}), frozenset({0b01, 0b11})}
        assert classes(obs, 1) == {frozenset({0b00, 0b01}), frozenset({0b10, 0b11})}

    def test_mirror_classes_are_singletons(self):
        obs = mirror(2)
        for agent in range(2):
            assert classes(obs, agent) == {frozenset({w}) for w in range(4)}

    def test_forehead_classes_pair_on_own_bit(self):
        obs = forehead(2)
        assert classes(obs, 0) == {frozenset({0b00, 0b01}), frozenset({0b10, 0b11})}

    def test_all_live_initially(self):
        assert worlds(build_initial_model(forehead(3))) == frozenset(range(8))

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            build_initial_model(mirror(21))


class TestEvaluate:
    def test_mirror_agent_knows_own_status(self):
        obs = mirror(2)
        assert evaluate(obs, build_initial_model(obs), 0b01, KnowsWhether(0, Atom(0))) is True

    def test_forehead_cannot_see_own(self):
        obs = forehead(2)
        assert evaluate(obs, build_initial_model(obs), 0b11, Knows(0, Atom(0))) is False

    def test_informative_announcement_enables_inference(self):
        # agent 0 is muddy, agent 1 is not; after "someone is muddy" agent 0
        # sees a clean forehead and infers its own state
        obs = forehead(2)
        f = Announced(Or((Atom(0), Atom(1))), Knows(0, Atom(0)))
        assert evaluate(obs, build_initial_model(obs), 0b01, f) is True

    def test_vacuous_when_announcement_false(self):
        obs = forehead(2)
        f = Announced(Atom(0), Atom(1))
        assert evaluate(obs, build_initial_model(obs), 0b10, f) is True

    def test_dead_world(self):
        obs = forehead(2)
        live = announce(obs, build_initial_model(obs), Atom(0))
        with pytest.raises(DeadWorld):
            evaluate(obs, live, 0b10, Atom(0))

    def test_agrees_with_independent_evaluator(self):
        rng = SplitMix64(0x5EED)
        for n in (2, 3):
            for make in (forehead, mirror, thirst):
                obs = make(n)
                live = build_initial_model(obs)
                rows = obs.rows
                for _ in range(120):
                    f = random_formula(rng, n, depth=3)
                    for w in worlds(live):
                        assert evaluate(obs, live, w, f) == oracle_eval(
                            list(worlds(live)), rows, w, f
                        )


    def test_agrees_with_independent_evaluator_on_restricted_models(self):
        rng = SplitMix64(0x5EEE)
        for _ in range(60):
            n = 2 + rng.below(4)
            obs = random_observability(rng, n)
            restriction = (
                random_boolean_formula(rng, n, 2)
                if rng.chance(0.5)
                else random_formula(rng, n, depth=2)
            )
            mask = announce(obs, build_initial_model(obs), restriction)
            live = sorted(worlds(mask))
            assert mask.bit_count() == len(live)
            for _ in range(4):
                f = random_formula(rng, n, depth=3)
                for w in live:
                    assert evaluate(obs, mask, w, f) == oracle_eval(live, obs.rows, w, f)


class TestAnnounce:
    def test_tautology_keeps_model(self):
        obs = forehead(2)
        live = build_initial_model(obs)
        assert worlds(announce(obs, live, Or((Atom(0), Not(Atom(0)))))) == worlds(live)

    def test_existential_drops_all_clean_world(self):
        obs = forehead(2)
        after = announce(obs, build_initial_model(obs), Or((Atom(0), Atom(1))))
        assert worlds(after) == frozenset({0b01, 0b10, 0b11})

    def test_mutual_ignorance_leaves_all_muddy(self):
        obs = forehead(2)
        live = announce(obs, build_initial_model(obs), Or((Atom(0), Atom(1))))
        ignorance = And(
            (Not(KnowsWhether(0, Atom(0))), Not(KnowsWhether(1, Atom(1))))
        )
        assert worlds(announce(obs, live, ignorance)) == frozenset({0b11})

    def test_monotone(self):
        rng = SplitMix64(0xCAFE)
        for _ in range(100):
            obs = forehead(3)
            live = build_initial_model(obs)
            f = random_formula(rng, 3, depth=3)
            after = announce(obs, live, f)
            assert worlds(after) <= worlds(live)

    def test_boolean_announcements_idempotent(self):
        rng = SplitMix64(0xB00)
        for _ in range(100):
            obs = thirst(3)
            f = random_boolean_formula(rng, 3, 3)
            once = announce(obs, build_initial_model(obs), f)
            assert worlds(announce(obs, once, f)) == worlds(once)

    def test_epistemic_announcements_need_not_be_idempotent(self):
        # the muddy-children mechanism: repeating "nobody knows" keeps
        # shrinking the model
        obs = forehead(3)
        live = announce(obs, build_initial_model(obs), Or((Atom(0), Atom(1), Atom(2))))
        ignorance = And(
            tuple(Not(KnowsWhether(i, Atom(i))) for i in range(3))
        )
        once = announce(obs, live, ignorance)
        twice = announce(obs, once, ignorance)
        assert worlds(twice) < worlds(once)


class TestIsContradictory:
    def test_direct_contradiction(self):
        obs = forehead(2)
        assert is_contradictory(obs, build_initial_model(obs), [Atom(0), Not(Atom(0))]) is True

    def test_empty_sequence(self):
        obs = forehead(2)
        assert is_contradictory(obs, build_initial_model(obs), []) is False

    def test_unsatisfiable_second_announcement(self):
        obs = forehead(2)
        anns = [
            Or((Atom(0), Atom(1))),
            And((Knows(0, Atom(0)), Knows(0, Not(Atom(0))))),
        ]
        assert is_contradictory(obs, build_initial_model(obs), anns) is True


class TestLabel:
    def test_muddy_children_before_and_after(self):
        obs = forehead(2)
        live = build_initial_model(obs)
        existential = parse_formula("p0 | p1", 2)
        ignorance = parse_formula("~Kw[0]p0 & ~Kw[1]p1", 2)
        hyp = parse_formula("Kw[0]p0 & Kw[1]p1", 2)
        assert label(obs, live, [existential], hyp) is False
        assert label(obs, live, [existential, ignorance], hyp) is True

    def test_mirror_repeated_announcement_instance(self):
        # two agents in front of a mirror; "someone muddy", then "not everyone
        # muddy" twice; with full observability each agent always knows whether
        # everyone is muddy (frozen from the 4-world enumeration)
        obs = mirror(2)
        anns = [
            parse_formula("p0 | p1", 2),
            parse_formula("~(p0 & p1)", 2),
            parse_formula("~(p0 & p1)", 2),
        ]
        hyp = parse_formula("Kw[0] (p0 & p1)", 2)
        assert label(obs, build_initial_model(obs), anns, hyp) is True

    def test_contradictory_premise_raises(self):
        obs = forehead(2)
        with pytest.raises(ContradictoryPremise):
            label(obs, build_initial_model(obs), [Atom(0), Not(Atom(0))], Atom(0))

    def test_agrees_with_prefixed_announcement_formula(self):
        rng = SplitMix64(0x1AB)
        for _ in range(150):
            n = 2 + rng.below(2)
            obs = forehead(n)
            live = build_initial_model(obs)
            anns = [
                random_formula(rng, n, depth=2, announce_budget=0)
                for _ in range(rng.below(4))
            ]
            hyp = random_formula(rng, n, depth=2, announce_budget=0)
            chain = hyp
            for a in reversed(anns):
                chain = Announced(a, chain)
            chain_valid = all(evaluate(obs, live, w, chain) for w in worlds(live))
            try:
                assert label(obs, live, anns, hyp) == chain_valid
            except ContradictoryPremise:
                assert chain_valid is True  # vacuously

    def test_agrees_with_reduction_oracle(self):
        rng = SplitMix64(0x0AC1)
        for _ in range(150):
            n = 2 + rng.below(2)
            obs = forehead(n)
            live = build_initial_model(obs)
            anns = [
                random_formula(rng, n, depth=2, announce_budget=0)
                for _ in range(rng.below(4))
            ]
            hyp = random_formula(rng, n, depth=2, announce_budget=0)
            chain = hyp
            for a in reversed(anns):
                chain = Announced(a, chain)
            reduced = reduce_announcements(chain)
            reduced_valid = all(evaluate(obs, live, w, reduced) for w in worlds(live))
            try:
                assert label(obs, live, anns, hyp) == reduced_valid
            except ContradictoryPremise:
                assert reduced_valid is True

    def test_agrees_with_independent_label_oracle(self):
        """Every checker's outcome, a label or a contradictory premise,
        against the oracle on every setup's matrices and random rows at
        n=2..5."""
        rng = SplitMix64(0x77)
        for _ in range(240):
            n = 2 + rng.below(4)
            obs = random_observability(rng, n)
            anns = [random_formula(rng, n, depth=2) for _ in range(rng.below(3))]
            if rng.chance(0.5):  # shrink the live set before the epistemic ones
                anns.insert(0, random_boolean_formula(rng, n, 2))
            hyp = random_formula(rng, n, depth=2)
            expected = oracle_label(n, obs.rows, anns, hyp)
            for checker in (explicit_label, symbolic_label, both_label):
                if expected is None:
                    with pytest.raises(ContradictoryPremise):
                        checker(obs, anns, hyp)
                else:
                    assert checker(obs, anns, hyp) == expected


def oracle_outcome(n, rows, anns, hyp):
    """``oracle_label`` in the form ``backends.outcome`` gives."""
    label = oracle_label(n, rows, anns, hyp)
    return "contradictory" if label is None else label


class TestEvaluationTable:
    """The process's evaluation table changes no outcome and stays bounded."""

    CONTRADICTION = And((Atom(0), Not(Atom(0))))

    @pytest.fixture(autouse=True)
    def empty_table(self):
        kripke._table.clear()
        yield
        kripke._table.clear()

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_warm_and_emptied_tables_symbolic_and_oracle_agree(self, seed):
        rng = SplitMix64(seed)
        n = 2 + rng.below(5)
        depth = 2 if n <= 4 else 1  # keeps the brute-force oracle quick at 32-64 worlds
        obs = random_observability(rng, n)
        anns = [random_formula(rng, n, depth=depth) for _ in range(rng.below(3))]
        if rng.chance(0.2):
            anns.insert(rng.below(len(anns) + 1), self.CONTRADICTION)
        inner = self.CONTRADICTION if rng.chance(0.2) else random_formula(rng, n, depth=depth)
        hyp = Announced(
            random_formula(rng, n, depth=depth),
            Announced(inner, random_formula(rng, n, depth=depth)),
        )
        every = list(range(1 << n))
        holds = frozenset(w for w in every if oracle_eval(every, obs.rows, w, hyp))
        expected = oracle_outcome(n, obs.rows, anns, hyp)
        for _ in range(2):  # the second pass finds every entry and enters none
            entries = len(kripke._table)
            assert worlds_where(obs, build_initial_model(obs), hyp) == holds
            assert outcome(explicit_label, obs, anns, hyp) == expected
        assert len(kripke._table) == entries
        kripke._table.clear()
        assert outcome(explicit_label, obs, anns, hyp) == expected
        assert outcome(symbolic_label, obs, anns, hyp) == expected

    def test_an_index_error_enters_nothing_and_a_larger_matrix_labels(self):
        hyp = And((Or((Atom(0), Atom(1))), Knows(1, Atom(3))))
        for _ in range(2):
            with pytest.raises(ValueError, match="p3 outside vocabulary of 3"):
                explicit_label(thirst(3), [], hyp)
            assert kripke._table  # the disjunction was entered
            assert all(key[2] is not hyp for key in kripke._table)
        assert explicit_label(thirst(4), [], hyp) is False

    def test_more_than_three_agents_enter_nothing(self):
        hyp = KnowsWhether(0, And((Atom(0), Or((Atom(1), Knows(2, Atom(2)))))))
        for n in (4, 6, 7):
            assert explicit_label(forehead(n), [Or((Atom(0), Atom(1)))], hyp) is False
            assert not kripke._table
        assert explicit_label(forehead(3), [Or((Atom(0), Atom(1)))], hyp) is False
        assert kripke._table

    def test_equal_matrices_built_apart_share_entries(self):
        rng = SplitMix64(0x7AB1E)
        rows = tuple(tuple(rng.chance(0.5) for _ in range(3)) for _ in range(3))
        first, second = ObservabilityMatrix(rows), ObservabilityMatrix(rows)
        assert first == second and first is not second and first.key == second.key
        problems = []
        for _ in range(40):
            anns = [random_formula(rng, 3, depth=2) for _ in range(rng.below(3))]
            problems.append((anns, random_formula(rng, 3, depth=2)))
        kripke._table.clear()
        labels = [outcome(explicit_label, first, anns, hyp) for anns, hyp in problems]
        assert labels == [oracle_outcome(3, rows, anns, hyp) for anns, hyp in problems]
        entries = dict(kripke._table)
        assert {key[0] for key in entries} == {first.key}
        # the second matrix finds every entry of the first and enters none
        assert [outcome(explicit_label, second, anns, hyp) for anns, hyp in problems] == labels
        assert kripke._table == entries

    def test_negations_of_an_atom_and_of_a_compound_are_entered(self):
        obs, full = thirst(3), 0b11111111
        either = Or((Atom(0), Knows(1, Atom(2))))
        p0, holds = kripke._atom_masks(3)[0], kripke._eval(obs, full, either)
        assert explicit_label(obs, [], Not(Atom(0))) is False
        assert explicit_label(obs, [], Not(either)) is False
        assert kripke._table == {
            (obs.key, full, Not(Atom(0))): full ^ p0,
            (obs.key, full, either): holds,
            (obs.key, full, Not(either)): full ^ holds,
            (obs.key, full, Knows(1, Atom(2))): kripke._eval(obs, full, Knows(1, Atom(2))),
        }

    def test_a_warm_negated_hypothesis_makes_no_call(self, monkeypatch):
        calls = []
        original = kripke._eval

        def counting(obs, live, f):
            calls.append(f)
            return original(obs, live, f)

        # the recursion looks ``_eval`` up on the module, so it counts too
        monkeypatch.setattr(kripke, "_eval", counting)
        obs, every = thirst(3), list(range(8))
        both = And((Atom(1), Not(Atom(2))))
        hyp = Not(KnowsWhether(0, both))
        first = explicit_label(obs, [], hyp)
        assert len(calls) == 6
        # the cold label enters each compound subformula under the full set
        assert kripke._table == {
            (obs.key, 0b11111111, f): sum(1 << w for w in every if oracle_eval(every, obs.rows, w, f))
            for f in (hyp, hyp.child, both, Not(Atom(2)))
        }
        entries = dict(kripke._table)
        calls.clear()
        assert explicit_label(obs, [], hyp) is first
        assert calls == [] and kripke._table == entries

    def test_a_negation_that_raises_enters_nothing(self):
        for hyp in (Not(Atom(3)), Not(And((Atom(0), Not(Atom(3)))))):
            with pytest.raises(ValueError, match="p3 outside vocabulary of 3"):
                explicit_label(thirst(3), [], hyp)
            assert not kripke._table

    def test_bound_empties_the_table_on_its_third_entry(self, monkeypatch):
        monkeypatch.setattr(kripke, "TABLE_LIMIT", 2)
        kripke._table.clear()
        both, either = And((Atom(0), Atom(1))), Or((Atom(0), Atom(1)))
        obs = thirst(2)
        explicit_label(obs, [], both)
        explicit_label(obs, [], either)
        table = kripke._table
        assert list(table) == [(obs.key, 0b1111, both), (obs.key, 0b1111, either)]
        explicit_label(obs, [], Implies(Atom(0), Atom(1)))
        assert not table and kripke._table is table
        explicit_label(obs, [], both)
        assert list(table) == [(obs.key, 0b1111, both)]


class TestS5Axioms:
    def _random_models(self, rng, count):
        out = []
        while len(out) < count:
            n = 2 + rng.below(2)
            rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
            obs = ObservabilityMatrix.from_rows(rows)
            live = build_initial_model(obs)
            # optionally restrict by a boolean announcement to vary live sets
            if rng.chance(0.5):
                live = announce(obs, live, random_boolean_formula(rng, n, 2))
                if not live:
                    continue
            out.append((obs, live))
        return out

    def test_axioms_valid(self):
        rng = SplitMix64(0x55)
        for obs, live in self._random_models(rng, 120):
            n = obs.n
            phi = random_formula(rng, n, depth=2, announce_budget=0)
            psi = random_formula(rng, n, depth=2, announce_budget=0)
            a = rng.below(n)
            distribution = Implies(
                Knows(a, Implies(phi, psi)), Implies(Knows(a, phi), Knows(a, psi))
            )
            truth = Implies(Knows(a, phi), phi)
            positive_introspection = Implies(Knows(a, phi), Knows(a, Knows(a, phi)))
            negative_introspection = Implies(
                Not(Knows(a, phi)), Knows(a, Not(Knows(a, phi)))
            )
            for axiom in (
                distribution,
                truth,
                positive_introspection,
                negative_introspection,
            ):
                assert worlds_where(obs, live, axiom) == worlds(live)
