"""The checkers' shared contracts: the symbolic backend's per-thread store
(kept across labels, dropped past its retention bound, retried once on a
fresh store when full, its translation table emptied past the tables' bound),
the explicit backend's one pair of tables, which every thread shares, and
``both_label`` comparing the two outcomes."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistle import backends, kripke
from epistle.backends import both_label, explicit_label, symbolic_label
from epistle.bdd import DdStore
from epistle.dsl import parse_formula, print_formula
from epistle.errors import BackendMismatch, ContradictoryPremise, StoreCapacity
from epistle.formula import And, Announced, Atom, Implies, Knows, KnowsWhether, Not, Or
from epistle.generator import GenConfig, iter_problems
from epistle.kripke import ObservabilityMatrix, announce, build_initial_model
from epistle.rng import SplitMix64
from epistle.setups import SetupKind, fixed_observability
from epistle.symbolic import announce_symbolic, label_symbolic, translate

from support import (
    backend_disagreements,
    check_reduced,
    default_problem_space,
    oracle_label,
    random_boolean_formula,
    random_formula,
    reduce_announcements,
    reduced_worlds,
    worlds,
)


@pytest.fixture(autouse=True)
def no_thread_store():
    """Each test starts and ends without a store kept on this thread."""
    backends._thread.store = None
    yield
    backends._thread.store = None


def kept_store():
    return getattr(backends._thread, "store", None)


def explicit_tables():
    """Copies of the explicit translation and step tables."""
    return dict(kripke._table), dict(kripke._steps)


def empty_explicit_tables():
    kripke._table.clear()
    kripke._steps.clear()


def count_interpreter_calls(monkeypatch):
    """The formula of every ``kripke._eval`` and ``kripke._step`` call, under
    ``(algebra, name)``; the algebra is ``"explicit"`` or ``"symbolic"``."""
    made = {(alg, name): [] for alg in ("explicit", "symbolic") for name in ("_eval", "_step")}
    for name in ("_eval", "_step"):
        original = getattr(kripke, name)

        def counting(alg, *args, original=original, name=name):
            made["symbolic" if isinstance(alg, DdStore) else "explicit", name].append(args[-1])
            return original(alg, *args)

        monkeypatch.setattr(kripke, name, counting)
    return made


def random_problem(rng, n):
    obs = ObservabilityMatrix.from_rows([[rng.chance(0.5) for _ in range(n)] for _ in range(n)])
    anns = [random_formula(rng, n, depth=2) for _ in range(rng.below(3))]
    if rng.chance(0.5):  # shrink the live set before the epistemic ones
        anns.insert(0, random_boolean_formula(rng, n, 2))
    return obs, anns, random_formula(rng, n, depth=2)


def fresh_store_label(obs, anns, hyp):
    store = DdStore()
    return label_symbolic(store, obs, store.true, anns, hyp)


def outcome(checker, obs, anns, hyp):
    try:
        return checker(obs, anns, hyp)
    except ContradictoryPremise:
        return None


def on_threads_at_once(work, names="abcd"):
    """Run ``work(name)`` on one thread per name: more threads than cores,
    all started together and switching often.  Returns the names."""
    all_started = threading.Barrier(len(names))

    def start(name):
        all_started.wait(timeout=30)
        work(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=start, args=(name,)) for name in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return names


def atom_label(n, *props):
    """Label the conjunction of ``props`` with no announcements (False for
    any nonempty conjunction of atoms)."""
    hyp = Atom(props[0]) if len(props) == 1 else And(tuple(Atom(p) for p in props))
    return symbolic_label(fixed_observability(SetupKind.THIRST, n), [], hyp)


class TestIndexOutsideVocabulary:
    """An atom or agent index outside ``0..n-1`` is the same ``ValueError``
    on every checker, wherever it sits in the problem."""

    TAUTOLOGY = Or((Atom(0), Not(Atom(0))))

    @pytest.mark.parametrize("checker", [explicit_label, symbolic_label, both_label])
    @pytest.mark.parametrize(
        "anns, hyp, message",
        [
            ([Atom(2)], Atom(-1), "proposition p-1 outside vocabulary of 3"),
            ([], Atom(5), "proposition p5 outside vocabulary of 3"),
            ([Atom(5)], Atom(0), "proposition p5 outside vocabulary of 3"),
            ([], Knows(-1, Atom(0)), "agent -1 outside vocabulary of 3"),
            ([], Knows(7, TAUTOLOGY), "agent 7 outside vocabulary of 3"),
            ([Knows(7, TAUTOLOGY)], Atom(0), "agent 7 outside vocabulary of 3"),
            # under an announcement that leaves no world
            ([], Announced(And((Atom(0), Not(Atom(0)))), Knows(3, Atom(0))),
             "agent 3 outside vocabulary of 3"),
            # after a conjunct that already leaves no world
            ([], Not(And((Atom(0), Not(Atom(0)), Atom(5)))),
             "proposition p5 outside vocabulary of 3"),
        ],
    )
    def test_is_a_value_error_naming_the_index(self, checker, anns, hyp, message):
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, 3)
        with pytest.raises(ValueError) as err:
            checker(obs, anns, hyp)
        assert str(err.value) == message


class KnowsSubclass(Knows):
    """Not a node class: the formula nodes are the closed ``Formula`` union."""


class TestNotAFormula:
    """A value outside the ``Formula`` union, at the top or nested, is the
    same ``TypeError`` on every checker, in the interpreter and in the
    printer, and enters nothing in any table; an instance of a subclass
    of a node class is such a value, since both dispatch on the node's
    exact class."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda store, obs, f: explicit_label(obs, [], f),
            lambda store, obs, f: symbolic_label(obs, [], f),
            lambda store, obs, f: both_label(obs, [], f),
            lambda store, obs, f: kripke._eval(kripke.WorldSets(3), obs, build_initial_model(obs), f),
            lambda store, obs, f: translate(store, obs, store.true, f),
            lambda store, obs, f: print_formula(f),
        ],
        ids=["explicit_label", "symbolic_label", "both_label", "_eval", "translate", "print_formula"],
    )
    @pytest.mark.parametrize(
        "f",
        [
            None,
            "p0",
            And((Atom(0), "p1")),
            KnowsSubclass(0, Atom(0)),
            And((Atom(0), KnowsSubclass(1, Atom(1)))),
        ],
        ids=["None", "str", "nested str", "Knows subclass", "nested Knows subclass"],
    )
    def test_is_a_type_error_that_enters_nothing(self, call, f):
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, 3)
        store = backends._thread.store = DdStore()  # symbolic_label's store too
        entries = explicit_tables()
        with pytest.raises(TypeError, match="not a formula"):
            call(store, obs, f)
        assert explicit_tables() == entries
        assert not store._translate_cache and not store._step_cache


class TestAnnouncementContinuation:
    """The continuation of ``[! f] g`` is evaluated where ``f`` was announced.

    With forehead mud, two agents and no announcements, agent 0 cannot see
    p0 and agent 1 cannot see p1; each formula here holds only because the
    inner announcement settles the atom, and reads False when its
    continuation is evaluated in the state before it."""

    OBS = fixed_observability(SetupKind.FOREHEAD_MUD, 2)

    @pytest.mark.parametrize(
        "text", ["[! p0] K[0] p0", "[! p0 & p1] Kw[1] p1", "K[1] [! p0] K[0] p0"]
    )
    def test_is_true_on_every_checker_and_the_oracle(self, text):
        hyp = parse_formula(text, 2)
        assert oracle_label(2, self.OBS.rows, [], hyp) is True
        assert explicit_label(self.OBS, [], hyp) is True
        assert symbolic_label(self.OBS, [], hyp) is True


class TestBothLabel:
    """``both_label`` compares outcomes: a label, or a contradictory premise."""

    OBS = fixed_observability(SetupKind.FOREHEAD_MUD, 2)

    def test_contradiction_on_both_backends_is_a_contradictory_premise(self):
        with pytest.raises(ContradictoryPremise):
            both_label(self.OBS, [Atom(0), Not(Atom(0))], Atom(1))

    @pytest.mark.parametrize("patched", ["explicit_label", "symbolic_label"])
    def test_contradiction_on_one_backend_is_a_mismatch(self, monkeypatch, patched):
        def contradicts(*args):
            raise ContradictoryPremise("forced")

        monkeypatch.setattr(backends, patched, contradicts)
        with pytest.raises(BackendMismatch, match="contradictory"):
            both_label(self.OBS, [Atom(0)], Atom(0))

    def test_labels_that_differ_are_a_mismatch(self, monkeypatch):
        monkeypatch.setattr(backends, "symbolic_label", lambda *args: False)
        with pytest.raises(BackendMismatch) as err:
            both_label(self.OBS, [Atom(0)], Atom(0))
        assert str(err.value) == "explicit=True symbolic=False for the same problem"


class TestRetainedStore:
    def test_labels_match_fresh_stores_and_oracle(self):
        # one interleaved sequence, so n changes from one label to the next
        rng = SplitMix64(0x5702E)
        sizes, store = set(), None
        for _ in range(200):
            n = 2 + rng.below(4)
            sizes.add(n)
            obs, anns, hyp = random_problem(rng, n)
            expected = oracle_label(n, obs.rows, anns, hyp)
            assert outcome(fresh_store_label, obs, anns, hyp) == expected
            assert outcome(symbolic_label, obs, anns, hyp) == expected
            assert outcome(both_label, obs, anns, hyp) == expected
            if store is None:
                store = kept_store()
            assert kept_store() is store  # one store served every label
        assert sizes == {2, 3, 4, 5}
        check_reduced(store)

    @pytest.mark.parametrize("n", [8, 12])
    def test_generated_problems_at_larger_n_match_explicit(self, n):
        cfg = GenConfig(seed=n, n_agents_choices=(n,), max_order=3)
        store = None
        for instance in iter_problems(cfg, 200):
            anns = list(instance.announcement_formulas())
            hyp = instance.hypothesis.formula
            assert symbolic_label(instance.obs, anns, hyp) == explicit_label(
                instance.obs, anns, hyp
            )
            if store is None:
                store = kept_store()
            assert kept_store() is store
        check_reduced(store)

    def test_one_store_serves_labels_and_contradiction_tests(self):
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, 3)
        hyp = Atom(0)
        symbolic_label(obs, [], hyp)
        store = kept_store()
        assert store is not None
        with pytest.raises(ContradictoryPremise):
            symbolic_label(obs, [hyp, Not(hyp)], hyp)
        symbolic_label(obs, [hyp], hyp)
        assert kept_store() is store

    def test_retention_bound_drops_the_store(self, monkeypatch):
        monkeypatch.setattr(backends, "RETAINED_NODE_LIMIT", 3)
        atom_label(2, 0)  # two terminals and one variable node
        store = kept_store()
        assert len(store) == 3
        atom_label(2, 1)
        assert kept_store() is None
        atom_label(2, 0)
        assert kept_store() is not None and kept_store() is not store

    def test_translation_bound_empties_the_table_on_its_third_entry(self, monkeypatch):
        monkeypatch.setattr(kripke, "TABLE_LIMIT", 2)
        both, either = And((Atom(0), Atom(1))), Or((Atom(0), Atom(1)))
        obs = fixed_observability(SetupKind.THIRST, 2)
        symbolic_label(obs, [], both)
        symbolic_label(obs, [], either)
        store = kept_store()
        table = store._translate_cache
        assert list(table) == [(obs.key, store.true, both), (obs.key, store.true, either)]
        symbolic_label(obs, [], Implies(Atom(0), Atom(1)))
        assert kept_store() is store and not table
        symbolic_label(obs, [], both)
        assert list(table) == [(obs.key, store.true, both)]

    def test_threads_get_distinct_stores(self):
        rng = SplitMix64(0x7E4D)
        problems = [random_problem(rng, 2 + rng.below(3)) for _ in range(60)]
        expected = [outcome(explicit_label, *p) for p in problems]
        stores, got = {}, {}

        def work(name):
            got[name] = [outcome(symbolic_label, *p) for p in problems]
            stores[name] = kept_store()  # holding it keeps its id unique

        names = on_threads_at_once(work)
        assert got == {name: expected for name in names}
        assert None not in stores.values()
        assert len({id(store) for store in stores.values()}) == len(names)
        assert kept_store() is None  # nothing leaked into this thread
        for store in stores.values():
            check_reduced(store)


class TestEvaluationTable:
    def test_threads_share_one_bounded_table(self):
        rng = SplitMix64(0x7AB1)
        problems = [random_problem(rng, 2 + rng.below(5)) for _ in range(60)]
        expected = [outcome(symbolic_label, *p) for p in problems]
        kripke._table.clear()
        got = {}

        def work(name):
            got[name] = [outcome(explicit_label, *p) for p in problems]

        names = on_threads_at_once(work)
        assert got == {name: expected for name in names}
        entries = dict(kripke._table)
        assert entries and len(entries) <= kripke.TABLE_LIMIT
        # the threads entered every evaluation this thread needs
        assert [outcome(explicit_label, *p) for p in problems] == expected
        assert kripke._table == entries


class TestTranslationTable:
    """The store's translation table changes no outcome."""

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_full_table_fresh_store_and_explicit_agree(self, seed):
        # the thread's store is kept across examples, so its table fills
        rng = SplitMix64(seed)
        n = 2 + rng.below(4)
        obs, anns, hyp = random_problem(rng, n)
        hyp = Announced(
            random_formula(rng, n, depth=2), Announced(random_formula(rng, n, depth=2), hyp)
        )
        expected = outcome(explicit_label, obs, anns, hyp)
        assert outcome(fresh_store_label, obs, anns, hyp) == expected
        assert outcome(symbolic_label, obs, anns, hyp) == expected
        entries = len(kept_store()._translate_cache)
        # once more: every translation is found, and none is entered
        assert outcome(symbolic_label, obs, anns, hyp) == expected
        assert len(kept_store()._translate_cache) == entries

    def test_an_index_error_enters_nothing_and_a_drawn_matrix_enters_nothing(self):
        hyp = And((Atom(0), Knows(1, Atom(3))))
        for _ in range(2):
            with pytest.raises(ValueError, match="p3 outside vocabulary of 3"):
                symbolic_label(fixed_observability(SetupKind.THIRST, 3), [], hyp)
            assert all(key[2] is not hyp for key in kept_store()._translate_cache)
        entries = dict(kept_store()._translate_cache)
        # thirst plus one reveal: not agent-symmetric, so not kept
        rows = [[i == j or (i, j) == (0, 1) for j in range(4)] for i in range(4)]
        drawn = ObservabilityMatrix.from_rows(rows)
        assert drawn.key is None
        assert symbolic_label(drawn, [], hyp) is explicit_label(drawn, [], hyp) is False
        assert kept_store()._translate_cache == entries
        obs = fixed_observability(SetupKind.THIRST, 4)
        assert symbolic_label(obs, [], hyp) is False
        assert (obs.key, kept_store().true, hyp) in kept_store()._translate_cache

    def test_equal_matrices_built_apart_share_entries(self):
        rng = SplitMix64(0x7AB1E)
        rows = tuple(tuple(rng.chance(0.5) for _ in range(3)) for _ in range(3))
        first, second = ObservabilityMatrix.from_rows(rows), ObservabilityMatrix(rows)
        assert first == second and first is not second and first.key == second.key
        problems = [random_problem(rng, 3)[1:] for _ in range(40)]
        labels = [outcome(symbolic_label, first, anns, hyp) for anns, hyp in problems]
        assert labels == [outcome(explicit_label, first, anns, hyp) for anns, hyp in problems]
        entries = dict(kept_store()._translate_cache)
        assert {key[0] for key in entries} == {first.key}
        # the second matrix finds every entry of the first and enters none
        assert [outcome(symbolic_label, second, anns, hyp) for anns, hyp in problems] == labels
        assert kept_store()._translate_cache == entries

    def test_equal_drawn_larger_matrices_give_the_same_labels(self):
        rng = SplitMix64(0x7AB1E)
        rows = [[rng.chance(0.5) for _ in range(4)] for _ in range(4)]
        first, second = ObservabilityMatrix.from_rows(rows), ObservabilityMatrix.from_rows(rows)
        assert first == second and first is not second and first.key is second.key is None
        problems = [random_problem(rng, 4)[1:] for _ in range(40)]
        labels = [outcome(symbolic_label, first, anns, hyp) for anns, hyp in problems]
        assert labels == [outcome(explicit_label, first, anns, hyp) for anns, hyp in problems]
        assert [outcome(symbolic_label, second, anns, hyp) for anns, hyp in problems] == labels
        assert not kept_store()._translate_cache

    def test_a_drawn_matrix_that_dies_leaves_nothing_for_the_next(self):
        # the next matrix often takes the dead one's memory, and so its id
        rng = SplitMix64(0xD1E)
        hyps = [KnowsWhether(a, Atom(b)) for a in range(4) for b in range(4)]
        for _ in range(100):
            obs = ObservabilityMatrix.from_rows(
                [[rng.chance(0.5) for _ in range(4)] for _ in range(4)]
            )
            assert [symbolic_label(obs, [], h) for h in hyps] == [
                explicit_label(obs, [], h) for h in hyps
            ]
            del obs


class TestNegationTables:
    """A negation enters either table as any compound does: only atoms pass by."""

    ANNOUNCEMENT = Not(And((Atom(0), Atom(1))))

    @pytest.fixture(autouse=True)
    def empty_table(self):
        empty_explicit_tables()
        yield
        empty_explicit_tables()

    def test_negations_of_an_atom_and_of_a_compound_enter_both_tables(self):
        obs = fixed_observability(SetupKind.THIRST, 3)
        for hyp in (Not(Atom(0)), Not(Or((Atom(0), Knows(1, Atom(2)))))):
            assert both_label(obs, [], hyp) is False
            assert (obs.key, 0b11111111, hyp) in kripke._table
            assert (obs.key, kept_store().true, hyp) in kept_store()._translate_cache

    def test_a_warm_label_makes_no_eval_or_step_call(self, monkeypatch):
        obs = fixed_observability(SetupKind.THIRST, 3)
        hyp = Not(KnowsWhether(0, Atom(1)))
        # what the interpreter enters over each algebra when called as a label's steps
        store = backends._thread.store = DdStore()
        law = announce_symbolic(store, obs, store.true, self.ANNOUNCEMENT)
        announce_symbolic(store, obs, law, hyp)
        live = announce(obs, build_initial_model(obs), self.ANNOUNCEMENT)
        announce(obs, live, hyp)
        entered = (*explicit_tables(), dict(store._translate_cache), dict(store._step_cache))
        assert [len(table) for table in entered] == [4, 2, 4, 2]
        empty_explicit_tables()
        store._translate_cache.clear()
        store._step_cache.clear()

        calls = count_interpreter_calls(monkeypatch)
        first = both_label(obs, [self.ANNOUNCEMENT], hyp)
        assert (*explicit_tables(), store._translate_cache, store._step_cache) == entered
        for made in calls.values():
            made.clear()
        assert both_label(obs, [self.ANNOUNCEMENT], hyp) is first
        assert not any(calls.values())
        assert (*explicit_tables(), store._translate_cache, store._step_cache) == entered
        # the translation table answers each negation itself in one call
        for _ in range(2):
            kripke._eval(store, obs, store.true, self.ANNOUNCEMENT)
            kripke._eval(store, obs, law, hyp)
        assert calls["symbolic", "_eval"] == [self.ANNOUNCEMENT, hyp] * 2

    @pytest.mark.parametrize("checker", [explicit_label, symbolic_label])
    def test_a_negation_that_raises_enters_nothing(self, checker):
        obs = fixed_observability(SetupKind.THIRST, 3)
        symbolic_label(obs, [], Atom(0))  # keeps a store on this thread
        for hyp in (Not(Atom(3)), Not(And((Atom(0), Not(Atom(3)))))):
            with pytest.raises(ValueError, match="p3 outside vocabulary of 3"):
                checker(obs, [self.ANNOUNCEMENT], hyp)
            entered = [key[2] for key in (*kripke._table, *kept_store()._translate_cache)]
            assert set(entered) <= {self.ANNOUNCEMENT, self.ANNOUNCEMENT.child}

    def test_negations_under_a_drawn_matrix_enter_nothing(self):
        # thirst plus one reveal: not agent-symmetric, so not kept
        rows = [[i == j or (i, j) == (0, 1) for j in range(4)] for i in range(4)]
        drawn = ObservabilityMatrix.from_rows(rows)
        assert drawn.key is None
        hyp = Not(Knows(0, Not(Atom(1))))
        expected = oracle_label(4, drawn.rows, [self.ANNOUNCEMENT], hyp)
        assert both_label(drawn, [self.ANNOUNCEMENT], hyp) is expected
        assert not kripke._table and not kept_store()._translate_cache


class TestStepTable:
    """Announcements and hypotheses share the kept store's step table."""

    def test_an_announcement_and_a_hypothesis_share_an_entry(self, monkeypatch):
        calls = count_interpreter_calls(monkeypatch)
        rng = SplitMix64(0x57E9)
        labels = set()
        for _ in range(40):
            obs, anns, hyp = random_problem(rng, 2 + rng.below(2))
            if not anns or oracle_label(obs.n, obs.rows, anns, hyp) is None:
                continue
            # the last announcement as the hypothesis, under the same law
            first, second = (anns, hyp), (anns[:-1], anns[-1])
            for problems in ((second, first), (first, second)):
                backends._thread.store = None
                for problem in problems:
                    for made in calls.values():
                        made.clear()
                    expected = oracle_label(obs.n, obs.rows, *problem)
                    assert symbolic_label(obs, *problem) is expected
                    labels.add(expected)
            # announced in the first problem, looked up as the second's hypothesis
            assert not any(calls.values())
        assert labels == {True, False}

    def test_a_warm_pass_over_drawn_problems_translates_nothing(self, monkeypatch):
        problems = [
            (inst.obs, list(inst.announcement_formulas()), inst.hypothesis.formula)
            for inst in iter_problems(GenConfig(seed=7), 1000)
        ]
        expected = [explicit_label(*problem) for problem in problems]
        calls, ite = count_interpreter_calls(monkeypatch), DdStore.ite
        ites = []

        def counting(*args):
            ites.append(args)
            return ite(*args)

        monkeypatch.setattr(DdStore, "ite", counting)
        passes = []
        for _ in range(2):
            calls["symbolic", "_eval"].clear()
            ites.clear()
            assert [symbolic_label(*problem) for problem in problems] == expected
            passes.append((len(calls["symbolic", "_eval"]), len(ites)))
        assert passes[0][0] > 0 and passes[0][1] > 0
        assert passes[1] == (0, 0)


def steps_taken(obs, anns, hyp):
    """The formulas a label folds: the announcements up to the first that the
    oracle finds contradictory, else every announcement and the hypothesis."""
    for k in range(len(anns)):
        if oracle_label(obs.n, obs.rows, anns[: k + 1], hyp) is None:
            return anns[: k + 1]
    return [*anns, hyp]


class TestLabelProbe:
    """A label looks each step up under its interpreter's own key and enters
    the interpreter only on a miss."""

    CONTRADICTION = And((Atom(0), Not(Atom(0))))

    @pytest.fixture(autouse=True)
    def empty_table(self):
        empty_explicit_tables()
        yield
        empty_explicit_tables()

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_interpreter_calls(monkeypatch)

    def test_cold_and_warm_labels_agree_with_the_oracle(self, calls):
        rng = SplitMix64(0xF01D)
        seen = set()
        for _ in range(300):
            n = 2 + rng.below(4)
            if n >= 4 and rng.chance(0.5):
                on, off = rng.chance(0.5), rng.chance(0.5)
                rows = [[on if i == j else off for j in range(n)] for i in range(n)]
            else:
                rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
            obs = ObservabilityMatrix.from_rows(rows)
            anns = [random_formula(rng, n, depth=2) for _ in range(rng.below(3))]
            if rng.chance(0.5):  # shrink the live set before the epistemic ones
                anns.insert(0, random_boolean_formula(rng, n, 2))
            if rng.chance(0.15):
                anns.insert(rng.below(len(anns) + 1), self.CONTRADICTION)
            hyp = random_formula(rng, n, depth=2)
            expected = oracle_label(n, obs.rows, anns, hyp)
            empty_explicit_tables()
            backends._thread.store = None
            cold = [outcome(checker, obs, anns, hyp) for checker in (explicit_label, symbolic_label)]
            for made in calls.values():
                made.clear()
            warm = [outcome(checker, obs, anns, hyp) for checker in (explicit_label, symbolic_label)]
            assert cold == warm == [expected, expected], (obs.rows, anns, hyp)
            steps = steps_taken(obs, anns, hyp)
            if n <= 3:  # a step table enters atoms too
                assert calls["explicit", "_step"] == calls["explicit", "_eval"] == []
            else:
                assert calls["explicit", "_step"] == steps
                assert not kripke._table and not kripke._steps
            store = kept_store()
            if obs.key is None:
                assert calls["symbolic", "_step"] == steps and not store._step_cache
            else:
                assert calls["symbolic", "_step"] == calls["symbolic", "_eval"] == []
            seen.add((n <= 3, obs.key is not None, expected))
        # tabled on both backends, agent-symmetric (symbolic only), drawn (neither)
        assert seen == {(small, keyed, label) for small, keyed in ((True, True), (False, True),
                        (False, False)) for label in (True, False, None)}

    @pytest.mark.parametrize("checker", [explicit_label, symbolic_label])
    def test_a_contradictory_step_found_in_the_table_raises_as_a_miss(self, checker, calls):
        obs = fixed_observability(SetupKind.THIRST, 3)
        anns = [Or((Atom(0), Atom(1))), self.CONTRADICTION, Knows(0, Atom(0))]
        for warm in (False, True):
            for made in calls.values():
                made.clear()
            with pytest.raises(ContradictoryPremise) as raised:
                checker(obs, anns, Atom(2))
            assert str(raised.value) == "announcement 2 eliminates every world"
            assert (not any(calls.values())) is warm


class TestSharedMatrices:
    def test_threads_building_equal_new_rows_get_one_key(self, monkeypatch):
        # an empty registry, so the rows are new to every thread; the matrices
        # made here label nothing, so no table entry outlives them
        monkeypatch.setattr(kripke, "_SHARED", {})
        rows = ((True, False, True), (False, True, True), (True, True, False))
        made = {}

        def work(name):
            if name in "ab":
                made[name] = ObservabilityMatrix.from_rows([list(row) for row in rows])
            else:
                made[name] = ObservabilityMatrix(rows)

        names = on_threads_at_once(work)
        kept = kripke._SHARED[rows]
        assert len(kripke._SHARED) == 1
        assert {made[name].key for name in names} == {id(kept)}
        assert made["a"] is made["b"] is kept


class TestCapacityRetry:
    @pytest.fixture
    def made(self, monkeypatch):
        """Cap stores at 6 nodes (two terminals and four internal nodes) and
        count the stores the backend makes."""
        monkeypatch.setenv("EPISTLE_NODE_LIMIT", "6")
        count = [0]

        class CountedStore(DdStore):
            def __init__(self):
                count[0] += 1
                super().__init__()

        monkeypatch.setattr(backends, "DdStore", CountedStore)
        return count

    def test_label_that_fits_an_empty_store_succeeds_on_a_full_one(self, made):
        atom_label(4, 0)
        atom_label(4, 1)
        full = kept_store()
        assert len(full) == 4 and made[0] == 1
        # p2 & p3 needs three nodes: too many for the kept store, not for a new one
        assert atom_label(4, 2, 3) is False
        assert made[0] == 2
        assert kept_store() is not full and len(kept_store()) == 5

    def test_label_too_big_for_an_empty_store_still_raises(self, made):
        with pytest.raises(StoreCapacity):
            atom_label(4, 0, 1, 2, 3)
        assert made[0] == 1  # a fresh store is not retried
        assert kept_store() is None
        atom_label(4, 0)
        with pytest.raises(StoreCapacity):
            atom_label(4, 0, 1, 2, 3)
        assert made[0] == 3  # the kept store, then one fresh store
        assert kept_store() is None
        assert atom_label(4, 1) is False
        assert len(kept_store()) == 3

    def test_kept_store_left_empty_is_not_retried(self, made):
        with pytest.raises(ValueError, match="outside vocabulary"):
            atom_label(4, 9)  # fails before making a node
        assert len(kept_store()) == 2 and made[0] == 1
        with pytest.raises(StoreCapacity):
            atom_label(4, 0, 1, 2, 3)
        assert made[0] == 1


def _chain(anns, hyp):
    """``[!a1] … [!ak] hyp``: the problem as one formula."""
    for a in reversed(anns):
        hyp = Announced(a, hyp)
    return hyp


class TestAnnouncementElimination:
    """Both backends against ``reduced_worlds`` on the announcement-free
    rewriting of whole announcement chains."""

    def test_puzzle_rounds_at_six_agents(self):
        n = 6
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, n)
        existential = Or(tuple(Atom(i) for i in range(n)))
        ignorance = And(
            tuple(Not(Or((Knows(i, Atom(i)), Knows(i, Not(Atom(i)))))) for i in range(n))
        )
        everyone_knows = And(tuple(KnowsWhether(i, Atom(i)) for i in range(n)))
        everywhere, actual = list(range(1 << n)), (1 << n) - 1
        full = build_initial_model(obs)
        live = announce(obs, full, existential)
        store = DdStore()
        law = announce_symbolic(store, obs, store.true, existential)
        for rounds in range(n):
            chain = _chain([existential] + [ignorance] * rounds, everyone_knows)
            reduced = reduced_worlds(everywhere, obs.rows, reduce_announcements(chain))
            # the chain holds outside the surviving worlds, and inside them
            # wherever everyone knows
            explicit = worlds((full ^ live) | announce(obs, live, everyone_knows))
            knows = translate(store, obs, law, everyone_knows)
            symbolic = {w for w in everywhere if not store.eval(law, w) or store.eval(knows, w)}
            assert reduced == explicit == symbolic, rounds
            assert (actual in reduced) == (rounds == n - 1)
            live = announce(obs, live, ignorance)
            law = announce_symbolic(store, obs, law, ignorance)

    def test_generated_problems_at_three_agents(self):
        everywhere = list(range(8))
        falsum = And((Atom(0), Not(Atom(0))))
        labels = set()
        for instance in iter_problems(GenConfig(seed=5, n_agents_choices=(3,)), 200):
            obs, anns = instance.obs, list(instance.ann_formulas)
            hyp = instance.hyp_formula
            holds = reduced_worlds(everywhere, obs.rows, reduce_announcements(_chain(anns, hyp)))
            valid = holds == set(everywhere)
            assert valid == explicit_label(obs, anns, hyp) == symbolic_label(obs, anns, hyp)
            labels.add(valid)
            # the premise is consistent: the chain before a falsehood fails somewhere
            refuted = reduced_worlds(everywhere, obs.rows, reduce_announcements(_chain(anns, falsum)))
            assert refuted != set(everywhere)
        assert labels == {True, False}


class TestDefaultProblemSpace:
    """Every label of the default configuration's problem space but the n=3
    explicit setup's (``support.default_problem_space``), not a sample."""

    def test_the_space_holds_every_draw_of_the_default_stream(self):
        space = {(n, rows): (states, hyps) for n, rows, states, hyps in default_problem_space()}
        assert sum(len(states) * len(hyps) for states, hyps in space.values()) == 310_896
        covered = 0
        for instance in iter_problems(GenConfig(seed=7), 2000):
            found = space.get((instance.n_agents, instance.obs.rows))
            if found is None:
                assert (instance.setup, instance.n_agents) == (SetupKind.EXPLICIT, 3)
                continue
            states, hyps = found
            live = build_initial_model(instance.obs)
            for a in instance.ann_formulas:
                live = announce(instance.obs, live, a)
            assert live in states and instance.hyp_formula in hyps
            covered += 1
        assert covered > 1000

    def test_both_backends_agree_on_every_label(self):
        for n, rows, states, hyps in default_problem_space():
            assert backend_disagreements(n, rows, states, hyps) == 0, rows
