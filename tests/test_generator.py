import random
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from epistle import generator, kripke
from epistle.backends import explicit_label, symbolic_label
from epistle.dsl import parse_formula, print_formula
from epistle.errors import GenerationStall, ParseError
from epistle.formula import (
    Atom,
    Knows,
    KnowsWhether,
    Not,
    Or,
    Quantifier,
)
from epistle.generator import (
    GenConfig,
    ProblemInstance,
    Rejected,
    generate_balanced,
    iter_problems,
    make_problem,
    sample_announcement,
    sample_hypothesis,
    sample_observability,
)
from epistle.kripke import ObservabilityMatrix, build_initial_model, is_contradictory
from epistle.names import MAX_NAMES, sample_names
from epistle.records import record_from_instance
from epistle.rng import SplitMix64, split_seed, substreams
from epistle.setups import ALL_SETUPS, SetupKind, fixed_observability
from epistle.statements import BeliefLayer, ExpressionSpec, StatementSpec

from reference import first_difference, instance_fields, reference_dataset, reference_draw
from support import ScalarSplitMix64, dedup_key, modal_depth


_FALSE = 2**64 - 1  # a False coin at every p < 1; rejected below every bound but powers of two


def _outputs(values) -> list[int]:
    """The outputs that decode to ``values``: an index ``v`` is the output
    ``v``, a coin is 0 for True and ``2**64 - 1`` for False."""
    return [0 if v is True else _FALSE if v is False else v for v in values]


def scripted(outputs) -> SplitMix64:
    """A generator whose next outputs are ``outputs``, then its seed 0 stream."""
    rng = SplitMix64(0)
    rng.pending = outputs[::-1]  # ``pop`` takes the last first
    return rng


class ScriptedScalar(ScalarSplitMix64):
    """The scalar generator whose next outputs are ``outputs``, then its seed 0
    stream; its ``below`` and ``chance`` methods decode them."""

    def __init__(self, outputs):
        super().__init__(0)
        self.script = list(outputs)

    def next_u64(self):
        return self.script.pop(0) if self.script else super().next_u64()


class TestSampleObservability:
    def test_fixed_matrices(self):
        # mud is seen by everyone but its bearer, a mirror shows everyone
        # everything, and thirst is seen only by its bearer; none is drawn
        rng = SplitMix64(1)
        assert sample_observability(SetupKind.FOREHEAD_MUD, 3, rng).rows == (
            (False, True, True),
            (True, False, True),
            (True, True, False),
        )
        assert sample_observability(SetupKind.FOREHEAD_MUD_MIRROR, 2, rng).rows == (
            (True, True),
            (True, True),
        )
        assert sample_observability(SetupKind.THIRST, 2, rng).rows == (
            (True, False),
            (False, True),
        )
        assert rng.next_u64() == SplitMix64(1).next_u64()

    def test_explicit_mean_entry_sum(self):
        rng = SplitMix64(0x0B5)
        n = 3
        total = 0
        draws = 10_000
        for _ in range(draws):
            matrix = sample_observability(SetupKind.EXPLICIT, n, rng)
            total += sum(sum(row) for row in matrix.rows)
        mean = total / draws
        assert abs(mean - n) <= 0.1

    def test_small_explicit_matrices_are_built_once(self):
        first = sample_observability(SetupKind.EXPLICIT, 3, SplitMix64(5))
        again = sample_observability(SetupKind.EXPLICIT, 3, SplitMix64(5))
        assert again is first
        coins = SplitMix64(5).coins(1 / 3, 9)
        assert first == ObservabilityMatrix.from_rows([coins[0:3], coins[3:6], coins[6:9]])

    def test_drawn_matrices_are_kept_up_to_three_agents(self):
        cfg = GenConfig(
            seed=3, n_agents_choices=(3, 4, 8), setups=(SetupKind.EXPLICIT,), per_setup_count=20
        )
        instances = generate_balanced(cfg)
        assert {i.n_agents for i in instances} == {3, 4, 8}
        for i in instances:
            if i.n_agents == 3:
                assert kripke._SHARED[i.obs.rows] is i.obs and i.obs.key == id(i.obs)
            else:  # kept only if agent-symmetric: one value on, one off the diagonal
                rows = i.obs.rows
                diagonal = {row[k] for k, row in enumerate(rows)}
                off = {b for k, row in enumerate(rows) for j, b in enumerate(row) if j != k}
                symmetric = len(diagonal) == len(off) == 1
                assert (i.obs.key is not None) is symmetric is (rows in kripke._SHARED)


class TestSampleStatement:
    """The statement draw, through the bare-statement branch of
    ``sample_announcement`` (its first coin)."""

    def test_forced_single_agent(self):
        rng = scripted(_outputs([True, 1, False]))
        formula, spec = sample_announcement(rng, 3)
        assert rng.pending == []
        assert formula is Atom(1) and spec.layers == ()
        assert spec.statement.subject == 1 and spec.statement.negated is False

    def test_forced_nobody_with_negation_collapses(self):
        # "nobody" over a negated predicate double-negates back to the atoms
        from epistle.formula import And

        rng = scripted(_outputs([True, 4, True]))
        formula, spec = sample_announcement(rng, 2)
        assert rng.pending == []
        assert spec.statement.subject is Quantifier.NOBODY and spec.statement.negated
        assert formula is And((Atom(0), Atom(1)))

    def test_subjects_uniform_chi_square(self):
        # 6 categories for n=3; chi-square df=5 critical value at p=0.01
        rng = SplitMix64(0xC51)
        n = 3
        draws = 10_000
        counts = Counter()
        for _ in range(draws):
            counts[sample_announcement(rng, n)[1].statement.subject] += 1
        assert len(counts) == n + 3
        expected = draws / (n + 3)
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        assert statistic < 15.086


class TestSampleAnnouncement:
    def test_forced_negated_whether_belief(self):
        rng = scripted(_outputs([False, 2, True, True, 0, False]))
        formula, spec = sample_announcement(rng, 3)
        assert rng.pending == []
        assert formula == Not(KnowsWhether(2, Atom(0)))
        layer = spec.layers[0]
        assert layer.knower == 2 and layer.whether and layer.negated

    def test_knowledge_negation_rate(self):
        rng = SplitMix64(0x80)
        negated_count = 0
        knowledge_draws = 0
        while knowledge_draws < 10_000:
            _, spec = sample_announcement(rng, 3)
            if spec.layers:
                knowledge_draws += 1
                negated_count += spec.layers[0].negated
        rate = negated_count / knowledge_draws
        assert abs(rate - 0.80) <= 0.02

    def test_depth_at_most_one(self):
        rng = SplitMix64(0xD1)
        for _ in range(2000):
            formula, spec = sample_announcement(rng, 3)
            assert modal_depth(formula) <= 1
            assert spec.order <= 1


class TestSampleHypothesis:
    def test_forced_first_order(self):
        rng = scripted(_outputs([0, 0, False, False, 0, False]))
        formula, spec = sample_hypothesis(rng, 2, 2)
        assert rng.pending == []
        assert formula == Knows(0, Atom(0))
        assert spec.order == 1

    def test_negated_whether_shape(self):
        # "<X> cannot know whether <Y> ..." is a negated knows-whether
        rng = scripted(_outputs([0, 0, True, True, 1, False]))
        formula, spec = sample_hypothesis(rng, 2, 1)
        assert rng.pending == []
        assert formula == Not(KnowsWhether(0, Atom(1)))

    def test_order_uniform_and_depth_matches(self):
        rng = SplitMix64(0x0DD)
        counts = Counter()
        for _ in range(4000):
            formula, spec = sample_hypothesis(rng, 3, 2)
            assert modal_depth(formula) == spec.order
            counts[spec.order] += 1
        assert set(counts) == {1, 2}
        assert abs(counts[1] - counts[2]) < 300


class TestMakeProblem:
    def test_same_seed_same_instance(self):
        cfg = GenConfig(seed=99)
        first = make_problem(SplitMix64(split_seed(cfg.seed, 5)), cfg, 5)
        second = make_problem(SplitMix64(split_seed(cfg.seed, 5)), cfg, 5)
        assert first == second

    def test_uninformative_whether_announcement_instance(self):
        # three agents, mud on foreheads; announcing that one agent knows
        # whether someone is muddy adds nothing, so that agent still cannot
        # conclude their own state
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, 3)
        someone = Or((Atom(0), Atom(1), Atom(2)))
        anns = [someone, KnowsWhether(0, someone)]
        hyp = Knows(0, Atom(0))
        assert explicit_label(obs, anns, hyp) is False

    def test_rejected_is_a_value(self):
        cfg = GenConfig(seed=3)
        rejected = None
        for i in range(500):
            result = make_problem(SplitMix64(split_seed(cfg.seed, i)), cfg, i)
            if isinstance(result, Rejected):
                rejected = result
                break
        assert rejected is not None
        assert rejected.reason == "contradictory"

    def test_instance_contract(self):
        cfg = GenConfig(seed=17)
        for instance in iter_problems(cfg, 50):
            assert isinstance(instance, ProblemInstance)
            anns = instance.announcement_formulas()
            # first announcement is the fixed existential
            assert anns[0] == Or(tuple(Atom(i) for i in range(instance.n_agents)))
            assert all(modal_depth(a) <= 1 for a in anns)
            assert 1 <= modal_depth(instance.hypothesis.formula) <= cfg.max_order
            assert len(anns) <= instance.n_agents + 1
            live = build_initial_model(instance.obs)
            assert not is_contradictory(instance.obs, live, list(anns))
            assert len(set(instance.names)) == instance.n_agents

    def test_iter_problems_yields_rendered_instances(self):
        cfg = GenConfig(seed=17)
        for instance in iter_problems(cfg, 50):
            index = instance.draw_index
            assert instance == make_problem(SplitMix64(split_seed(cfg.seed, index)), cfg, index)
            assert all(clause for _, clause in instance.announcements)
            assert instance.hypothesis.text.endswith(".")


class TestGenerateBalanced:
    def test_smoke_run_is_balanced(self):
        cfg = GenConfig(seed=5, per_setup_count=4)
        instances = generate_balanced(cfg)
        assert len(instances) == 16
        per_setup = Counter((i.setup, i.label) for i in instances)
        for setup in SetupKind:
            assert per_setup[(setup, True)] == 2
            assert per_setup[(setup, False)] == 2

    def test_only_kept_draws_are_rendered(self, monkeypatch):
        calls = Counter()
        for name in ("announcement_clause", "render_hypothesis"):

            def counting(*args, _name=name, _render=getattr(generator, name)):
                calls[_name] += 1
                return _render(*args)

            monkeypatch.setattr(generator, name, counting)
        instances = generate_balanced(GenConfig(seed=7))
        # the 2,160 accepted draws, the 1,600 kept ones included, hold no text
        assert not calls
        for instance in instances:
            record_from_instance(instance)
        # each of the 1,600 written records renders its text once
        rendered = dict(calls)
        assert rendered["render_hypothesis"] == len(instances) == 1600
        assert rendered["announcement_clause"] == sum(len(i.announcements) for i in instances)

    def test_rerun_is_identical(self):
        cfg = GenConfig(seed=5, per_setup_count=4)
        assert generate_balanced(cfg) == generate_balanced(cfg)

    def test_no_duplicates(self):
        cfg = GenConfig(seed=11, per_setup_count=10)
        instances = generate_balanced(cfg)
        keys = [dedup_key(i) for i in instances]
        assert len(keys) == len(set(keys))

    def test_labels_verify_under_both_backends(self):
        cfg = GenConfig(seed=23, per_setup_count=6)
        for instance in generate_balanced(cfg):
            anns = list(instance.announcement_formulas())
            hyp = instance.hypothesis.formula
            assert explicit_label(instance.obs, anns, hyp) == instance.label
            assert symbolic_label(instance.obs, anns, hyp) == instance.label

    def test_setup_restriction(self):
        cfg = GenConfig(seed=2, per_setup_count=4, setups=(SetupKind.THIRST,))
        instances = generate_balanced(cfg)
        assert len(instances) == 4
        assert all(i.setup is SetupKind.THIRST for i in instances)

    def test_stall_raises(self, monkeypatch):
        monkeypatch.setattr(generator, "MAX_DRAWS_PER_BUCKET", 20)
        cfg = GenConfig(seed=1, per_setup_count=400)
        stall = r"setup forehead-mud: \d+ True / \d+ False after 20 draws \(need 200 of each\)"
        with pytest.raises(GenerationStall, match=stall):
            generate_balanced(cfg)

    def test_iter_problems_stalls_when_draws_run_out(self, monkeypatch):
        monkeypatch.setattr(generator, "MAX_DRAWS_PER_BUCKET", 30)
        cfg = GenConfig(seed=1)
        accepted = sum(
            not isinstance(make_problem(SplitMix64(split_seed(1, d)), cfg, d), Rejected)
            for d in range(30)
        )
        assert 0 < accepted < 30
        assert len(list(iter_problems(cfg, accepted))) == accepted
        with pytest.raises(GenerationStall, match="draw budget of 30 spent"):
            list(iter_problems(cfg, accepted + 1))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be between 0 and 2\*\*64 - 1"):
            GenConfig(seed=seed)

    def test_config_validation(self):
        assert GenConfig(seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError):
            GenConfig(per_setup_count=5)
        with pytest.raises(ValueError):
            GenConfig(n_agents_choices=(1,))
        with pytest.raises(ValueError):
            GenConfig(max_order=0)

    def test_agent_count_stops_where_the_name_pool_stops(self):
        assert len(set(sample_names(SplitMix64(3), MAX_NAMES))) == MAX_NAMES
        assert GenConfig(n_agents_choices=(2, MAX_NAMES)).n_agents_choices == (2, MAX_NAMES)
        with pytest.raises(ValueError, match=f"names at most {MAX_NAMES} agents"):
            GenConfig(n_agents_choices=(2, MAX_NAMES + 1))
        with pytest.raises(ValueError, match="cannot draw"):
            sample_names(SplitMix64(3), MAX_NAMES + 1)

    def test_max_order_stops_where_the_hypothesis_text_stops_parsing(self):
        def deepest(order):
            # every layer negated, around a negated "not everyone" statement
            layers = (BeliefLayer(0, True, True),) * order
            spec = ExpressionSpec(layers, StatementSpec(Quantifier.NOT_EVERYONE, True))
            return print_formula(spec.to_formula(2))

        assert GenConfig(max_order=48).max_order == 48
        parse_formula(deepest(48), 2)
        with pytest.raises(ValueError, match="between 1 and 48"):
            GenConfig(max_order=49)
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse_formula(deepest(49), 2)


def _accept(obs, anns, hyp):
    """A checker that labels every draw True, for tests of the draw alone."""
    return True


def _random_config(rnd: random.Random, agents: range, orders: range, per_setup: int) -> GenConfig:
    return GenConfig(
        seed=rnd.getrandbits(64),
        setups=tuple(rnd.sample(ALL_SETUPS, rnd.randint(1, len(ALL_SETUPS)))),
        n_agents_choices=tuple(rnd.sample(agents, rnd.randint(1, 3))),
        max_order=rnd.choice(orders),
        per_setup_count=2 * rnd.randint(1, per_setup // 2),
    )


class TestReferenceGenerator:
    """``generate_balanced`` against ``tests/reference.py``, field by field;
    a failure names the first (setup, draw index, field) that differs."""

    def test_seed_7(self):
        cfg = GenConfig(seed=7)
        got = [instance_fields(i) for i in generate_balanced(cfg)]
        assert len(got) == 1600
        difference = first_difference(got, reference_dataset(cfg))
        assert difference is None, f"first (setup, draw index, field) that differs: {difference}"

    def test_random_configurations(self):
        # the oracle's memo keeps n 2-6 and order 1-4 quick; the test below
        # draws at larger ones
        rnd = random.Random(0xC0FFEE)
        for _ in range(60):
            cfg = _random_config(rnd, range(2, 7), range(1, 5), per_setup=6)
            got = [instance_fields(i) for i in generate_balanced(cfg)]
            difference = first_difference(got, reference_dataset(cfg))
            assert difference is None, f"{cfg}: (setup, draw index, field) {difference} differs"

    @pytest.mark.parametrize("config_seed", range(6))
    def test_unlabeled_draws_at_wide_configurations(self, config_seed):
        """The draw path alone, at agent counts and orders too large to
        label with the oracle."""
        cfg = _random_config(random.Random(config_seed), range(2, 41), range(1, 9), per_setup=2)
        master = ScalarSplitMix64(cfg.seed)
        for index, rng in zip(range(40), substreams(cfg.seed)):
            want = reference_draw(ScalarSplitMix64(master.next_u64()), cfg.setups,
                                  cfg.n_agents_choices, cfg.max_order)
            got = instance_fields(make_problem(rng, cfg, index, _accept))
            assert {field: got[field] for field in want} == want, (cfg, index)


# One draw of ``_DECODE_CFG`` at n=6, as (decoded position, value) pairs in
# draw order, coins unnamed.  No bound it draws an index below is a power of
# two, so the output ``2**64 - 1`` is at or above ``LIMITS[bound]`` and
# rejected wherever an index is drawn.
_DECODE_CFG = GenConfig(
    setups=(SetupKind.FOREHEAD_MUD, SetupKind.FOREHEAD_MUD_MIRROR, SetupKind.THIRST),
    n_agents_choices=(2, 3, 6),
    max_order=3,
)
_DECODE_DRAW = (
    ("setup", 1), ("agent count", 2),
    (None, True), *(("name", v) for v in (5, 7, 0, 98, 3, 2)),
    ("announcement count", 2),
    (None, False), ("layer knower", 4), (None, True), (None, False),  # a belief
    ("statement subject", 7), (None, True),
    (None, True), ("statement subject", 8), (None, False),  # a bare statement
    ("hypothesis order", 2),
    ("layer knower", 5), (None, False), (None, True),
    ("layer knower", 0), (None, True), (None, True),
    ("layer knower", 3), (None, False), (None, False),
    ("statement subject", 6), (None, True),
)


@pytest.mark.parametrize(
    "at",
    [i for i, (position, _) in enumerate(_DECODE_DRAW) if position],
    ids=lambda i: f"{i}-{_DECODE_DRAW[i][0]}",
)
def test_rejected_output_at_each_decoded_position(at):
    """A rejected output before any decoded index leaves the draw as it
    was, and the draw is the one the scalar generator's methods decode."""
    values = [value for _, value in _DECODE_DRAW]
    outputs = _outputs(values[:at]) + [_FALSE] + _outputs(values[at:])
    base = instance_fields(make_problem(scripted(_outputs(values)), _DECODE_CFG, 0, _accept))
    rng = scripted(outputs)
    got = instance_fields(make_problem(rng, _DECODE_CFG, 0, _accept))
    assert rng.pending == []
    assert got == base and base["n_agents"] == 6 and base["order"] == 3
    want = reference_draw(ScriptedScalar(outputs), _DECODE_CFG.setups,
                          _DECODE_CFG.n_agents_choices, _DECODE_CFG.max_order)
    assert {field: got[field] for field in want} == want


@pytest.mark.parametrize(
    "value, field",
    [
        (ObservabilityMatrix.from_rows(((False, True), (True, False))), "rows"),
        (GenConfig(), "seed"),
        (ExpressionSpec((), StatementSpec(0)), "layers"),
        (StatementSpec(0), "negated"),
        (BeliefLayer(0, True), "whether"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_shared_values_stay_frozen(value, field):
    """A matrix is shared through kripke's ``_SHARED`` table, specs through
    ``_spec_tables`` and ``_expression``'s cache, and a config is validated
    once in ``__post_init__``; assigning a field of any of them raises."""
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, getattr(value, field))
