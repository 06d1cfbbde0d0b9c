"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from collections import Counter

from epistle.backends import both_label, explicit_label, symbolic_label
from epistle.bdd import DdStore
from epistle.dsl import parse_formula
from epistle.formula import (
    Announced,
    Atom,
    Knows,
    KnowsWhether,
    Not,
    conj,
    disj,
)
from epistle.generator import (
    GenConfig,
    generate_balanced,
    iter_problems,
    sample_announcement,
    sample_observability,
)
from epistle.kripke import (
    ObservabilityMatrix,
    announce,
    build_initial_model,
    evaluate,
    is_contradictory,
    label,
)
from epistle.records import record_from_instance, write_jsonl
from epistle.rng import SplitMix64
from epistle.setups import SetupKind, fixed_observability
from epistle.symbolic import (
    announce_symbolic,
    label_symbolic,
    translate,
)

from support import dedup_key, oracle_label, random_formula, reduce_announcements, worlds


def _report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def _muddy_formulas(n):
    existential = disj(Atom(i) for i in range(n))
    ignorance = conj(Not(KnowsWhether(i, Atom(i))) for i in range(n))
    everyone = conj(KnowsWhether(i, Atom(i)) for i in range(n))
    return existential, ignorance, everyone


def test_criterion_1_muddy_children_golden():
    """Two muddy children: not knowing after "someone is muddy", knowing
    after the joint "we don't know"; both backends, under a millisecond."""
    existential = parse_formula("p0 | p1", 2)
    ignorance = parse_formula("~Kw[0]p0 & ~Kw[1]p1", 2)
    hyp = parse_formula("Kw[0]p0 & Kw[1]p1", 2)
    obs = fixed_observability(SetupKind.FOREHEAD_MUD, 2)

    live = build_initial_model(obs)

    def explicit_pair():
        return (
            label(obs, live, [existential], hyp),
            label(obs, live, [existential, ignorance], hyp),
        )

    def symbolic_pair():
        store = DdStore()
        return (
            label_symbolic(store, obs, store.true, [existential], hyp),
            label_symbolic(store, obs, store.true, [existential, ignorance], hyp),
        )

    assert explicit_pair() == (False, True)
    assert symbolic_pair() == (False, True)

    for pair in (explicit_pair, symbolic_pair):
        best = min(_timed(pair) for _ in range(3))
        assert best < 0.001, f"{pair.__name__} took {best * 1000:.3f} ms"
    _report("1 muddy-children golden test (both backends, < 1 ms)")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_generalized_muddy_children():
    """All-muddy world: everyone learns their own status exactly when the
    ignorance rounds reach n-1; explicit to n=6, symbolic to n=16 in < 5 s."""
    for n in range(2, 7):
        existential, ignorance, everyone = _muddy_formulas(n)
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, n)
        live = announce(obs, build_initial_model(obs), existential)
        for k in range(n):
            resolved = all(evaluate(obs, live, w, everyone) for w in worlds(live))
            assert resolved is (k >= n - 1), f"explicit n={n} k={k}"
            if k < n - 1:
                live = announce(obs, live, ignorance)
        # one round beyond resolution contradicts; the announcement-prefixed
        # reading is then vacuously true, preserving the "iff k >= n-1" shape
        full = build_initial_model(obs)
        too_far = [existential] + [ignorance] * n
        assert is_contradictory(obs, full, too_far)
        if n <= 4:
            chain = everyone
            for a in reversed(too_far):
                chain = Announced(a, chain)
            assert all(evaluate(obs, full, w, chain) for w in worlds(full))

    start = time.perf_counter()
    for n in range(2, 17):
        existential, ignorance, everyone = _muddy_formulas(n)
        store = DdStore()
        obs = fixed_observability(SetupKind.FOREHEAD_MUD, n)
        law = announce_symbolic(store, obs, store.true, existential)
        for k in range(n):
            resolved = (
                store.implies(law, translate(store, obs, law, everyone)) is store.true
            )
            assert resolved is (k >= n - 1), f"symbolic n={n} k={k}"
            if k < n - 1:
                law = announce_symbolic(store, obs, law, ignorance)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"symbolic sweep took {elapsed:.2f} s"
    _report(f"2 generalized muddy children (n=2..6 explicit, n=2..16 symbolic in {elapsed:.2f} s)")


def test_criterion_3_backend_equivalence_5000():
    """5,000 sampled problems labeled identically by both backends, and every
    draw before them, contradictory ones included, given the same outcome."""
    cfg = GenConfig(seed=2024)
    start = time.perf_counter()
    # both_label raises BackendMismatch on any difference of outcome
    instances = list(iter_problems(cfg, 5000, both_label))
    elapsed = time.perf_counter() - start
    assert len(instances) == 5000
    assert elapsed < 300.0, f"cross-validation took {elapsed:.1f} s"
    draws = instances[-1].draw_index + 1
    _report(
        f"3 backend equivalence on {draws} draws, 5000 accepted "
        f"({elapsed:.1f} s, 0 mismatches)"
    )


def test_criterion_4_announcement_reduction_oracle():
    """Announcement elimination preserves truth world-by-world: 1,000 random
    formulas (modal depth <= 3, <= 2 announcements) on every fixed matrix."""
    rng = SplitMix64(0x9900)
    matrices = {
        n: (
            fixed_observability(SetupKind.FOREHEAD_MUD, n),
            fixed_observability(SetupKind.FOREHEAD_MUD_MIRROR, n),
            fixed_observability(SetupKind.THIRST, n),
        )
        for n in (2, 3)
    }
    for i in range(1000):
        n = 2 + (i % 2)
        f = random_formula(rng, n, depth=3, modal_budget=3, announce_budget=2)
        g = reduce_announcements(f)
        for matrix in matrices[n]:
            live = build_initial_model(matrix)
            for w in worlds(live):
                assert evaluate(matrix, live, w, f) == evaluate(matrix, live, w, g)
    _report("4 announcement-reduction oracle (1000 formulas, all fixed matrices)")


def test_criterion_5_s5_axiom_suite():
    """Factivity and both introspection axioms valid at every live world for
    1,000 random model/formula pairs."""
    rng = SplitMix64(0x5055)
    for _ in range(1000):
        n = 2 + rng.below(2)
        rows = [[rng.chance(0.5) for _ in range(n)] for _ in range(n)]
        obs = ObservabilityMatrix.from_rows(rows)
        live = build_initial_model(obs)
        phi = random_formula(rng, n, depth=2, announce_budget=0)
        a = rng.below(n)
        known = Knows(a, phi)
        for premise, conclusion in (
            (known, phi),  # factivity
            (known, Knows(a, known)),  # positive introspection
            (Not(known), Knows(a, Not(known))),  # negative introspection
        ):
            for w in worlds(live):
                if evaluate(obs, live, w, premise):
                    assert evaluate(obs, live, w, conclusion)
    _report("5 S5 axioms T/4/5 on 1000 random pairs")


def test_criterion_6_dataset_contract(tmp_path):
    """Default-size run: 400 per setup, perfectly balanced, no contradictions,
    no duplicates, labels verified by both backends, byte-identical reruns."""
    cfg = GenConfig(seed=7)
    instances = generate_balanced(cfg)
    assert len(instances) == 1600

    per_setup = Counter(i.setup for i in instances)
    per_label = Counter((i.setup, i.label) for i in instances)
    for setup in SetupKind:
        assert per_setup[setup] == 400
        assert per_label[(setup, True)] == 200
        assert per_label[(setup, False)] == 200

    keys = [dedup_key(i) for i in instances]
    assert len(keys) == len(set(keys))

    for instance in instances:
        anns = list(instance.announcement_formulas())
        hyp = instance.hypothesis.formula
        assert not is_contradictory(instance.obs, build_initial_model(instance.obs), anns)
        assert explicit_label(instance.obs, anns, hyp) == instance.label
        assert symbolic_label(instance.obs, anns, hyp) == instance.label

    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(map(record_from_instance, instances), str(first))
    write_jsonl(map(record_from_instance, generate_balanced(cfg)), str(second))
    assert first.read_bytes() == second.read_bytes()
    _report("6 dataset contract (1600 records, 200/200 per setup, re-verified, byte-stable)")


def test_criterion_7_tricky_reference_instances():
    """Two hand-picked problems that trip up informal reasoning get their
    brute-force-derived labels: the three-agent one is False, the two-agent
    mirror one is True."""
    # three agents, forehead mud; "someone muddy" then "agent 0 knows whether
    # someone is muddy"; hypothesis: agent 0 can now know their own state
    obs3 = fixed_observability(SetupKind.FOREHEAD_MUD, 3)
    someone3 = disj(Atom(i) for i in range(3))
    anns3 = [someone3, KnowsWhether(0, someone3)]
    hyp3 = Knows(0, Atom(0))
    assert oracle_label(3, obs3.rows, anns3, hyp3) is False
    assert explicit_label(obs3, anns3, hyp3) is False
    assert symbolic_label(obs3, anns3, hyp3) is False

    # two agents with a mirror; "someone muddy", "not everyone muddy" twice;
    # hypothesis: one agent can now know whether everyone is muddy
    obs2 = fixed_observability(SetupKind.FOREHEAD_MUD_MIRROR, 2)
    anns2 = [
        parse_formula("p0 | p1", 2),
        parse_formula("~(p0 & p1)", 2),
        parse_formula("~(p0 & p1)", 2),
    ]
    hyp2 = parse_formula("Kw[0] (p0 & p1)", 2)
    assert oracle_label(2, obs2.rows, anns2, hyp2) is True
    assert explicit_label(obs2, anns2, hyp2) is True
    assert symbolic_label(obs2, anns2, hyp2) is True
    _report("7 tricky reference instances labeled (False, True)")


def test_criterion_8_monte_carlo_parameters():
    """Sampling-rate checks: random-matrix entry sums average to n, and the
    knowledge-negation rate in announcements is 0.80, both over 10,000 draws."""
    rng = SplitMix64(0xACC8)
    n = 3
    total = 0
    for _ in range(10_000):
        matrix = sample_observability(SetupKind.EXPLICIT, n, rng)
        total += sum(sum(row) for row in matrix.rows)
    mean = total / 10_000
    assert abs(mean - n) <= 0.1, f"mean entry sum {mean:.3f}"

    negated = 0
    knowledge = 0
    while knowledge < 10_000:
        _, spec = sample_announcement(rng, 3)
        if spec.layers:
            knowledge += 1
            negated += spec.layers[0].negated
    rate = negated / knowledge
    assert abs(rate - 0.80) <= 0.02, f"negation rate {rate:.4f}"
    _report(f"8 Monte-Carlo parameters (entry-sum mean {mean:.3f}, negation rate {rate:.3f})")
