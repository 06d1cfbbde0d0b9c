"""Problem sampling, labeling, and label balancing.

Each draw is labeled by one call to the chosen checker, which also decides
contradiction: a ``ContradictoryPremise`` rejects the draw.

Determinism contract: every candidate draw runs on its own substream keyed by
(master seed, setup bucket, draw index), so the emitted dataset is a pure
function of the configuration.  Within one draw the sampling order is fixed:
setup, agent count, names, observability, extra-announcement count, the extra
announcements in order, then the hypothesis; each value is read from the
draw's next output by ``rng``'s coin or index rule.  The hypothesis is drawn
for every draw, rejected ones included; it is the last value drawn from the
substream, so drawing it on a rejected draw changes no other draw.

An instance holds the specs its text is rendered from, not the text: the
text is rendered when it is read, so a record renders it once, when it is
written.

``ProblemInstance``, ``Rejected`` and ``Hypothesis`` are plain, unhashable
dataclasses, cheaper to build than frozen ones; the specs, which caches
share, and ``GenConfig``, validated in ``__post_init__``, stay frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice, product

from .backends import Checker, explicit_label
from .dsl import MAX_NESTING
from .errors import ContradictoryPremise, GenerationStall
from .formula import Formula, Quantifier
# build_initial_model and is_contradictory are not called here; the
# benchmark's tracer (bench/tracing.py) patches them under these names.
from .kripke import ObservabilityMatrix, build_initial_model, is_contradictory
from .names import MAX_NAMES, sample_names
from .rng import LIMITS, SplitMix64, split_seed, substreams, threshold
from .setups import ALL_SETUPS, SetupKind, fixed_observability, setup_ordinal
from .statements import BeliefLayer, ExpressionSpec, StatementSpec
from .verbalize import announcement_clause, render_hypothesis

__all__ = [
    "GenConfig",
    "Hypothesis",
    "ProblemInstance",
    "Rejected",
    "sample_observability",
    "sample_announcement",
    "sample_hypothesis",
    "make_problem",
    "iter_problems",
    "generate_balanced",
]


# Chance of negating the knowledge operator inside an announcement, and of
# every other polarity coin (predicate polarity and hypothesis modality).
P_NEGATE_ANNOUNCEMENT_KNOWLEDGE = 0.8
P_NEGATE_OTHER = 0.5
# their coin thresholds, and the fair coin's
_NEGATE_KNOWLEDGE = threshold(P_NEGATE_ANNOUNCEMENT_KNOWLEDGE)
_NEGATE, _FAIR = threshold(P_NEGATE_OTHER), threshold(0.5)
# Draws one stream may spend before generation stalls.
MAX_DRAWS_PER_BUCKET = 1_000_000
# The largest belief order whose printed hypothesis still parses.  The
# deepest one negates every layer ("~K[i] ", two nesting levels each) around
# a negated "not everyone" statement ("~(~p0 & ~p1)", three levels).
MAX_ORDER = (MAX_NESTING - 3) // 2


@dataclass(frozen=True)
class GenConfig:
    """Sampling parameters.

    The number of announcements beyond the fixed existential one is uniform
    on ``0..n_agents``.
    """

    seed: int = 0
    n_agents_choices: tuple[int, ...] = (2, 3)
    max_order: int = 2
    per_setup_count: int = 400
    setups: tuple[SetupKind, ...] = ALL_SETUPS

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be between 0 and 2**64 - 1")
        if self.per_setup_count <= 0 or self.per_setup_count % 2:
            raise ValueError("per_setup_count must be positive and even")
        if not 1 <= self.max_order <= MAX_ORDER:
            raise ValueError(f"max_order must be between 1 and {MAX_ORDER}")
        if not self.n_agents_choices:
            raise ValueError("n_agents_choices must be nonempty")
        if any(n < 2 for n in self.n_agents_choices):
            raise ValueError("problems need at least two agents")
        if max(self.n_agents_choices) > MAX_NAMES:
            raise ValueError(f"the name pool names at most {MAX_NAMES} agents")
        if not self.setups:
            raise ValueError("setups must be nonempty")
        # normalize so flag order cannot change the stream
        object.__setattr__(
            self, "n_agents_choices", tuple(sorted(set(self.n_agents_choices)))
        )
        object.__setattr__(
            self, "setups", tuple(s for s in ALL_SETUPS if s in set(self.setups))
        )


@dataclass(slots=True)
class Hypothesis:
    formula: Formula
    text: str
    order: int


@dataclass(slots=True)
class ProblemInstance:
    """A labeled problem: its formulas and the specs their text is rendered
    from."""

    setup: SetupKind
    n_agents: int
    names: tuple[str, ...]
    obs: ObservabilityMatrix
    ann_formulas: tuple[Formula, ...]
    ann_specs: tuple[ExpressionSpec, ...]
    hyp_formula: Formula
    hyp_spec: ExpressionSpec
    label: bool
    seed: int
    draw_index: int

    @property
    def announcements(self) -> tuple[tuple[Formula, str], ...]:
        """Each announcement formula with its clause, rendered on every read."""
        setup, names = self.setup, self.names
        return tuple(
            (formula, announcement_clause(setup, spec, names))
            for formula, spec in zip(self.ann_formulas, self.ann_specs)
        )

    @property
    def hypothesis(self) -> Hypothesis:
        """The hypothesis with its sentence, rendered on every read."""
        spec = self.hyp_spec
        text = render_hypothesis(self.setup, spec, self.names)
        return Hypothesis(self.hyp_formula, text, spec.order)

    def announcement_formulas(self) -> tuple[Formula, ...]:
        return self.ann_formulas


@dataclass(slots=True)
class Rejected:
    """A discarded draw; kept as a value so callers can count reasons."""

    reason: str
    draw_index: int


def sample_observability(kind: SetupKind, n: int, rng: SplitMix64) -> ObservabilityMatrix:
    """Matrix for the setup; only the explicit-card setup is random.

    Each explicit entry, drawn row by row, is independently true with
    probability ``1/n``, so the expected number of true entries is ``n``.
    """
    if kind is not SetupKind.EXPLICIT:
        return fixed_observability(kind, n)
    coins = iter(rng.coins(1.0 / n, n * n))
    return ObservabilityMatrix.from_rows(zip(*[coins] * n))  # n rows of n coins


_QUANTIFIERS = (Quantifier.EVERYONE, Quantifier.NOT_EVERYONE, Quantifier.NOBODY)


@lru_cache(maxsize=MAX_NAMES)
def _spec_tables(n: int) -> tuple[tuple[StatementSpec, ...], tuple[BeliefLayer, ...]]:
    """Every statement and belief layer over ``n`` agents, in draw order:
    statement ``2 * subject_index + negated`` and layer
    ``4 * knower + 2 * whether + negated``.  The undrawn ``SOMEONE`` follows
    the drawn subjects, for the existential announcement."""
    coin = (False, True)
    statements = product((*range(n), *_QUANTIFIERS, Quantifier.SOMEONE), coin)
    layers = product(range(n), coin, coin)
    return tuple(StatementSpec(*t) for t in statements), tuple(BeliefLayer(*t) for t in layers)


# 16,384 entries hold all 9,030 announcement expressions at n=32; a cache
# that churns rebuilds their nodes through the unique table, about 3 µs each.
@lru_cache(maxsize=1 << 14)
def _expression(n: int, layers: tuple[int, ...], statement: int) -> tuple[Formula, ExpressionSpec]:
    """The expression of the given table indices, and its formula."""
    statements, belief_layers = _spec_tables(n)
    spec = ExpressionSpec(tuple(map(belief_layers.__getitem__, layers)), statements[statement])
    return spec.to_formula(n), spec


def sample_announcement(rng: SplitMix64, n: int) -> tuple[Formula, ExpressionSpec]:
    """Fair coin between a bare statement and a first-order belief about one.
    A layer is a knower, a fair "whether" coin and a negation coin; a statement
    is a subject (an agent or one of three quantifiers) and a negation coin."""
    pending, k = rng.pending, n + len(_QUANTIFIERS)
    layers = ()
    if (pending.pop() if pending else rng.next_u64()) >= _FAIR:
        u = pending.pop() if pending else rng.next_u64()
        knower = u % n if u < LIMITS[n] else rng.below(n)
        whether = (pending.pop() if pending else rng.next_u64()) < _FAIR
        negated = (pending.pop() if pending else rng.next_u64()) < _NEGATE_KNOWLEDGE
        layers = (4 * knower + 2 * whether + negated,)
    u = pending.pop() if pending else rng.next_u64()
    subject = u % k if u < LIMITS[k] else rng.below(k)
    negated = (pending.pop() if pending else rng.next_u64()) < _NEGATE
    return _expression(n, layers, 2 * subject + negated)


def sample_hypothesis(rng: SplitMix64, n: int, max_order: int) -> tuple[Formula, ExpressionSpec]:
    """Belief order uniform on ``1..max_order``; layers drawn outermost first,
    as in ``sample_announcement`` but with the other negation coin; then the
    statement."""
    pending, k = rng.pending, n + len(_QUANTIFIERS)
    u = pending.pop() if pending else rng.next_u64()
    layers = []
    for _ in range(1 + (u % max_order if u < LIMITS[max_order] else rng.below(max_order))):
        u = pending.pop() if pending else rng.next_u64()
        knower = u % n if u < LIMITS[n] else rng.below(n)
        whether = (pending.pop() if pending else rng.next_u64()) < _FAIR
        negated = (pending.pop() if pending else rng.next_u64()) < _NEGATE
        layers.append(4 * knower + 2 * whether + negated)
    u = pending.pop() if pending else rng.next_u64()
    subject = u % k if u < LIMITS[k] else rng.below(k)
    negated = (pending.pop() if pending else rng.next_u64()) < _NEGATE
    return _expression(n, tuple(layers), 2 * subject + negated)


def make_problem(
    rng: SplitMix64,
    cfg: GenConfig,
    draw_index: int = 0,
    checker: Checker = explicit_label,
) -> ProblemInstance | Rejected:
    """One candidate draw: a ``ProblemInstance``, or ``Rejected`` when
    ``checker`` finds the announcements contradictory."""
    pending, setups, choices = rng.pending, cfg.setups, cfg.n_agents_choices
    u, k = pending.pop() if pending else rng.next_u64(), len(setups)
    setup = setups[u % k if u < LIMITS[k] else rng.below(k)]
    u, k = pending.pop() if pending else rng.next_u64(), len(choices)
    n = choices[u % k if u < LIMITS[k] else rng.below(k)]
    names = sample_names(rng, n)
    obs = sample_observability(setup, n, rng)

    existential, spec = _expression(n, (), 2 * (n + len(_QUANTIFIERS)))
    ann_formulas, specs = [existential], [spec]
    u = pending.pop() if pending else rng.next_u64()
    for _ in range(u % (n + 1) if u < LIMITS[n + 1] else rng.below(n + 1)):
        formula, spec = sample_announcement(rng, n)
        ann_formulas.append(formula)
        specs.append(spec)

    hyp_formula, hyp_spec = sample_hypothesis(rng, n, cfg.max_order)
    try:
        verdict = checker(obs, ann_formulas, hyp_formula)
    except ContradictoryPremise:
        return Rejected("contradictory", draw_index)
    return ProblemInstance(
        setup, n, names, obs, tuple(ann_formulas), tuple(specs),
        hyp_formula, hyp_spec, verdict, cfg.seed, draw_index,
    )


def _accepted(cfg: GenConfig, seed: int, checker: Checker):
    """The accepted draws of the stream keyed by ``seed``, in draw order;
    raises ``GenerationStall`` once ``MAX_DRAWS_PER_BUCKET`` draws are
    spent."""
    for draw, rng in zip(range(MAX_DRAWS_PER_BUCKET), substreams(seed)):
        result = make_problem(rng, cfg, draw, checker)
        if not isinstance(result, Rejected):
            yield result
    raise GenerationStall(f"draw budget of {MAX_DRAWS_PER_BUCKET} spent")


def iter_problems(cfg: GenConfig, count: int, checker: Checker = explicit_label):
    """Yield ``count`` accepted instances from the unbucketed draw stream;
    ``checker`` is called once on each draw, in draw order, and accepts and
    labels it."""
    return islice(_accepted(cfg, cfg.seed, checker), count)


def _fill_setup(cfg: GenConfig, setup: SetupKind, checker: Checker) -> list[ProblemInstance]:
    """Generate one setup's bucket: exactly half True, half False labels.

    Draws keep the earliest instances of each label (undersampling the
    majority label) and skip duplicates of
    (setup, n, announcement formulas, hypothesis formula).
    """
    half = cfg.per_setup_count // 2
    bucket_cfg = replace(cfg, setups=(setup,))
    bucket_seed = split_seed(cfg.seed, setup_ordinal(setup))
    kept: list[ProblemInstance] = []
    counts = {True: 0, False: 0}
    seen: set = set()
    try:
        for instance in _accepted(bucket_cfg, bucket_seed, checker):
            n_seen = len(seen)  # add, then test growth: the key is hashed once
            seen.add((setup, instance.n_agents, instance.ann_formulas, instance.hyp_formula))
            if len(seen) == n_seen or counts[instance.label] == half:
                continue
            counts[instance.label] += 1
            kept.append(instance)
            if counts[True] == counts[False] == half:
                break
    except GenerationStall:
        raise GenerationStall(
            f"setup {setup.value}: {counts[True]} True / {counts[False]} "
            f"False after {MAX_DRAWS_PER_BUCKET} draws (need {half} of each)"
        ) from None
    return kept


def generate_balanced(
    cfg: GenConfig, checker: Checker = explicit_label
) -> list[ProblemInstance]:
    """The full dataset: ``per_setup_count`` instances per configured setup,
    each setup exactly label-balanced, in draw order within each setup."""
    return [instance for setup in cfg.setups for instance in _fill_setup(cfg, setup, checker)]
