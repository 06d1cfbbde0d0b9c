"""A reference generator: the balanced dataset restated from the draw rules.

It shares no code with ``generator``, ``rng``, ``names`` or ``statements``.
The stream is ``ScalarSplitMix64``, read through its ``below`` and
``chance`` methods; names come from ``reference_sample_names``, labels from
``oracle_label``, and formulas from the node constructors.  The rules:

* setup ``k``, in ``SetupKind`` declaration order, draws on the stream
  seeded with output ``k + 1`` of the master seed's stream, and its draw
  ``d`` on the stream seeded with output ``d + 1`` of that one;
* a draw takes, in order: the setup, the agent count ``n``, the names, the
  explicit setup's matrix (row by row, each entry a coin of ``1/n``), the
  number of extra announcements (below ``n + 1``), each announcement, and
  the hypothesis;
* an announcement is, on a fair coin, a bare statement or else one belief
  layer (knower, fair "whether" coin, negation coin of 0.8) over one;
* a hypothesis has order ``1 + below(max_order)`` and that many layers,
  outermost first, with negation coins of 0.5, over a statement;
* a statement is a subject below ``n + 3`` (the agents, then everyone, not
  everyone, nobody) and a fair predicate-negation coin;
* a draw whose announcements leave no world is rejected; a bucket keeps the
  earliest draw of each label until it holds half of each, skipping repeats
  of (setup, n, announcements, hypothesis).
"""

from __future__ import annotations

from epistle.formula import And, Atom, Knows, KnowsWhether, Not, Or
from epistle.setups import SetupKind

from support import ScalarSplitMix64, oracle_label, reference_sample_names

# what a draw is compared on: every record field but the two texts, and the
# matrix
FIELDS = ("setup", "n_agents", "names", "rows", "ann_formulas", "hyp_formula",
          "order", "label", "seed", "draw_index")

_SEES = {
    SetupKind.FOREHEAD_MUD: lambda i, j: i != j,
    SetupKind.FOREHEAD_MUD_MIRROR: lambda i, j: True,
    SetupKind.THIRST: lambda i, j: i == j,
}


def _statement(rng, n: int):
    subject, negated = rng.below(n + 3), rng.chance(0.5)
    literals = tuple(Not(Atom(i)) if negated else Atom(i) for i in range(n))
    if subject < n:
        return literals[subject]
    if subject == n:  # everyone
        return And(literals)
    if subject == n + 1:  # not everyone
        return Not(And(literals))
    return And(tuple(Atom(i) if negated else Not(Atom(i)) for i in range(n)))  # nobody


def _beliefs(layers, f):
    """``f`` under ``layers`` of (knower, whether, negated), outermost first."""
    for knower, whether, negated in reversed(layers):
        f = (KnowsWhether if whether else Knows)(knower, f)
        f = Not(f) if negated else f
    return f


def _layer(rng, n: int, p_negate: float):
    return rng.below(n), rng.chance(0.5), rng.chance(p_negate)


def reference_draw(rng, setups, n_choices, max_order) -> dict:
    """One draw's fields, before labeling."""
    setup = setups[rng.below(len(setups))]
    n = n_choices[rng.below(len(n_choices))]
    names = reference_sample_names(rng, n)
    if setup is SetupKind.EXPLICIT:
        rows = tuple(tuple(rng.chance(1.0 / n) for _ in range(n)) for _ in range(n))
    else:
        rows = tuple(tuple(_SEES[setup](i, j) for j in range(n)) for i in range(n))
    anns = [Or(tuple(Atom(i) for i in range(n)))]
    for _ in range(rng.below(n + 1)):
        layers = [] if rng.chance(0.5) else [_layer(rng, n, 0.8)]
        anns.append(_beliefs(layers, _statement(rng, n)))
    layers = [_layer(rng, n, 0.5) for _ in range(1 + rng.below(max_order))]
    return {
        "setup": setup, "n_agents": n, "names": names, "rows": rows,
        "ann_formulas": tuple(anns), "hyp_formula": _beliefs(layers, _statement(rng, n)),
        "order": len(layers),
    }


def reference_dataset(cfg, max_draws: int = 100_000) -> list[dict]:
    """The fields of every record ``generate_balanced(cfg)`` writes, in order."""
    records = []
    master = ScalarSplitMix64(cfg.seed)
    bucket_seeds = [master.next_u64() for _ in SetupKind]
    half = cfg.per_setup_count // 2
    for setup in cfg.setups:
        draws = ScalarSplitMix64(bucket_seeds[list(SetupKind).index(setup)])
        counts, seen = {True: 0, False: 0}, set()
        for index in range(max_draws):
            draw = reference_draw(ScalarSplitMix64(draws.next_u64()), (setup,),
                                  cfg.n_agents_choices, cfg.max_order)
            label = oracle_label(draw["n_agents"], draw["rows"], draw["ann_formulas"],
                                 draw["hyp_formula"])
            if label is None:
                continue
            key = (setup, draw["n_agents"], draw["ann_formulas"], draw["hyp_formula"])
            repeat = key in seen
            seen.add(key)
            if repeat or counts[label] == half:
                continue
            counts[label] += 1
            records.append(dict(draw, label=label, seed=cfg.seed, draw_index=index))
            if counts[True] == counts[False] == half:
                break
        else:
            raise RuntimeError(f"{setup.value}: no balanced bucket in {max_draws} draws")
    return records


def instance_fields(instance) -> dict:
    """The ``FIELDS`` of a ``ProblemInstance``."""
    return {
        "setup": instance.setup, "n_agents": instance.n_agents, "names": instance.names,
        "rows": instance.obs.rows, "ann_formulas": instance.ann_formulas,
        "hyp_formula": instance.hyp_formula, "order": instance.hyp_spec.order,
        "label": instance.label, "seed": instance.seed, "draw_index": instance.draw_index,
    }


def first_difference(got: list[dict], want: list[dict]) -> tuple | None:
    """The (setup, draw index, field) of the first field that differs, or
    None; past the shorter list, the first extra record differs in its
    "record count"."""
    for g, w in zip(got, want):
        for field in FIELDS:
            if g[field] != w[field]:
                return w["setup"].value, w["draw_index"], field
    if len(got) != len(want):
        extra = max(got, want, key=len)[min(len(got), len(want))]
        return extra["setup"].value, extra["draw_index"], "record count"
    return None
