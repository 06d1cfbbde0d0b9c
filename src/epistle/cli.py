"""Command-line interface.

Exit codes: 2 for usage or formula-syntax errors and for resource limits, 3
when generation stalls, 4 for a contradictory premise (without
--allow-contradiction), 5 when the two backends disagree.  A resource limit is
a problem too large for the explicit backend (``SizeLimit``) or a
decision-diagram store that outgrows ``EPISTLE_NODE_LIMIT``
(``StoreCapacity``); every command reports it as one line on stderr.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import click

from .backends import contradictory, explicit_label, get_checker, symbolic_label
from .bdd import DdStore, default_node_capacity
from .dsl import parse_formula, print_formula
from .errors import BackendMismatch, EpistleError, GenerationStall, SizeLimit, StoreCapacity
from .formula import Atom, Knows, KnowsWhether, Not, Or, conj, disj
from .generator import GenConfig, generate_balanced, iter_problems
from .kripke import (
    ObservabilityMatrix,
    announce,
    build_initial_model,
    evaluate,
    label,
)
from .records import record_from_instance, write_jsonl
from .setups import ALL_SETUPS, SetupKind
from .symbolic import KnowledgeStructure, announce_symbolic, translate

EXIT_USAGE = 2
EXIT_STALL = 3
EXIT_CONTRADICTION = 4
EXIT_MISMATCH = 5

_NAMED_MATRICES = {
    "forehead-mud": ObservabilityMatrix.ones_minus_identity,
    "ones-minus-identity": ObservabilityMatrix.ones_minus_identity,
    "mirror": ObservabilityMatrix.ones,
    "ones": ObservabilityMatrix.ones,
    "thirst": ObservabilityMatrix.identity,
    "identity": ObservabilityMatrix.identity,
}


def _parse_obs(spec: str, n: int) -> ObservabilityMatrix:
    """Named matrix, or literal rows of 0/1 separated by ';'."""
    builder = _NAMED_MATRICES.get(spec)
    if builder is not None:
        return builder(n)
    rows = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk or any(c not in "01" for c in chunk):
            raise click.UsageError(f"bad observability spec {spec!r}")
        rows.append([c == "1" for c in chunk])
    if len(rows) != n or any(len(r) != n for r in rows):
        raise click.UsageError(f"observability spec {spec!r} is not {n}x{n}")
    return ObservabilityMatrix.from_rows(rows)


def _parse_setups(spec: str) -> tuple[SetupKind, ...]:
    if spec == "all":
        return ALL_SETUPS
    out = []
    valid = {s.value: s for s in ALL_SETUPS}
    for part in spec.split(","):
        part = part.strip()
        if part not in valid:
            raise click.UsageError(
                f"unknown setup {part!r}; choose from {', '.join(valid)}"
            )
        out.append(valid[part])
    return tuple(out)


def _parse_dsl(text: str, n: int):
    try:
        return parse_formula(text, n)
    except EpistleError as exc:
        raise click.UsageError(f"cannot parse {text!r}: {exc}")


def _exit_on_resource_limit(command):
    """Turn a resource limit raised anywhere in ``command`` into one line on
    stderr and exit code 2."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (SizeLimit, StoreCapacity) as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(EXIT_USAGE)

    return wrapper


@click.group()
def main():
    """Epistemic-logic model checking and entailment-dataset generation."""
    try:
        default_node_capacity()
    except ValueError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--per-setup", type=int, default=400, show_default=True)
@click.option("--setups", default="all", show_default=True, help="Comma list or 'all'.")
@click.option("--n-agents", default="2,3", show_default=True, help="Comma list of counts.")
@click.option("--max-order", type=int, default=2, show_default=True)
@click.option(
    "--backend",
    type=click.Choice(["explicit", "symbolic", "both"]),
    default="explicit",
    show_default=True,
    help="Checker used to label instances.",
)
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True))
@_exit_on_resource_limit
def generate(seed, per_setup, setups, n_agents, max_order, backend, out):
    """Write a balanced JSON-Lines dataset."""
    try:
        counts = tuple(int(part) for part in n_agents.split(","))
    except ValueError:
        raise click.UsageError(f"bad --n-agents value {n_agents!r}")
    try:
        cfg = GenConfig(
            seed=seed,
            per_setup_count=per_setup,
            setups=_parse_setups(setups),
            n_agents_choices=counts,
            max_order=max_order,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise click.UsageError(f"cannot write to directory {out_dir!r}")
    try:
        instances = generate_balanced(cfg, checker=get_checker(backend))
    except GenerationStall as exc:
        click.echo(f"generation stalled: {exc}", err=True)
        sys.exit(EXIT_STALL)
    except BackendMismatch as exc:
        click.echo(f"backend mismatch: {exc}", err=True)
        sys.exit(EXIT_MISMATCH)
    # write beside the target and rename, so a failure leaves no partial file
    tmp = os.path.join(out_dir, f".{os.path.basename(out)}.{os.getpid()}.tmp")
    try:
        written = write_jsonl(map(record_from_instance, instances), tmp)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    click.echo(f"wrote {written} records to {out}")


@main.command()
@click.option("--n", type=int, required=True, help="Number of agents.")
@click.option(
    "--obs",
    default="forehead-mud",
    show_default=True,
    help="Named matrix (forehead-mud, mirror, thirst, ones, identity, "
    "ones-minus-identity) or rows of 0/1 separated by ';'.",
)
@click.option("--announce", "announcements", multiple=True, help="May repeat.")
@click.option("--hyp", required=True)
@click.option(
    "--backend",
    type=click.Choice(["explicit", "symbolic", "both"]),
    default="explicit",
    show_default=True,
)
@click.option("--explain", is_flag=True, help="Print surviving worlds (explicit only).")
@click.option("--allow-contradiction", is_flag=True)
@_exit_on_resource_limit
def check(n, obs, announcements, hyp, backend, explain, allow_contradiction):
    """Label one problem given in the formula language."""
    if n < 1:
        raise click.UsageError("--n must be at least 1")
    matrix = _parse_obs(obs, n)
    ann_formulas = [_parse_dsl(text, n) for text in announcements]
    hyp_formula = _parse_dsl(hyp, n)

    try:
        if contradictory(matrix, ann_formulas, backend):
            click.echo("Contradictory")
            sys.exit(0 if allow_contradiction else EXIT_CONTRADICTION)
    except BackendMismatch as exc:
        click.echo(f"backend mismatch: {exc}", err=True)
        sys.exit(EXIT_MISMATCH)

    results = {}
    if backend in ("explicit", "both"):
        results["explicit"] = explicit_label(matrix, ann_formulas, hyp_formula)
    if backend in ("symbolic", "both"):
        results["symbolic"] = symbolic_label(matrix, ann_formulas, hyp_formula)

    if backend == "both":
        click.echo(f"explicit: {results['explicit']}")
        click.echo(f"symbolic: {results['symbolic']}")
        if results["explicit"] != results["symbolic"]:
            click.echo("backends disagree", err=True)
            sys.exit(EXIT_MISMATCH)
    else:
        click.echo(str(results[backend]))

    if explain:
        if "explicit" in results:
            model = build_initial_model(n, matrix)
            for a in ann_formulas:
                model = announce(model, a)
            worlds = sorted(model.live)
            rendered = ", ".join(format(w, f"0{n}b")[::-1] for w in worlds)
            click.echo(f"surviving worlds (p0 leftmost): {rendered}")
        else:
            click.echo("--explain requires the explicit backend", err=True)


def _nearest_rank(ordered: list[float], pct: int) -> float:
    """The ``pct``-th percentile of a sorted, non-empty list: the sample at
    rank ``ceil(pct * N / 100)``, counting from 1, in exact integer
    arithmetic."""
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


@main.command()
@click.option("--count", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_exit_on_resource_limit
def crosscheck(count, seed):
    """Label random instances with both backends and report disagreements."""
    cfg = GenConfig(seed=seed)
    mismatches = 0
    explicit_times = []
    symbolic_times = []
    checked = 0
    for instance in iter_problems(cfg, count):
        anns = list(instance.announcement_formulas())
        hyp = instance.hypothesis.formula

        t0 = time.perf_counter()
        a = explicit_label(instance.obs, anns, hyp)
        t1 = time.perf_counter()
        b = symbolic_label(instance.obs, anns, hyp)
        t2 = time.perf_counter()
        explicit_times.append(t1 - t0)
        symbolic_times.append(t2 - t1)
        checked += 1
        if a != b:
            mismatches += 1
            click.echo(
                f"mismatch at draw {instance.draw_index}: explicit={a} symbolic={b} "
                f"hyp={print_formula(hyp)}",
                err=True,
            )
    click.echo(f"checked {checked} instances: {mismatches} mismatches")
    for name, times in (("explicit", explicit_times), ("symbolic", symbolic_times)):
        if times:
            times = sorted(times)
            p50, p90, p99 = (_nearest_rank(times, pct) * 1000.0 for pct in (50, 90, 99))
            click.echo(f"{name} label ms: p50={p50:.3f} p90={p90:.3f} p99={p99:.3f}")
    if mismatches:
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.option("--n", type=int, required=True, help="Number of children, all muddy.")
@click.option(
    "--rounds", type=click.IntRange(min=0), default=None, help="Cap on ignorance rounds."
)
@click.option(
    "--backend",
    type=click.Choice(["explicit", "symbolic"]),
    default="explicit",
    show_default=True,
)
@_exit_on_resource_limit
def puzzle(n, rounds, backend):
    """Run the classic muddy-children scenario: everyone muddy, the
    existential announcement, then repeated joint ignorance while it is true."""
    if n < 2:
        raise click.UsageError("--n must be at least 2")
    obs = ObservabilityMatrix.ones_minus_identity(n)
    existential = disj(Atom(i) for i in range(n))
    ignorance = conj(
        Not(Or((Knows(i, Atom(i)), Knows(i, Not(Atom(i)))))) for i in range(n)
    )
    everyone_knows = conj(KnowsWhether(i, Atom(i)) for i in range(n))
    actual = (1 << n) - 1
    limit = rounds if rounds is not None else n

    if backend == "explicit":
        model = announce(build_initial_model(n, obs), existential)
        click.echo(f"announced: someone is muddy; {model.mask.bit_count()} worlds remain")
        done = label(model, [], everyone_knows)
        k = 0
        while not done and k < limit and evaluate(model, actual, ignorance):
            model = announce(model, ignorance)
            k += 1
            done = label(model, [], everyone_knows)
            click.echo(
                f"round {k}: nobody knew their own status; "
                f"{model.mask.bit_count()} worlds remain; everyone knows: {'yes' if done else 'no'}"
            )
    else:
        store = DdStore()
        ks = KnowledgeStructure.from_observability(store, obs)
        ks = announce_symbolic(ks, existential)
        click.echo(f"announced: someone is muddy; {ks.live_count()} states remain")

        def all_know(ks):
            return store.implies(ks.state_law, translate(ks, everyone_knows)) is store.true

        done = all_know(ks)
        k = 0
        while not done and k < limit and store.eval(translate(ks, ignorance), actual):
            ks = announce_symbolic(ks, ignorance)
            k += 1
            done = all_know(ks)
            click.echo(
                f"round {k}: nobody knew their own status; "
                f"{ks.live_count()} states remain; everyone knows: {'yes' if done else 'no'}"
            )

    if done:
        click.echo(f"everyone knows their own status after {k} rounds (expected {n - 1})")
    else:
        click.echo(f"stopped after {k} rounds without resolution")


if __name__ == "__main__":
    main()
