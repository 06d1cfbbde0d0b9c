"""Command-line interface.

Exit codes: 2 for usage or formula-syntax errors, for resource limits and
for an output the system fails to write (``OSError``, such as a full disk or
a file-size limit, but for a closed stdout pipe, which click handles), 3
when generation stalls, 4 for a contradictory premise (without
--allow-contradiction), 5 when the two backends disagree.  ``check`` and
``generate`` make one call per problem to the checker ``--backend`` names,
which decides contradiction as well as the label.  A resource limit is
a problem too large for the explicit backend (``SizeLimit``) or a
decision-diagram store that outgrows ``EPISTLE_NODE_LIMIT``
(``StoreCapacity``).  ``_EXITS`` maps each error a command may end in to its
exit code and the prefix of the one line it prints on stderr.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import click

from .backends import explicit_label, get_checker, outcome, symbolic_label
from .bdd import DdStore, default_node_capacity
from .dsl import parse_formula, print_formula
from .errors import (
    BackendMismatch,
    ContradictoryPremise,
    GenerationStall,
    ParseError,
    SizeLimit,
    StoreCapacity,
)
from .formula import Atom, Knows, KnowsWhether, Not, Or, conj, disj
from .generator import GenConfig, generate_balanced, iter_problems
from .kripke import ObservabilityMatrix, announce, build_initial_model, evaluate, label
from .names import MAX_NAMES
from .records import record_from_instance, write_jsonl
from .setups import ALL_SETUPS, SetupKind, fixed_observability
from .symbolic import announce_symbolic, label_symbolic, translate

EXIT_USAGE = 2
EXIT_STALL = 3
EXIT_CONTRADICTION = 4
EXIT_MISMATCH = 5

# each named --obs pattern is the kept matrix of its setup
_NAMED_SETUPS = {
    "forehead-mud": SetupKind.FOREHEAD_MUD,
    "ones-minus-identity": SetupKind.FOREHEAD_MUD,
    "mirror": SetupKind.FOREHEAD_MUD_MIRROR,
    "ones": SetupKind.FOREHEAD_MUD_MIRROR,
    "thirst": SetupKind.THIRST,
    "identity": SetupKind.THIRST,
}


def _cut(text: str, offset: int = 0) -> str:
    """``text`` cut to 80 characters around ``offset``; a cut is marked ``…``."""
    start = max(0, min(offset - 40, len(text) - 80))
    return "…"[: start > 0] + text[start : start + 80] + "…"[: start + 80 < len(text)]


def _quote(text: str, offset: int = 0) -> str:
    """``text`` cut by ``_cut`` and quoted."""
    return repr(_cut(text, offset))


class _Int(click.ParamType):
    """An integer option, at least ``min`` and at most ``max`` where they are
    given (``max`` only with ``min``).  Its error line states the range as
    click does (``x>=0``, ``1<=x<=200``) and cuts the rejected value as
    ``_quote`` does, where click's own integer types print the whole value."""

    name = "integer"

    def __init__(self, min: int | None = None, max: int | None = None):
        self.min, self.max = min, max
        self.range = f"x>={min}" if max is None else f"{min}<=x<={max}"

    def convert(self, value, param, ctx) -> int:
        try:
            number = int(value)
        except ValueError:  # not a number, or past sys.get_int_max_str_digits()
            self.fail(f"{_quote(str(value))} is not a valid integer.", param, ctx)
        below = self.min is not None and number < self.min
        if below or (self.max is not None and number > self.max):
            self.fail(f"{_cut(str(number))} is not in the range {self.range}.", param, ctx)
        return number


def _backend(*choices: str, **attrs):
    """The ``--backend`` option over ``choices``; the default is the explicit checker."""
    return click.option(
        "--backend", type=click.Choice(choices), default="explicit", show_default=True, **attrs
    )


def _parse_obs(spec: str, n: int) -> ObservabilityMatrix:
    """Named matrix, or literal rows of 0/1 separated by ';'."""
    setup = _NAMED_SETUPS.get(spec)
    if setup is not None:
        return fixed_observability(setup, n)
    rows, at = [], 0
    for chunk in spec.split(";"):
        row = chunk.strip()
        if not row or row.strip("01"):
            raise click.UsageError(f"bad observability spec {_quote(spec, at)} (at offset {at})")
        rows.append([c == "1" for c in row])
        at += len(chunk) + 1
    if len(rows) != n or any(len(r) != n for r in rows):
        raise click.UsageError(f"observability spec {_quote(spec)} is not {n}x{n}")
    return ObservabilityMatrix.from_rows(rows)


def _parse_setups(spec: str) -> tuple[SetupKind, ...]:
    if spec == "all":
        return ALL_SETUPS
    out = []
    valid = {s.value: s for s in ALL_SETUPS}
    for part in spec.split(","):
        part = part.strip()
        if part not in valid:
            raise click.UsageError(f"unknown setup {_quote(part)}; choose from {', '.join(valid)}")
        out.append(valid[part])
    return tuple(out)


def _gen_config(n_agents: str, **fields) -> GenConfig:
    """``GenConfig`` from command options; ``n_agents`` is the comma list
    of agent counts."""
    try:
        counts = tuple(int(part) for part in n_agents.split(","))
    except ValueError:
        raise click.UsageError(f"bad --n-agents value {_quote(n_agents)}")
    try:
        return GenConfig(n_agents_choices=counts, **fields)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _parse_dsl(text: str, n: int):
    try:
        return parse_formula(text, n)
    except ParseError as exc:
        raise click.UsageError(f"cannot parse {_quote(text, exc.position)}: {exc}")


_EXITS = {
    click.UsageError: (EXIT_USAGE, "Error"),
    SizeLimit: (EXIT_USAGE, "resource limit"),
    StoreCapacity: (EXIT_USAGE, "resource limit"),
    GenerationStall: (EXIT_STALL, "generation stalled"),
    BackendMismatch: (EXIT_MISMATCH, "backend mismatch"),
    # a failed write to stdout leaves nothing in its buffer (CPython 3.10-3.13
    # drop the refused bytes), so the flush at exit adds no second line
    OSError: (EXIT_USAGE, "cannot write"),
}


def _exit_with(exc: Exception):
    """Print the one stderr line of an error listed in ``_EXITS`` and exit
    with its code."""
    code, prefix = next(v for kind, v in _EXITS.items() if isinstance(exc, kind))
    message = exc.format_message() if isinstance(exc, click.UsageError) else exc
    click.echo(f"{prefix}: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    """Ends a run that raises an error listed in ``_EXITS``, in a command or
    in the group's own options, with that error's one line and exit code."""

    def make_context(self, info_name, args, parent=None, **extra):
        try:
            return super().make_context(info_name, args, parent, **extra)
        except click.exceptions.NoArgsIsHelpError:
            raise  # a bare ``epistle`` prints its help
        except click.UsageError as exc:
            _exit_with(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a closed stdout keeps click's own handling
        except tuple(_EXITS) as exc:
            _exit_with(exc)


@click.group(cls=_Main)
def main():
    """Epistemic-logic model checking and entailment-dataset generation."""
    try:
        default_node_capacity()
    except ValueError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


@main.command()
@click.option("--seed", type=_Int(), default=0, show_default=True)
@click.option("--per-setup", type=_Int(), default=400, show_default=True)
@click.option("--setups", default="all", show_default=True, help="Comma list or 'all'.")
@click.option("--n-agents", default="2,3", show_default=True, help="Comma list of counts.")
@click.option("--max-order", type=_Int(), default=2, show_default=True)
@_backend("explicit", "symbolic", "both", help="Checker used to label instances.")
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True))
def generate(seed, per_setup, setups, n_agents, max_order, backend, out):
    """Write a balanced JSON-Lines dataset."""
    cfg = _gen_config(
        n_agents,
        seed=seed,
        per_setup_count=per_setup,
        setups=_parse_setups(setups),
        max_order=max_order,
    )
    if os.path.basename(out) in ("", ".", ".."):
        raise click.UsageError(f"--out {_quote(out)} names no file")
    out_dir = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise click.UsageError(f"cannot write to directory {out_dir!r}")
    instances = generate_balanced(cfg, checker=get_checker(backend))
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
@click.option("--n", type=_Int(1, MAX_NAMES), required=True, help="Number of agents.")
@click.option(
    "--obs",
    default="forehead-mud",
    show_default=True,
    help=f"Named matrix ({', '.join(_NAMED_SETUPS)}) or rows of 0/1 separated by ';'.",
)
@click.option("--announce", "announcements", multiple=True, help="May repeat.")
@click.option("--hyp", required=True)
@_backend("explicit", "symbolic", "both")
@click.option(
    "--explain", is_flag=True, help="Print surviving worlds (explicit or both backends)."
)
@click.option("--allow-contradiction", is_flag=True)
def check(n, obs, announcements, hyp, backend, explain, allow_contradiction):
    """Label one problem given in the formula language."""
    if explain and backend == "symbolic":
        raise click.UsageError("--explain needs the explicit backend (--backend explicit or both)")
    matrix = _parse_obs(obs, n)
    ann_formulas = [_parse_dsl(text, n) for text in announcements]
    hyp_formula = _parse_dsl(hyp, n)

    try:
        verdict = get_checker(backend)(matrix, ann_formulas, hyp_formula)
    except ContradictoryPremise:
        click.echo("Contradictory")
        sys.exit(0 if allow_contradiction else EXIT_CONTRADICTION)
    if backend == "both":
        click.echo(f"explicit: {verdict}\nsymbolic: {verdict}")
    else:
        click.echo(verdict)

    if explain:
        live = build_initial_model(matrix)
        for a in ann_formulas:
            live = announce(matrix, live, a)
        worlds = (w for w in range(live.bit_length()) if live >> w & 1)
        rendered = ", ".join(format(w, f"0{n}b")[::-1] for w in worlds)
        click.echo(f"surviving worlds (p0 leftmost): {rendered}")


def _nearest_rank(ordered: list[float], pct: int) -> float:
    """The ``pct``-th percentile of a sorted, non-empty list: the sample at
    rank ``ceil(pct * N / 100)``, counting from 1, in exact integer
    arithmetic."""
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


@main.command()
@click.option("--count", type=_Int(min=0), default=1000, show_default=True)
@click.option("--seed", type=_Int(), default=0, show_default=True)
@click.option("--n-agents", default="2,3", show_default=True, help="Comma list of counts.")
def crosscheck(count, seed, n_agents):
    """Label random draws with both backends as they are drawn, contradictory
    draws included, and report disagreements."""
    cfg = _gen_config(n_agents, seed=seed)
    mismatches = 0
    explicit_times = array("d")
    symbolic_times = array("d")

    def compare(obs, anns, hyp):
        # called once on each draw, in draw order; the explicit outcome
        # accepts or rejects the draw, as it does for the explicit checker
        nonlocal mismatches
        t0 = time.perf_counter()
        a = outcome(explicit_label, obs, anns, hyp)
        t1 = time.perf_counter()
        b = outcome(symbolic_label, obs, anns, hyp)
        t2 = time.perf_counter()
        explicit_times.append(t1 - t0)
        symbolic_times.append(t2 - t1)
        if a != b:
            mismatches += 1
            click.echo(
                f"mismatch at draw {len(explicit_times) - 1}: explicit={a} symbolic={b} "
                f"hyp={print_formula(hyp)}",
                err=True,
            )
        if a == "contradictory":
            raise ContradictoryPremise("the explicit backend rejects the draw")
        return a

    checked = sum(1 for _ in iter_problems(cfg, count, compare))
    draws = len(explicit_times)
    click.echo(
        f"checked {checked} instances: {mismatches} mismatches; "
        f"compared {draws} draws, {draws - checked} of them contradictory"
    )
    for name, times in (("explicit", explicit_times), ("symbolic", symbolic_times)):
        if times:
            times = sorted(times)
            p50, p90, p99 = (_nearest_rank(times, pct) * 1000.0 for pct in (50, 90, 99))
            click.echo(f"{name} label ms: p50={p50:.3f} p90={p90:.3f} p99={p99:.3f}")
    if mismatches:
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.option(
    "--n", type=_Int(2, MAX_NAMES), required=True, help="Number of children, all muddy."
)
@click.option("--rounds", type=_Int(min=0), default=None, help="Cap on ignorance rounds.")
@_backend("explicit", "symbolic")
def puzzle(n, rounds, backend):
    """Run the classic muddy-children scenario: everyone muddy, the
    existential announcement, then repeated joint ignorance while it is true."""
    obs = fixed_observability(SetupKind.FOREHEAD_MUD, n)
    existential = disj(Atom(i) for i in range(n))
    ignorance = conj(
        Not(Or((Knows(i, Atom(i)), Knows(i, Not(Atom(i)))))) for i in range(n)
    )
    everyone_knows = conj(KnowsWhether(i, Atom(i)) for i in range(n))
    actual = (1 << n) - 1
    limit = rounds if rounds is not None else n

    # the state is a world mask or a state law, with four steps: announce
    # ignorance, everyone knows, ignorant at the actual world, states left
    if backend == "explicit":
        state, unit = announce(obs, build_initial_model(obs), existential), "worlds"
        step, all_know, ignorant, size = (
            lambda live: announce(obs, live, ignorance),
            lambda live: label(obs, live, [], everyone_knows),
            lambda live: evaluate(obs, live, actual, ignorance),
            int.bit_count,
        )
    else:
        store = DdStore()
        state, unit = announce_symbolic(store, obs, store.true, existential), "states"
        step, all_know, ignorant, size = (
            lambda law: announce_symbolic(store, obs, law, ignorance),
            lambda law: label_symbolic(store, obs, law, [], everyone_knows),
            lambda law: store.eval(translate(store, obs, law, ignorance), actual),
            lambda law: store.count_sat(law, n),
        )

    click.echo(f"announced: someone is muddy; {size(state)} {unit} remain")
    done = all_know(state)
    k = 0
    while not done and k < limit and ignorant(state):
        state = step(state)
        k += 1
        done = all_know(state)
        click.echo(
            f"round {k}: nobody knew their own status; "
            f"{size(state)} {unit} remain; everyone knows: {'yes' if done else 'no'}"
        )

    if done:
        click.echo(f"everyone knows their own status after {k} rounds (expected {n - 1})")
    else:
        click.echo(f"stopped after {k} rounds without resolution")


if __name__ == "__main__":
    main()
