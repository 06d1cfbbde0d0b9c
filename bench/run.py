"""Run one benchmark workload against the epistle checkout this file sits in.

    python3 bench/run.py --workload gen-default --seed 7 --seconds 40 --trace 0

epistle is imported from ``src/`` of that checkout, never from an installed
copy, so two checkouts are measured with identical benchmark code.  The run
prints its metadata, a readable summary and, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer figures of a traced run.

Exit codes: 0 when every correctness gate passed, 1 when one failed or the
program raised, 2 for bad arguments or a checkout without ``src/epistle``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from stats import median, percentile, samples_beyond

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s, spread over the run; the median is
# reported.
SETUP_REPEATS = 11
# Fewest timed passes in a run, however long a pass takes.
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "ops_per_s": "1/s"}


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def setup_probe(wl, inputs: list[str]) -> float:
    """Wall time of a fresh interpreter importing epistle and preparing the
    workload's inputs."""
    argv = [sys.executable, str(BENCH_DIR / "prepare.py"), str(SRC), wl.setup_module, *inputs]
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class Tally:
    """Operations attempted and failed, over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, wl, state, done) -> None:
        problems = wl.check(state, done)
        self.attempted += len(done.op_s)
        self.failed += min(len(problems), len(done.op_s))
        for line in problems[:5]:
            print(f"bench: {wl.name}: {line}", file=sys.stderr)

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"bench: {message}", file=sys.stderr)


def _keep_best(best: list | None, new: list) -> list:
    """Elementwise minimum of two passes' times, nested lists included."""
    if best is None:
        return new
    if len(best) != len(new):
        raise ValueError("a pass split its work differently from the first")
    return [_keep_best(b, n) if isinstance(n, list) else min(b, n) for b, n in zip(best, new)]


def end_to_end(wl, inputs, state, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Passes for at least ``seconds``, with the set-up probes spread among
    them.  Each segment of each operation keeps its best time over the
    passes, and an operation's time is the sum of its segments' best times.
    Memory does not grow with the number of passes."""
    best_segments, setup_s, passes = None, [], 0
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        due = len(setup_s) * seconds / SETUP_REPEATS
        if len(setup_s) < SETUP_REPEATS and perf_counter() - start >= due:
            setup_s.append(setup_probe(wl, inputs))
        gc.collect()
        done = wl.run(state, None)
        tally.check(wl, state, done)
        best_segments = _keep_best(best_segments, done.op_s)
        passes += 1
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(setup_probe(wl, inputs))
    best_op_s = [sum(segments) for segments in best_segments]
    names = done.segment_names

    metrics = {
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": percentile(best_op_s, 50) * 1e3,
        "ops_per_s": len(best_op_s) / sum(best_op_s),
    }
    info, extra = wl.info(state, best_op_s)
    for extra_state, done in extra:
        tally.check(wl, extra_state, done)
    # each named segment's p50 and, where 10 samples lie beyond it, p99
    for i, name in enumerate(names):
        segment_s = [segments[i] for segments in best_segments]
        info[f"{name}_p50_ms"] = percentile(segment_s, 50) * 1e3
        if samples_beyond(len(segment_s), 99) >= 10:
            info[f"{name}_p99_ms"] = percentile(segment_s, 99) * 1e3
    info["passes"] = passes
    return metrics, info


def traced(wl, inputs, state, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced passes in alternation, for at least ``seconds``.

    The order within each pair swaps from one pair to the next, so a change
    in machine speed during the run falls on both sides alike.
    """
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    with tracer.installed():
        tracer.reset()
        wl.prepare(inputs)
        parse_s = tracer.self_s["dsl.parse"]
    figures, overhead_s = [], []
    start = perf_counter()
    while len(figures) < MIN_PASSES or perf_counter() - start < seconds:
        wall = {}
        for with_trace in (False, True) if len(figures) % 2 == 0 else (True, False):
            gc.collect()
            if with_trace:
                with tracer.installed():
                    tracer.reset()
                    done = wl.run(state, tracer)
                figures.append(tracer.pass_figures())
            else:
                done = wl.run(state, None)
            tally.check(wl, state, done)
            wall[with_trace] = done.wall_s
        overhead_s.append(wall[True] - wall[False])

    counts = [k for k, unit in LAYER_METRICS.items() if unit != "s" and k in figures[0]]
    if any(f[k] != figures[0][k] for f in figures[1:] for k in counts):
        tally.fail(f"{wl.name}: per-layer counts differ between traced passes")
    metrics = {
        k: median([f[k] for f in figures]) if unit == "s" else figures[0][k]
        for k, unit in LAYER_METRICS.items()
        if k in figures[0]
    }
    metrics["dsl.parse_s"] = parse_s
    metrics["trace.overhead_s"] = median(overhead_s)
    return metrics, {"pairs": len(overhead_s)}


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict, Tally]:
    tally = Tally()
    inputs = wl.draw(seed, workdir)
    state = wl.prepare(inputs)
    tally.check(wl, state, wl.run(state, None))  # warm-up: checked, not timed
    if trace:
        metrics, info = traced(wl, inputs, state, seconds, tally)
    else:
        metrics, info = end_to_end(wl, inputs, state, seconds, tally)
    return metrics, info, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epistle" / "__init__.py").is_file():
        print(f"bench: no epistle package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import epistle

    if Path(epistle.__file__).resolve().parent != SRC / "epistle":
        print(f"bench: imported epistle from {epistle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(json.dumps({"meta": metadata(args.seed), "workload": wl.name, "trace": args.trace}))
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
            metrics, info, tally = measure(wl, args.seed, args.seconds, bool(args.trace), Path(tmp))
    except Exception as exc:  # the program raised: report it as one failed run
        print(f"bench: {wl.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        from tracing import LAYER_METRICS as units
    else:
        units = END_TO_END
    for key, value in info.items():
        print(f"info {key} = {value}")
    for key, value in metrics.items():
        print(f"{key} = {value} {units[key]}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
