"""The benchmark's workloads.

Each workload is driven as a closed loop from one thread: one call into
epistle at a time, each waiting for the previous one.  A *pass* is the unit
the loop repeats, and every pass makes the same *operations* in the same
order:
- gen-*: one operation per setup bucket, generated and written, so a pass
  writes the whole dataset.  The checker's returns split a bucket into
  segments of a few hundred microseconds, the same work in every pass;
- label-mix: one operation per drawn problem, labeled by both backends;
- puzzle: one operation, a puzzle run per backend.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from epistle import backends, cli, generator, records
from epistle.dsl import print_formula
from epistle.generator import GenConfig

import prepare

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

OTHER = {"explicit": "symbolic", "symbolic": "explicit"}

# Labels re-derived by the other backend have hypotheses of at most this
# order: at 6 agents one order-3 hypothesis took the explicit backend 29 s
# on a 2-vCPU Xeon VM, which would push a run past its time limit.  Every
# label of gen-large at seed 7, order 3 included, matches the explicit
# backend through its reference hash.
RELABEL_MAX_ORDER = 2


def _label_fn(backend: str):
    # looked up at call time, so a traced run sees its wrapper
    return getattr(backends, f"{backend}_label")


def _segments(marks: list[float]) -> list[float]:
    return [b - a for a, b in zip(marks, marks[1:])]


@dataclass
class Pass:
    """One pass: each operation's seconds in pass order, split into segments
    that do the same work in every pass; wall seconds; what the pass
    produced; and, where every operation has the same segments, their
    names."""

    op_s: list[list[float]]
    wall_s: float
    output: object
    segment_names: tuple[str, ...] = ()


class GenWorkload:
    """``generate_balanced`` with one checker, then the dataset written out.

    Each setup bucket is its own call and its own file.  ``generate_balanced``
    fills the buckets one after another from independent substreams, so the
    files joined in setup order are the bytes of the whole dataset.
    """

    setup_module = "epistle"
    relabel_sample = 50

    def __init__(self, name: str, backend: str, **cfg):
        self.name, self.backend, self.cfg = name, backend, cfg

    def draw(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digest = None
        return []

    def prepare(self, _inputs):
        return GenConfig(seed=self.seed, **self.cfg)

    def _path(self, i: int) -> Path:
        return self.workdir / f"{self.name}-{i}.jsonl"

    def run(self, cfg: GenConfig, tracer) -> Pass:
        checker = _label_fn(self.backend)
        if tracer is not None:
            checker = tracer.checker(checker)
        marks: list[float] = []

        def marking(*args, **kwargs):
            verdict = checker(*args, **kwargs)
            marks.append(perf_counter())
            return verdict

        op_s, instances = [], []
        start = perf_counter()
        for i, setup in enumerate(cfg.setups):
            marks[:] = [perf_counter()]
            bucket = generator.generate_balanced(replace(cfg, setups=(setup,)), checker=marking)
            records.write_jsonl(map(records.record_from_instance, bucket), str(self._path(i)))
            marks.append(perf_counter())
            op_s.append(_segments(marks))
            instances += bucket
        wall = perf_counter() - start
        if tracer is not None:
            tracer.counts["generator.kept"] = len(instances)
            tracer.counts["records.bytes"] = sum(
                self._path(i).stat().st_size for i in range(len(cfg.setups))
            )
        return Pass(op_s, wall, instances)

    def _lines(self, cfg: GenConfig):
        for i in range(len(cfg.setups)):
            with open(self._path(i), "rb") as fh:
                yield from fh

    def check(self, cfg: GenConfig, done: Pass) -> list[str]:
        """The first pass gets every gate; later ones must repeat its bytes.

        The files are read a line at a time, and only a digest of each
        record's identity is kept, so the gates add little to
        ``peak_rss_mb``.
        """
        digest = hashlib.sha256()
        if self.digest is not None:
            for line in self._lines(cfg):
                digest.update(line)
            same = digest.hexdigest() == self.digest
            return [] if same else ["dataset bytes differ from the first pass"]
        problems = []
        instances = done.output
        balance, keys, n_rows = Counter(), set(), 0
        generated = iter(instances)
        for line in self._lines(cfg):
            digest.update(line)
            row = json.loads(line)
            n_rows += 1
            inst = next(generated, None)
            if inst is None or row["label"] != ("True" if inst.label else "False"):
                problems.append(f"record {n_rows}: written label differs from the instance")
            balance[row["setup"], row["label"]] += 1
            key = [row["setup"], row["n_agents"], row["premise_formulas"], row["hypothesis_formula"]]
            keys.add(hashlib.sha256(json.dumps(key).encode()).digest())
        self.digest = digest.hexdigest()
        expected = REFERENCE[self.name].get(str(self.seed))
        if expected is not None and self.digest != expected:
            problems.append(f"sha256 {self.digest} != reference {expected}")
        want = cfg.per_setup_count * len(cfg.setups)
        if n_rows != want or len(instances) != want:
            problems.append(f"{n_rows} records written, {len(instances)} generated, want {want}")
        half = cfg.per_setup_count // 2
        for setup in cfg.setups:
            for label in ("True", "False"):
                got = balance[setup.value, label]
                if got != half:
                    problems.append(f"{setup.value}: {got} {label} labels, want {half}")
        if len(keys) != n_rows:
            problems.append(f"{n_rows - len(keys)} duplicate records")
        other = _label_fn(OTHER[self.backend])
        cheap = [i for i in instances if i.hypothesis.order <= RELABEL_MAX_ORDER]
        step = max(1, len(cheap) // self.relabel_sample)
        for inst in cheap[::step]:
            anns = list(inst.announcement_formulas())
            if other(inst.obs, anns, inst.hypothesis.formula) != inst.label:
                problems.append(f"{OTHER[self.backend]} relabels {inst.setup.value} draw {inst.draw_index}")
        return problems

    def info(self, cfg: GenConfig, best_op_s: list[float]) -> tuple[dict, list]:
        written = cfg.per_setup_count * len(cfg.setups)
        return {"records_per_s": written / sum(best_op_s)}, []


class LabelMixWorkload:
    """Problems handed over as formula text; each labeled by the explicit
    backend, then by the symbolic one, each call timed."""

    setup_module = "epistle"
    count = 5000

    def __init__(self, name: str):
        self.name = name

    def draw(self, seed: int, workdir: Path):
        path = workdir / "problems.jsonl"
        self.drawn = []
        with open(path, "w", encoding="utf-8") as fh:
            for inst in generator.iter_problems(GenConfig(seed=seed), self.count):
                item = {
                    "obs": ["".join("1" if b else "0" for b in row) for row in inst.obs.rows],
                    "anns": [print_formula(f) for f in inst.announcement_formulas()],
                    "hyp": print_formula(inst.hypothesis.formula),
                }
                fh.write(json.dumps(item) + "\n")
                self.drawn.append(inst.label)
        return [str(path)]

    def prepare(self, inputs):
        return prepare.parse_problems(inputs[0])

    def run(self, problems, tracer) -> Pass:
        explicit, symbolic = _label_fn("explicit"), _label_fn("symbolic")
        op_s, labels = [], []
        start = perf_counter()
        for obs, anns, hyp in problems:
            t0 = perf_counter()
            e = explicit(obs, anns, hyp)
            t1 = perf_counter()
            s = symbolic(obs, anns, hyp)
            t2 = perf_counter()
            op_s.append([t1 - t0, t2 - t1])
            labels.append((e, s))
        names = ("label_explicit", "label_symbolic")
        return Pass(op_s, perf_counter() - start, labels, names)

    def check(self, problems, done: Pass) -> list[str]:
        """Both backends agree, and agree with the label the drawing gave."""
        return [
            f"problem {i}: explicit={e} symbolic={s} drawn={want}"
            for i, ((e, s), want) in enumerate(zip(done.output, self.drawn))
            if not e == s == want
        ]

    def info(self, problems, best_op_s: list[float]) -> tuple[dict, list]:
        return {"samples_per_pass": self.count}, []


_RESOLVED = re.compile(r"everyone knows their own status after (\d+) rounds")


def _puzzle(backend: str, n: int) -> tuple[float, str]:
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        cli.puzzle.callback(n=n, rounds=None, backend=backend)
    return perf_counter() - start, out.getvalue()


class PuzzleWorkload:
    """``epistle puzzle`` on each backend: everyone muddy, the existential
    announcement, then ignorance rounds until everyone knows.

    The input is fixed by the sizes; the seed changes nothing.
    """

    setup_module = "epistle.cli"

    def __init__(self, name: str, sizes: dict[str, int], sweep: dict[str, tuple[int, ...]]):
        self.name, self.sizes, self.sweep = name, sizes, sweep

    def draw(self, seed: int, workdir: Path):
        return []

    def prepare(self, _inputs):
        return self.sizes

    def run(self, sizes: dict[str, int], tracer) -> Pass:
        """One operation: one run to resolution per backend, back to back."""
        segments, outputs = [], []
        start = perf_counter()
        for backend, n in sizes.items():
            wall, text = _puzzle(backend, n)
            segments.append(wall)
            outputs.append((n, text))
        wall = perf_counter() - start
        names = tuple(f"puzzle_{backend}_n{n}" for backend, n in sizes.items())
        return Pass([segments], wall, outputs, names)

    def check(self, sizes, done: Pass) -> list[str]:
        problems = []
        for n, text in done.output:
            found = _RESOLVED.search(text)
            if found is None:
                problems.append(f"n={n}: not resolved")
            elif int(found.group(1)) != n - 1:
                problems.append(f"n={n}: resolved after {found.group(1)} rounds, want {n - 1}")
        return problems

    def info(self, sizes, best_op_s: list[float]) -> tuple[dict, list]:
        """Ungated per-n times, and the ``(state, pass)`` pairs of the extra
        runs that made them: one run at each other size."""
        extra = [({b: n}, self.run({b: n}, None)) for b, ns in self.sweep.items() for n in ns]
        times = {}
        for _, done in extra:
            times.update({f"{k}_ms": v * 1e3 for k, v in zip(done.segment_names, done.op_s[0])})
        return times, extra


WORKLOADS = {
    w.name: w
    for w in (
        GenWorkload("gen-default", "explicit"),
        LabelMixWorkload("label-mix"),
        GenWorkload(
            "gen-large", "symbolic", n_agents_choices=(6,), max_order=3, per_setup_count=100
        ),
        PuzzleWorkload(
            "puzzle",
            sizes={"explicit": 9, "symbolic": 32},
            sweep={"explicit": (8, 10), "symbolic": (16, 24)},
        ),
    )
}
