"""Per-layer counts and times, taken from outside the program.

``Tracer.installed()`` replaces the public functions of the epistle layers
with wrappers for the duration of a ``with`` block and restores them after.
Each wrapper is installed on every name a caller looks the function up by:
``generator``, ``backends`` and ``cli`` import kripke and symbolic functions
by name, so patching the defining module alone would miss those calls.

Two kinds of wrapper:

* count-only, for the hot recursive functions (``kripke._eval``,
  ``DdStore.ite``, ``DdStore._forall``): one dictionary increment per call,
  recursion included;
* spans, for layer boundaries.  A span charges the time between two span
  events to the layer on top of the span stack, so each layer's ``.s``
  figure is its self time: ``records.s`` excludes the verbalize and dsl
  work ``record_from_instance`` calls into.  A call into the layer already
  on top only counts, which keeps recursive ``translate`` cheap.

The generator stages (``sample``, ``filter``, ``label``) are timed
inclusively instead: ``generator.filter_s`` is all time spent inside the
contradiction filter, kripke work included.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["Tracer", "LAYER_METRICS"]

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "generator.draws": "count",
    "generator.rejected_contradictory": "count",
    "generator.labeled": "count",
    "generator.discarded_after_label": "count",
    "generator.kept_ratio": "ratio",
    "generator.sample_s": "s",
    "generator.filter_s": "s",
    "generator.label_s": "s",
    "kripke.eval_calls": "count",
    "kripke.announce_calls": "count",
    "kripke.s": "s",
    "bdd.stores": "count",
    "bdd.nodes": "count",
    "bdd.ite_calls": "count",
    "bdd.forall_calls": "count",
    "bdd.ite_miss_ratio": "ratio",
    "bdd.forall_cache_entries": "count",
    "symbolic.translate_calls": "count",
    "symbolic.s": "s",
    "verbalize.s": "s",
    "records.s": "s",
    "records.bytes": "B",
    "dsl.print_s": "s",
    "dsl.parse_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Counters, span stack and the list of installed patches."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.stage_s: defaultdict = defaultdict(float)
        self.stores: list = []
        self._stack: list[str] = []
        self._mark = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every figure; call between passes."""
        self.counts.clear()
        self.self_s.clear()
        self.stage_s.clear()
        self.stores.clear()

    # -- wrappers ------------------------------------------------------------

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, layer: str, fn, count: str | None = None):
        counts, self_s, stack = self.counts, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if stack and stack[-1] == layer:
                return fn(*args, **kwargs)
            now = perf_counter()
            if stack:
                self_s[stack[-1]] += now - self._mark
            stack.append(layer)
            self._mark = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[layer] += now - self._mark
                stack.pop()
                self._mark = now

        return wrapper

    def stage(self, name: str, fn, count: str | None = None):
        """Inclusive timer for one generator stage; stages never nest."""
        counts, stage_s = self.counts, self.stage_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stage_s[name] += perf_counter() - start

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        if not hasattr(owner, attr):
            raise AttributeError(f"trace hook {getattr(owner, '__name__', owner)}.{attr} not found")
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_all(self, wrapper, owners, attr: str) -> None:
        for owner in owners:
            self._patch(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the epistle layers for the duration of the block."""
        from epistle import backends, bdd, cli, dsl, generator, kripke, records, symbolic

        try:
            self._install(backends, bdd, cli, dsl, generator, kripke, records, symbolic)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _install(self, backends, bdd, cli, dsl, generator, kripke, records, symbolic):
        # kripke: one wrapper per function, installed wherever it is looked up
        self._patch(kripke, "_eval", self.counted("kripke.eval_calls", kripke._eval))
        users = {
            "build_initial_model": (kripke, backends, cli),
            "evaluate": (kripke, cli),
            "announce": (kripke, cli),
            "is_contradictory": (kripke, backends),
            "label": (kripke, backends, cli),
        }
        spans = {}
        for name, owners in users.items():
            count = "kripke.announce_calls" if name == "announce" else None
            spans[name] = self.span("kripke", getattr(kripke, name), count)
            self._patch_all(spans[name], owners, name)
        # the contradiction filter as the generator sees it
        for name in ("build_initial_model", "is_contradictory"):
            self._patch(generator, name, self.stage("filter", spans[name]))

        # symbolic
        users = {
            "translate": (symbolic, cli),
            "announce_symbolic": (symbolic, cli),
            "is_contradictory_symbolic": (symbolic, backends),
            "label_symbolic": (symbolic, backends),
        }
        for name, owners in users.items():
            count = "symbolic.translate_calls" if name == "translate" else None
            self._patch_all(self.span("symbolic", getattr(symbolic, name), count), owners, name)

        # bdd: count-only, plus a registry of the stores made during a pass
        store_cls = bdd.DdStore
        self._patch(store_cls, "ite", self.counted("bdd.ite_calls", store_cls.ite))
        self._patch(store_cls, "_forall", self.counted("bdd.forall_calls", store_cls._forall))
        init, stores = store_cls.__init__, self.stores

        @functools.wraps(init)
        def register(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append(store)

        self._patch(store_cls, "__init__", register)

        # generator: draws by outcome, and the sampling stage
        make_problem, rejected_cls, counts = generator.make_problem, generator.Rejected, self.counts

        @functools.wraps(make_problem)
        def draw(*args, **kwargs):
            result = make_problem(*args, **kwargs)
            counts["generator.draws"] += 1
            if isinstance(result, rejected_cls):
                counts[f"generator.rejected_{result.reason}"] += 1
            return result

        self._patch(generator, "make_problem", draw)
        for name in ("sample_observability", "sample_announcement", "sample_hypothesis"):
            self._patch(generator, name, self.stage("sample", getattr(generator, name)))

        # rendering and serialization
        for owner, name in (
            (generator, "announcement_clause"),
            (generator, "render_hypothesis"),
            (records, "render_premise"),
        ):
            self._patch(owner, name, self.span("verbalize", getattr(owner, name)))
        for name in ("record_from_instance", "write_jsonl"):
            self._patch(records, name, self.span("records", getattr(records, name)))
        self._patch(records, "print_formula", self.span("dsl.print", records.print_formula))
        self._patch(dsl, "parse_formula", self.span("dsl.parse", dsl.parse_formula))

    def checker(self, fn):
        """The labeling stage; the generator takes its checker as an argument."""
        return self.stage("label", fn, count="generator.labeled")

    # -- results ---------------------------------------------------------------

    def pass_figures(self) -> dict[str, float]:
        """Per-layer figures of the pass since the last ``reset``.

        ``generator.kept`` and ``records.bytes`` are set by the workload,
        which alone sees the pass output.
        """
        c = self.counts
        draws, labeled, kept = c["generator.draws"], c["generator.labeled"], c["generator.kept"]
        ite_calls = c["bdd.ite_calls"]
        ite_entries = sum(len(s._ite_cache) for s in self.stores)
        return {
            "generator.draws": draws,
            "generator.rejected_contradictory": c["generator.rejected_contradictory"],
            "generator.labeled": labeled,
            "generator.discarded_after_label": labeled - kept,
            "generator.kept_ratio": kept / draws if draws else 0.0,
            "generator.sample_s": self.stage_s["sample"],
            "generator.filter_s": self.stage_s["filter"],
            "generator.label_s": self.stage_s["label"],
            "kripke.eval_calls": c["kripke.eval_calls"],
            "kripke.announce_calls": c["kripke.announce_calls"],
            "kripke.s": self.self_s["kripke"],
            "bdd.stores": len(self.stores),
            "bdd.nodes": sum(len(s) for s in self.stores),
            "bdd.ite_calls": ite_calls,
            "bdd.forall_calls": c["bdd.forall_calls"],
            "bdd.ite_miss_ratio": ite_entries / ite_calls if ite_calls else 0.0,
            "bdd.forall_cache_entries": sum(len(s._forall_cache) for s in self.stores),
            "symbolic.translate_calls": c["symbolic.translate_calls"],
            "symbolic.s": self.self_s["symbolic"],
            "verbalize.s": self.self_s["verbalize"],
            "records.s": self.self_s["records"],
            "records.bytes": c["records.bytes"],
            "dsl.print_s": self.self_s["dsl.print"],
        }
