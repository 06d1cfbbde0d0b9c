"""Uniform entry points over the two checking backends.

A checker takes an observability matrix, the announcement formulas in order,
and a hypothesis; it returns the boolean label or raises
``ContradictoryPremise``.  That outcome is the one contradiction test: the
generator rejects a draw on it and ``check`` reports it.
"""

from __future__ import annotations

import threading
from typing import Callable

from .bdd import DdStore
from .errors import BackendMismatch, ContradictoryPremise, StoreCapacity
from .formula import Formula
# is_contradictory and is_contradictory_symbolic are not called here; the
# benchmark's tracer (bench/tracing.py) patches them under these names.
from .kripke import ObservabilityMatrix, build_initial_model, is_contradictory, label
from .symbolic import is_contradictory_symbolic, label_symbolic

__all__ = [
    "Checker",
    "explicit_label",
    "symbolic_label",
    "both_label",
    "get_checker",
    "outcome",
]

Checker = Callable[[ObservabilityMatrix, list[Formula], Formula], bool]

# Nodes a thread's store may still hold when a symbolic call ends and be kept
# for the next one; a larger store is dropped, since nodes are never freed.
# Kept across all 5,000 label-mix problems (n=2-3), the store ends at 83-102
# nodes at seeds 1, 2, 3, 7, 13 and 42 (95 at seed 7, with 1,086 ite and 218
# forall cache entries), and across the n=6, max_order=3 generation
# (gen-large) at 727 nodes.  Generation at n=16 and n=20 (max_order=4, 400
# per setup) passes the limit and drops the store once and three times.
# Nodes, cache entries and both tables together take about 0.67 KB per node
# (11.0 MB freed under tracemalloc when n=16 generation drops a store of
# 16,392 nodes and 9,775 steps), so 2^14 caps what a thread holds between
# calls at about 11 MB.
RETAINED_NODE_LIMIT = 1 << 14

_thread = threading.local()


def explicit_label(obs: ObservabilityMatrix, anns: list[Formula], hyp: Formula) -> bool:
    return label(obs, build_initial_model(obs), anns, hyp)


def symbolic_label(obs: ObservabilityMatrix, anns: list[Formula], hyp: Formula) -> bool:
    """``label_symbolic`` from the unconstrained state law, on this thread's
    retained store; the whole retention and retry policy is here.

    Diagrams are canonical within a store, so a retained store gives the
    same answers as a fresh one.  A store left with more than
    ``RETAINED_NODE_LIMIT`` nodes, or full (it raised ``StoreCapacity``), is
    dropped.  ``StoreCapacity`` on a store that earlier calls left non-empty
    labels once more on a fresh store; from a fresh store it propagates.
    """
    store = getattr(_thread, "store", None)
    if store is None:
        store = _thread.store = DdStore()
    held = store._count > 2  # nodes beyond the two terminals
    try:
        return label_symbolic(store, obs, store.true, anns, hyp)
    except StoreCapacity:
        if not held:
            raise
    finally:
        if store._count > RETAINED_NODE_LIMIT or store._count >= store.capacity:
            _thread.store = None
    return symbolic_label(obs, anns, hyp)  # the store was full, so this one is fresh


def outcome(checker: Checker, obs, anns, hyp) -> bool | str:
    """``checker``'s label, or ``"contradictory"`` when it finds the
    announcements contradictory."""
    try:
        return checker(obs, anns, hyp)
    except ContradictoryPremise:
        return "contradictory"


def both_label(obs: ObservabilityMatrix, anns: list[Formula], hyp: Formula) -> bool:
    """Label with both backends.  Outcomes that differ raise
    ``BackendMismatch``, and a contradiction found by both raises
    ``ContradictoryPremise``."""
    explicit = outcome(explicit_label, obs, anns, hyp)
    symbolic = outcome(symbolic_label, obs, anns, hyp)
    if explicit != symbolic:
        raise BackendMismatch(f"explicit={explicit} symbolic={symbolic} for the same problem")
    if explicit == "contradictory":
        raise ContradictoryPremise("both backends find the announcements contradictory")
    return explicit


_CHECKERS: dict[str, Checker] = {
    "explicit": explicit_label,
    "symbolic": symbolic_label,
    "both": both_label,
}


def get_checker(name: str) -> Checker:
    try:
        return _CHECKERS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}") from None
