"""The symbolic backend: the interpreter of ``epistle.kripke`` over a
``DdStore``.

A knowledge structure is a vocabulary of propositions (one per agent), a
state law (a decision diagram whose satisfying assignments are the live
worlds), and the observability matrix.  Here the state is the law alone,
passed beside the store it lives in and the matrix.  The store is the
algebra: its ``_forall`` quantifies over the matrix's ``hidden[a]``
variables for ``K_a``, and it carries the translation and step tables,
used for every matrix the process keeps, every store's bounded by
``kripke.TABLE_LIMIT``, ``puzzle``'s and a library caller's included.  Any
other matrix, such as a drawn one of four agents or more, serves one
problem and is translated without them.
"""

from __future__ import annotations

from .bdd import DdNode, DdStore
from .formula import Formula
from . import kripke
from .kripke import ObservabilityMatrix

__all__ = [
    "translate",
    "announce_symbolic",
    "is_contradictory_symbolic",
    "label_symbolic",
]


def translate(store: DdStore, obs: ObservabilityMatrix, law: DdNode, f: Formula) -> DdNode:
    """Diagram whose satisfying ``law``-states are exactly the worlds where
    ``f`` holds."""
    return kripke._eval(store, obs, law, f)


def announce_symbolic(
    store: DdStore, obs: ObservabilityMatrix, law: DdNode, psi: Formula
) -> DdNode:
    """Conjoin the announced formula onto the state law: ``law ∧ ⟦psi⟧``."""
    return kripke._step(store, obs, law, psi)


def is_contradictory_symbolic(
    store: DdStore, obs: ObservabilityMatrix, law: DdNode, anns: list[Formula]
) -> bool:
    """True iff the law collapses to false at some announcement step."""
    return kripke._contradictory(store, obs, law, anns)


# The fold itself rather than a delegation, as a store is the algebra it
# folds in: a symbolic label is on the hot path of ``check`` and
# ``crosscheck``, where the extra call cost label-mix about 4%.
label_symbolic = kripke._label
