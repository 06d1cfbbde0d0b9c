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

Each entry point is the interpreter's own function, called with the store
as its algebra, bound here under the name its callers use:

- ``translate(store, obs, law, f)`` is ``kripke._eval``: the diagram whose
  satisfying ``law``-states are exactly the worlds where ``f`` holds;
- ``announce_symbolic(store, obs, law, psi)`` is ``kripke._step``: the law
  after announcing ``psi``, ``law ∧ ⟦psi⟧``;
- ``is_contradictory_symbolic(store, obs, law, anns)`` is
  ``kripke._contradictory``: true iff the law collapses to false at some
  announcement step;
- ``label_symbolic(store, obs, law, anns, hyp)`` is ``kripke._label``.
"""

from . import kripke

__all__ = ["translate", "announce_symbolic", "is_contradictory_symbolic", "label_symbolic"]

translate = kripke._eval
announce_symbolic = kripke._step
is_contradictory_symbolic = kripke._contradictory
label_symbolic = kripke._label
