"""Symbolic twin of the explicit checker.

A knowledge structure is a vocabulary of propositions (one per agent), a
state law (a decision diagram whose satisfying assignments are the live
worlds), and the observability matrix.  Here the state is the law alone,
passed beside the store it lives in and the matrix.  Agent ``a`` knows ``f``
at a state exactly when ``f`` holds at every state of the law agreeing with
it on ``a``'s observed variables, which the translation expresses as
universal quantification over the matrix's ``hidden[a]`` variables.

The translation takes the law it works under as an argument, so a label
folds its announcements into one local law (as the explicit backend folds a
mask of live worlds).  A proposition or agent index outside ``0..n-1`` is a
``ValueError``, as on the explicit backend.

The store keeps a translation table beside its ``ite`` and ``forall``
caches.  It maps ``(obs.key, law, subformula)`` to the translated diagram
for every subformula but atoms (one ``var`` lookup anyway), negations
included, and only for a matrix the process keeps (``key`` is not
``None``): every one of at most three agents and every agent-symmetric
one, as each fixed setup's is.  Any other matrix, such as a drawn one of
four agents or more, serves one problem and is translated without the
table.  ``translate`` dispatches on the node's exact class, atoms before
the table (an instance of a subclass is not a formula), and recurses
through its module-level name, so a wrapper installed under that name sees
every call.  A translation that raises enters nothing.  A table past
``kripke.TABLE_LIMIT`` entries is emptied, so every store's table is
bounded, ``puzzle``'s and a library caller's included.

Beside it, under the same key and rules, ``announce_symbolic`` enters the
state step ``law ∧ ⟦f⟧`` in the store's step table, as ``kripke._eval``
returns ``live ∩ ⟦f⟧``.  A label folds its announcements through the step
and holds when the hypothesis's step leaves the law as it is (diagrams are
canonical), so announcements and hypotheses share entries.
"""

from __future__ import annotations

from .bdd import DdNode, DdStore
from .errors import ContradictoryPremise
from .formula import (
    And,
    Announced,
    Atom,
    Formula,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
)
from . import kripke
from .kripke import ObservabilityMatrix

__all__ = [
    "translate",
    "announce_symbolic",
    "is_contradictory_symbolic",
    "label_symbolic",
]


def _knows(store: DdStore, obs: ObservabilityMatrix, agent: int, law: DdNode, x: DdNode) -> DdNode:
    """States where ``agent`` knows ``x`` under ``law``: ``∀ hidden (law → x)``."""
    if not 0 <= agent < obs.n:
        raise ValueError(f"agent {agent} outside vocabulary of {obs.n}")
    return store._forall(obs.hidden[agent], store.implies(law, x))


def translate(store: DdStore, obs: ObservabilityMatrix, law: DdNode, f: Formula) -> DdNode:
    """Diagram whose satisfying ``law``-states are exactly the worlds where
    ``f`` holds; found in, or entered into, the store's translation table."""
    kind = type(f)
    if kind is Atom:
        if not 0 <= f.prop < obs.n:
            raise ValueError(f"proposition p{f.prop} outside vocabulary of {obs.n}")
        return store.var(f.prop)
    key = obs.key
    if key is not None:
        key = (key, law, f)
        out = store._translate_cache.get(key)
        if out is not None:
            return out
    if kind is Not:
        out = store.not_(translate(store, obs, law, f.child))
    elif kind is And:
        out = store.true
        for c in f.children:
            out = store.and_(out, translate(store, obs, law, c))
    elif kind is Or:
        out = store.false
        for c in f.children:
            out = store.or_(out, translate(store, obs, law, c))
    elif kind is Implies:
        out = store.implies(
            translate(store, obs, law, f.left), translate(store, obs, law, f.right)
        )
    elif kind is Knows:
        out = _knows(store, obs, f.agent, law, translate(store, obs, law, f.child))
    elif kind is KnowsWhether:
        # one translation of the child serves both disjuncts
        body = translate(store, obs, law, f.child)
        out = store.or_(
            _knows(store, obs, f.agent, law, body),
            _knows(store, obs, f.agent, law, store.not_(body)),
        )
    elif kind is Announced:
        made = translate(store, obs, law, f.announcement)
        out = store.implies(made, translate(store, obs, store.and_(law, made), f.continuation))
    else:
        raise TypeError(f"not a formula: {f!r}")
    if key is not None:
        table = store._translate_cache
        table[key] = out
        if len(table) > kripke.TABLE_LIMIT:
            table.clear()
    return out


def announce_symbolic(
    store: DdStore, obs: ObservabilityMatrix, law: DdNode, psi: Formula
) -> DdNode:
    """Conjoin the announced formula onto the state law: ``law ∧ ⟦psi⟧``,
    found in, or entered into, the store's step table."""
    key = obs.key
    if key is not None:
        key = (key, law, psi)
        out = store._step_cache.get(key)
        if out is not None:
            return out
    out = store.and_(law, translate(store, obs, law, psi))
    if key is not None:
        table = store._step_cache
        table[key] = out
        if len(table) > kripke.TABLE_LIMIT:
            table.clear()
    return out


def _announce_all(
    store: DdStore, obs: ObservabilityMatrix, law: DdNode, anns: list[Formula]
) -> DdNode | int:
    """The state law after ``anns``, or the index of the first announcement
    that falsifies it."""
    for i, a in enumerate(anns):
        law = announce_symbolic(store, obs, law, a)
        if law is store.false:
            return i
    return law


def is_contradictory_symbolic(
    store: DdStore, obs: ObservabilityMatrix, law: DdNode, anns: list[Formula]
) -> bool:
    """True iff the law collapses to false at some announcement step."""
    return isinstance(_announce_all(store, obs, law, anns), int)


def label_symbolic(
    store: DdStore, obs: ObservabilityMatrix, law: DdNode, anns: list[Formula], hyp: Formula
) -> bool:
    """True iff the law after the announcements entails the hypothesis.

    Raises ``ContradictoryPremise`` when an announcement falsifies the law.
    """
    law = _announce_all(store, obs, law, anns)
    if isinstance(law, int):
        raise ContradictoryPremise(f"announcement {law + 1} falsifies the state law")
    # diagrams are canonical: law ∧ ⟦hyp⟧ is law exactly when law entails hyp
    return announce_symbolic(store, obs, law, hyp) is law
