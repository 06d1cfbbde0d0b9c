"""Symbolic twin of the explicit checker.

A knowledge structure is a vocabulary of propositions (one per agent), a
state law (a decision diagram whose satisfying assignments are the live
worlds), and the observability matrix.  Agent ``a`` knows ``f`` at a state
exactly when ``f`` holds at every state of the law agreeing with it on
``a``'s observed variables, which the translation expresses as universal
quantification over the matrix's ``hidden[a]`` variables.

The translation takes the law it works under as an argument, so a label
folds its announcements into one local law (as the explicit backend folds a
mask of live worlds) and builds no structure per step.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .kripke import ObservabilityMatrix

__all__ = [
    "KnowledgeStructure",
    "translate",
    "announce_symbolic",
    "is_contradictory_symbolic",
    "label_symbolic",
]


@dataclass(frozen=True)
class KnowledgeStructure:
    """Vocabulary ``0..obs.n-1``, observability matrix, state law."""

    store: DdStore
    obs: ObservabilityMatrix
    state_law: DdNode

    @classmethod
    def from_observability(
        cls, store: DdStore, obs: ObservabilityMatrix
    ) -> "KnowledgeStructure":
        """Initial structure: unconstrained law, observations from the matrix."""
        return cls(store, obs, store.true)

    def live_count(self) -> int:
        return self.store.count_sat(self.state_law, self.obs.n)


def _knows(ks: KnowledgeStructure, agent: int, law: DdNode, x: DdNode) -> DdNode:
    """States where ``agent`` knows the diagram ``x`` under ``law``:
    ``∀ hidden (law → x)``."""
    store = ks.store
    return store._forall(ks.obs.hidden[agent], store.implies(law, x))


def translate(ks: KnowledgeStructure, f: Formula, law: DdNode | None = None) -> DdNode:
    """Diagram whose satisfying ``law``-states are exactly the worlds where
    ``f`` holds; ``law`` defaults to the structure's state law."""
    if law is None:
        law = ks.state_law
    store = ks.store
    if isinstance(f, Atom):
        if f.prop >= ks.obs.n:
            raise ValueError(f"proposition p{f.prop} outside vocabulary of {ks.obs.n}")
        return store.var(f.prop)
    if isinstance(f, Not):
        return store.not_(translate(ks, f.child, law))
    if isinstance(f, And):
        out = store.true
        for c in f.children:
            out = store.and_(out, translate(ks, c, law))
        return out
    if isinstance(f, Or):
        out = store.false
        for c in f.children:
            out = store.or_(out, translate(ks, c, law))
        return out
    if isinstance(f, Implies):
        return store.implies(translate(ks, f.left, law), translate(ks, f.right, law))
    if isinstance(f, Knows):
        return _knows(ks, f.agent, law, translate(ks, f.child, law))
    if isinstance(f, KnowsWhether):
        # one translation of the child serves both disjuncts
        body = translate(ks, f.child, law)
        return store.or_(
            _knows(ks, f.agent, law, body), _knows(ks, f.agent, law, store.not_(body))
        )
    if isinstance(f, Announced):
        made = translate(ks, f.announcement, law)
        return store.implies(made, translate(ks, f.continuation, store.and_(law, made)))
    raise TypeError(f"not a formula: {f!r}")


def announce_symbolic(ks: KnowledgeStructure, psi: Formula) -> KnowledgeStructure:
    """Conjoin the announced formula onto the state law."""
    made = translate(ks, psi)
    return KnowledgeStructure(ks.store, ks.obs, ks.store.and_(ks.state_law, made))


def _announce_all(ks: KnowledgeStructure, anns: list[Formula]) -> DdNode | int:
    """The state law after ``anns``, or the index of the first announcement
    that falsifies it."""
    store = ks.store
    law = ks.state_law
    for i, a in enumerate(anns):
        law = store.and_(law, translate(ks, a, law))
        if law is store.false:
            return i
    return law


def is_contradictory_symbolic(ks0: KnowledgeStructure, anns: list[Formula]) -> bool:
    """True iff the law collapses to false at some announcement step."""
    return isinstance(_announce_all(ks0, anns), int)


def label_symbolic(ks0: KnowledgeStructure, anns: list[Formula], hyp: Formula) -> bool:
    """True iff the final law entails the hypothesis.

    Raises ``ContradictoryPremise`` when an announcement falsifies the law.
    """
    law = _announce_all(ks0, anns)
    if isinstance(law, int):
        raise ContradictoryPremise(f"announcement {law + 1} falsifies the state law")
    store = ks0.store
    return store.implies(law, translate(ks0, hyp, law)) is store.true
