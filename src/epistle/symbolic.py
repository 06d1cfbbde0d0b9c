"""Symbolic twin of the explicit checker.

A knowledge structure is a vocabulary of propositions, a state law (a
decision diagram whose satisfying assignments are the live worlds), and one
observed-variable set per agent.  Agent ``a`` knows ``f`` at a state exactly
when ``f`` holds at every state of the law agreeing with it on ``a``'s
observed variables, which the translation expresses as universal
quantification over the hidden variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """Vocabulary ``0..n_props-1``, state law, per-agent observed variables."""

    store: DdStore
    n_props: int
    state_law: DdNode
    obs_vars: tuple[frozenset[int], ...]

    def __post_init__(self):
        for i, observed in enumerate(self.obs_vars):
            if observed and (min(observed) < 0 or max(observed) >= self.n_props):
                raise ValueError(f"agent {i} observes variables outside the vocabulary")

    @classmethod
    def from_observability(
        cls, store: DdStore, obs: ObservabilityMatrix
    ) -> "KnowledgeStructure":
        """Initial structure: unconstrained law, observations from the matrix."""
        return cls(store, obs.n, store.true, _observed(obs))

    def live_count(self) -> int:
        return self.store.count_sat(self.state_law, self.n_props)


@lru_cache(maxsize=256)
def _observed(obs: ObservabilityMatrix) -> tuple[frozenset[int], ...]:
    """Each agent's observed variables; matrices recur across labels."""
    return tuple(obs.observed(i) for i in range(obs.n))


@lru_cache(maxsize=256)
def _hidden(n_props: int, observed: frozenset[int]) -> tuple[int, ...]:
    """The variables an agent observing ``observed`` does not see, ascending."""
    return tuple(v for v in range(n_props) if v not in observed)


def _knows(ks: KnowledgeStructure, agent: int, x: DdNode) -> DdNode:
    """States where ``agent`` knows the diagram ``x``: ``∀ hidden (law → x)``."""
    store = ks.store
    hidden = _hidden(ks.n_props, ks.obs_vars[agent])  # already sorted and unique
    return store._forall(hidden, store.implies(ks.state_law, x))


def translate(ks: KnowledgeStructure, f: Formula) -> DdNode:
    """Diagram whose satisfying law-states are exactly the worlds where ``f``
    holds."""
    store = ks.store
    if isinstance(f, Atom):
        if f.prop >= ks.n_props:
            raise ValueError(f"proposition p{f.prop} outside vocabulary of {ks.n_props}")
        return store.var(f.prop)
    if isinstance(f, Not):
        return store.not_(translate(ks, f.child))
    if isinstance(f, And):
        return store.all_of(translate(ks, c) for c in f.children)
    if isinstance(f, Or):
        return store.any_of(translate(ks, c) for c in f.children)
    if isinstance(f, Implies):
        return store.implies(translate(ks, f.left), translate(ks, f.right))
    if isinstance(f, Knows):
        return _knows(ks, f.agent, translate(ks, f.child))
    if isinstance(f, KnowsWhether):
        # one translation of the child serves both disjuncts
        body = translate(ks, f.child)
        return store.or_(_knows(ks, f.agent, body), _knows(ks, f.agent, store.not_(body)))
    if isinstance(f, Announced):
        made = translate(ks, f.announcement)
        law = store.and_(ks.state_law, made)
        after = KnowledgeStructure(store, ks.n_props, law, ks.obs_vars)
        return store.implies(made, translate(after, f.continuation))
    raise TypeError(f"not a formula: {f!r}")


def announce_symbolic(ks: KnowledgeStructure, psi: Formula) -> KnowledgeStructure:
    """Conjoin the announced formula onto the state law."""
    made = translate(ks, psi)
    law = ks.store.and_(ks.state_law, made)
    return KnowledgeStructure(ks.store, ks.n_props, law, ks.obs_vars)


def is_contradictory_symbolic(ks0: KnowledgeStructure, anns: list[Formula]) -> bool:
    """True iff the law collapses to false at some announcement step."""
    ks = ks0
    for a in anns:
        ks = announce_symbolic(ks, a)
        if ks.state_law is ks.store.false:
            return True
    return False


def label_symbolic(ks0: KnowledgeStructure, anns: list[Formula], hyp: Formula) -> bool:
    """True iff the final law entails the hypothesis.

    Raises ``ContradictoryPremise`` when an announcement falsifies the law.
    """
    ks = ks0
    for i, a in enumerate(anns):
        ks = announce_symbolic(ks, a)
        if ks.state_law is ks.store.false:
            raise ContradictoryPremise(f"announcement {i + 1} falsifies the state law")
    entailed = ks.store.implies(ks.state_law, translate(ks, hyp))
    return entailed is ks.store.true
