"""Structured statement and belief descriptions.

These sit between sampling and rendering: a statement is a subject plus a
predicate polarity, and an expression wraps a statement in zero or more
belief layers.  Both the formula translation and every English surface form
derive from them, which keeps text and logic in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Formula, Knows, KnowsWhether, Not, Subject, desugar_subject

__all__ = ["StatementSpec", "BeliefLayer", "ExpressionSpec"]


@dataclass(frozen=True)
class StatementSpec:
    """A bare predicate statement: who it is about and its polarity."""

    subject: Subject
    negated: bool = False


@dataclass(frozen=True)
class BeliefLayer:
    """One knowledge operator: the knower, the verb form, and whether the
    whole operator is negated ("does not know" / "cannot know")."""

    knower: int
    whether: bool
    negated: bool = False


@dataclass(frozen=True)
class ExpressionSpec:
    """A statement under belief layers, outermost layer first."""

    layers: tuple[BeliefLayer, ...]
    statement: StatementSpec

    @property
    def order(self) -> int:
        """Belief order; zero for a bare statement."""
        return len(self.layers)

    def to_formula(self, n: int) -> Formula:
        f = desugar_subject(self.statement.subject, self.statement.negated, n)
        for layer in reversed(self.layers):
            node = (KnowsWhether if layer.whether else Knows)(layer.knower, f)
            f = Not(node) if layer.negated else node
        return f
