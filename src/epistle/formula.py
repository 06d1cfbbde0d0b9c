"""Epistemic formula trees.

A formula is an immutable tree built from atoms (one boolean proposition per
agent), the usual boolean connectives, per-agent knowledge operators, and a
public-announcement operator.  ``And``/``Or`` are n-ary so that quantified
subjects ("everyone is thirsty") desugar to flat conjunctions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Union

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Knows",
    "KnowsWhether",
    "Announced",
    "Formula",
    "Quantifier",
    "Subject",
    "conj",
    "disj",
    "negated",
    "desugar_subject",
]


@dataclass(frozen=True)
class Atom:
    """Proposition ``p<prop>`` -- the predicate about agent ``prop``."""

    prop: int


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("And requires at least one child")


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("Or requires at least one child")


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Knows:
    """Agent ``agent`` knows that ``child`` holds."""

    agent: int
    child: "Formula"


@dataclass(frozen=True)
class KnowsWhether:
    """Agent ``agent`` knows whether ``child`` holds.

    Semantically equal to ``Knows(a, f) | Knows(a, ~f)``; kept as its own node
    because the surface language distinguishes the two verb forms.
    """

    agent: int
    child: "Formula"


@dataclass(frozen=True)
class Announced:
    """``continuation`` evaluated after ``announcement`` is publicly made."""

    announcement: "Formula"
    continuation: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Knows, KnowsWhether, Announced]


class Quantifier(Enum):
    """Non-individual subjects allowed in statements."""

    EVERYONE = "everyone"
    NOT_EVERYONE = "not everyone"
    NOBODY = "nobody"
    SOMEONE = "someone"


#: A statement subject: either a single agent index or a quantifier.
Subject = Union[int, Quantifier]


def conj(children: Iterable[Formula]) -> Formula:
    """N-ary conjunction; a single conjunct is returned unwrapped."""
    items = tuple(children)
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(children: Iterable[Formula]) -> Formula:
    """N-ary disjunction; a single disjunct is returned unwrapped."""
    items = tuple(children)
    if len(items) == 1:
        return items[0]
    return Or(items)


def negated(f: Formula) -> Formula:
    """Negate ``f``, collapsing a double negation."""
    if isinstance(f, Not):
        return f.child
    return Not(f)


@lru_cache(maxsize=None)
def desugar_subject(subject: Subject, negate_predicate: bool, n: int) -> Formula:
    """Rewrite a quantified subject to a plain boolean formula over ``n`` atoms.

    Cached: there are ``(n + 4) * 2`` distinct calls per agent count, and
    the result is immutable, so every caller shares one tree per key.

    With the per-agent literal ``l_i`` (``p_i``, or ``~p_i`` when
    ``negate_predicate``):

    * a single agent ``a`` maps to ``l_a``,
    * ``EVERYONE`` to the conjunction of the ``l_i``,
    * ``NOBODY`` to the conjunction of the negated literals,
    * ``NOT_EVERYONE`` to the negated conjunction,
    * ``SOMEONE`` to the disjunction of the ``l_i``.

    Double negations introduced by ``NOBODY`` over a negated predicate are
    collapsed.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    lits = [Not(Atom(i)) if negate_predicate else Atom(i) for i in range(n)]
    if isinstance(subject, Quantifier):
        if subject is Quantifier.EVERYONE:
            return conj(lits)
        if subject is Quantifier.NOBODY:
            return conj(negated(l) for l in lits)
        if subject is Quantifier.NOT_EVERYONE:
            return negated(conj(lits))
        if subject is Quantifier.SOMEONE:
            return disj(lits)
        raise ValueError(f"unknown quantifier: {subject!r}")
    if not 0 <= subject < n:
        raise ValueError(f"agent index {subject} out of range for n={n}")
    return lits[subject]
