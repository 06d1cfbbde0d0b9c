"""Epistemic formula trees.

A formula is an immutable tree built from atoms (one boolean proposition per
agent), the usual boolean connectives, per-agent knowledge operators, and a
public-announcement operator.  ``And``/``Or`` are n-ary so that quantified
subjects ("everyone is thirsty") desugar to flat conjunctions.
"""

from __future__ import annotations

import operator
import threading
import weakref
from enum import Enum
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


_table: dict[tuple, weakref.ref] = {}  # (cls, *fields) -> the live node
_lock = threading.Lock()
_sweep_at = 1 << 12
_DEAD = weakref.ref(set())  # stands in for a missing entry


def _sweep() -> None:
    """Drop the dead entries, newest first.  A node's entry comes after its
    children's, so dropping its key first frees the children only it held."""
    global _sweep_at
    keys = list(_table)
    while keys:
        key = keys.pop()
        if _table[key]() is None:
            del _table[key]
    _sweep_at = max(1 << 12, 2 * len(_table))


class _Node:
    """Base of the formula node types.

    Nodes are hash-consed: building a node whose fields equal those of a live
    one returns that node, so ``==`` is identity and ``hash`` is O(1).  A miss
    takes the lock, so threads cannot build two equal nodes, and passes an
    index field through ``operator.index``.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _table.get(key, _DEAD)()
        if node is not None:
            return node
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields")
        if fields == ((),):
            raise ValueError(f"{cls.__name__} requires at least one child")
        if type(fields[0]) is not int and cls in (Atom, Knows, KnowsWhether):
            fields = (operator.index(fields[0]), *fields[1:])
        with _lock:
            node = _table.get(key, _DEAD)()  # another thread may have built it
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls.__slots__, fields):
                    object.__setattr__(node, name, value)
                if len(_table) >= _sweep_at:
                    _sweep()
                _table[key] = weakref.ref(node)
        return node

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


class Atom(_Node):
    """Proposition ``p<prop>`` -- the predicate about agent ``prop``."""

    __slots__ = ("prop",)


class Not(_Node):
    __slots__ = ("child",)


class And(_Node):
    __slots__ = ("children",)


class Or(_Node):
    __slots__ = ("children",)


class Implies(_Node):
    __slots__ = ("left", "right")


class Knows(_Node):
    """Agent ``agent`` knows that ``child`` holds."""

    __slots__ = ("agent", "child")


class KnowsWhether(_Node):
    """Agent ``agent`` knows whether ``child`` holds.

    Semantically equal to ``Knows(a, f) | Knows(a, ~f)``; kept as its own node
    because the surface language distinguishes the two verb forms.
    """

    __slots__ = ("agent", "child")


class Announced(_Node):
    """``continuation`` evaluated after ``announcement`` is publicly made."""

    __slots__ = ("announcement", "continuation")


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


def desugar_subject(subject: Subject, negate_predicate: bool, n: int) -> Formula:
    """Rewrite a quantified subject to a plain boolean formula over ``n`` atoms.

    With the per-agent literal ``l_i`` (``p_i``, or ``~p_i`` when
    ``negate_predicate``):

    * a single agent ``a`` maps to ``l_a``,
    * ``EVERYONE`` to the conjunction of the ``l_i``,
    * ``NOBODY`` to the conjunction of the negated literals,
    * ``NOT_EVERYONE`` to the negated conjunction,
    * ``SOMEONE`` to the disjunction of the ``l_i``.

    Double negations introduced by ``NOBODY`` over a negated predicate are
    collapsed.  Not cached: the generator caches the expressions built on it.
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
