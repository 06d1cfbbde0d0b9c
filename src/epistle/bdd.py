"""Reduced ordered binary decision diagrams with hash-consing.

Variables are proposition indices and the diagram order follows them
(smaller index nearer the root).  Node construction goes through a single
unique table, so structurally equal diagrams are the same object and logical
equivalence is pointer equality.  All boolean operations route through a
memoized if-then-else.

A store and every diagram built from it belong to one thread; diagrams from
different stores must never be mixed.  The symbolic backend keeps one store
per thread across labels (``epistle.backends``), so nodes and cached results
outlive the label that made them.  Two more tables, which ``epistle.symbolic``
fills, map a formula under a matrix the process keeps and a state law to its
translation and to the state step ``law ∧ ⟦f⟧``; each is emptied past
``kripke.TABLE_LIMIT`` entries.
"""

from __future__ import annotations

import os

from .errors import StoreCapacity

__all__ = ["DdNode", "DdStore", "DEFAULT_NODE_CAPACITY", "NODE_LIMIT_ENV"]

DEFAULT_NODE_CAPACITY = 1 << 22
NODE_LIMIT_ENV = "EPISTLE_NODE_LIMIT"

class DdNode:
    """One diagram node; ``low`` is the branch where ``var`` is false.

    Terminals carry ``var = None``, which is the test for a terminal.  Nodes
    hash by identity, which is sound because the owning store never creates
    structural duplicates.
    """

    __slots__ = ("var", "low", "high")

    def __init__(self, var, low, high):
        self.var = var
        self.low = low
        self.high = high

    def __repr__(self):
        if self.var is None:
            return f"<DdNode terminal {id(self):#x}>"
        return f"<DdNode var={self.var} {id(self):#x}>"


def default_node_capacity() -> int:
    """Configured store capacity, overridable via ``EPISTLE_NODE_LIMIT``."""
    raw = os.environ.get(NODE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_NODE_CAPACITY
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{NODE_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValueError(f"{NODE_LIMIT_ENV} must be at least 2, got {value}")
    return value


class DdStore:
    """Owns the unique table, the operation caches, the translation and step
    tables and the two terminals; holds at most ``default_node_capacity()`` nodes."""

    def __init__(self):
        self.capacity = default_node_capacity()
        self.true = DdNode(None, None, None)
        self.false = DdNode(None, None, None)
        self._unique: dict[tuple, DdNode] = {}
        self._ite_cache: dict[tuple, DdNode] = {}
        self._forall_cache: dict[tuple, DdNode] = {}
        self._translate_cache: dict[tuple, DdNode] = {}
        self._step_cache: dict[tuple, DdNode] = {}
        self._count = 2  # the terminals

    def __len__(self) -> int:
        return self._count

    def _node(self, var: int, low: DdNode, high: DdNode) -> DdNode:
        if low is high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            # a unique-table hit passed this check when it was created;
            # terminals (var None) sit below every variable in the order
            assert (low.var is None or var < low.var) and (
                high.var is None or var < high.var
            ), "variable order violated"
            if self._count >= self.capacity:
                raise StoreCapacity(f"node store exceeded {self.capacity} nodes")
            node = DdNode(var, low, high)
            self._unique[key] = node
            self._count += 1
        return node

    # -- constructors ------------------------------------------------------

    def var(self, index: int) -> DdNode:
        if index < 0:
            raise ValueError(f"variable index must be nonnegative, got {index}")
        return self._node(index, self.false, self.true)

    # -- boolean operations ------------------------------------------------

    def ite(self, c: DdNode, t: DdNode, e: DdNode) -> DdNode:
        if c is self.true:
            return t
        if c is self.false:
            return e
        if t is e:
            return t
        if t is self.true and e is self.false:
            return c
        key = (c, t, e)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        # c is not a terminal here; terminals of t and e carry var None
        top = cv = c.var
        tv, ev = t.var, e.var
        if tv is not None and tv < top:
            top = tv
        if ev is not None and ev < top:
            top = ev
        if cv == top:
            c0, c1 = c.low, c.high
        else:
            c0 = c1 = c
        if tv == top:
            t0, t1 = t.low, t.high
        else:
            t0 = t1 = t
        if ev == top:
            e0, e1 = e.low, e.high
        else:
            e0 = e1 = e
        result = self._node(top, self.ite(c0, t0, e0), self.ite(c1, t1, e1))
        self._ite_cache[key] = result
        return result

    def not_(self, x: DdNode) -> DdNode:
        return self.ite(x, self.false, self.true)

    def and_(self, x: DdNode, y: DdNode) -> DdNode:
        return self.ite(x, y, self.false)

    def or_(self, x: DdNode, y: DdNode) -> DdNode:
        return self.ite(x, self.true, y)

    def implies(self, x: DdNode, y: DdNode) -> DdNode:
        return self.ite(x, y, self.true)

    def _forall(self, vs: tuple[int, ...], x: DdNode) -> DdNode:
        """Universal quantification of ``x`` over ``vs``, ascending."""
        if not vs or x.var is None:
            return x
        # quantified variables above the root cannot occur in x
        while vs and vs[0] < x.var:
            vs = vs[1:]
        if not vs:
            return x
        key = (vs, x)
        cached = self._forall_cache.get(key)
        if cached is not None:
            return cached
        if x.var == vs[0]:
            result = self.and_(self._forall(vs, x.low), self._forall(vs, x.high))
        else:
            result = self._node(x.var, self._forall(vs, x.low), self._forall(vs, x.high))
        self._forall_cache[key] = result
        return result

    # -- inspection ---------------------------------------------------------

    def eval(self, x: DdNode, assignment: int) -> bool:
        """Truth of ``x`` under the assignment encoded as a bitmask."""
        while x.var is not None:
            x = x.high if (assignment >> x.var) & 1 else x.low
        return x is self.true

    def count_sat(self, x: DdNode, n_vars: int) -> int:
        """Number of satisfying assignments over variables ``0..n_vars-1``."""
        memo: dict[tuple[DdNode, int], int] = {}

        def walk(node: DdNode, level: int) -> int:
            if node is self.false:
                return 0
            if node is self.true:
                return 1 << (n_vars - level)
            key = (node, level)
            got = memo.get(key)
            if got is None:
                below = walk(node.low, node.var + 1) + walk(node.high, node.var + 1)
                got = below << (node.var - level)
                memo[key] = got
            return got

        return walk(x, 0)
