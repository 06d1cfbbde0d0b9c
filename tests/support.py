"""Shared test helpers: independent oracles and random-structure generators.

The evaluators here deliberately re-implement the semantics in a different
style from the library (explicit partition construction, list-based world
sets) so that agreement between the two is meaningful.
"""

from __future__ import annotations

import json
from bisect import insort
from itertools import product

from epistle.formula import (
    And,
    Announced,
    Atom,
    Formula,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
    Quantifier,
)
from epistle.bdd import DdNode, DdStore
from epistle.kripke import ObservabilityMatrix, announce, label
from epistle.names import FEMININE_NAMES, MASCULINE_NAMES
from epistle.rng import SplitMix64
from epistle.statements import BeliefLayer, ExpressionSpec, StatementSpec
from epistle.symbolic import announce_symbolic, label_symbolic

# ---------------------------------------------------------------------------
# independent epistemic evaluator (oracle for the kripke backend)


def oracle_eval(live, obs_rows, w: int, f: Formula, memo: dict | None = None) -> bool:
    """Truth of ``f`` at ``w`` over the worlds in ``live``.

    Knowledge is computed by materializing the agent's equivalence class with
    an explicit agreement test per observed proposition; announcements build a
    fresh world list by filtering.  ``memo`` maps (live worlds as a tuple,
    world, formula) to a truth already found for ``obs_rows``; a call without
    one keeps its own.
    """
    live = tuple(live)
    key = (live, w, f)
    if memo is None:
        memo = {}
    elif key in memo:
        return memo[key]
    if isinstance(f, Atom):
        out = bool(w & (1 << f.prop))
    elif isinstance(f, Not):
        out = not oracle_eval(live, obs_rows, w, f.child, memo)
    elif isinstance(f, And):
        out = all(oracle_eval(live, obs_rows, w, c, memo) for c in f.children)
    elif isinstance(f, Or):
        out = any(oracle_eval(live, obs_rows, w, c, memo) for c in f.children)
    elif isinstance(f, Implies):
        out = (not oracle_eval(live, obs_rows, w, f.left, memo)) or oracle_eval(
            live, obs_rows, w, f.right, memo
        )
    elif isinstance(f, Knows):
        observed = [j for j, bit in enumerate(obs_rows[f.agent]) if bit]
        cls = [v for v in live if all((v >> j) & 1 == (w >> j) & 1 for j in observed)]
        out = all(oracle_eval(live, obs_rows, v, f.child, memo) for v in cls)
    elif isinstance(f, KnowsWhether):
        out = oracle_eval(live, obs_rows, w, Knows(f.agent, f.child), memo) or oracle_eval(
            live, obs_rows, w, Knows(f.agent, Not(f.child)), memo
        )
    elif isinstance(f, Announced):
        out = not oracle_eval(live, obs_rows, w, f.announcement, memo)
        if not out:
            survivors = [v for v in live if oracle_eval(live, obs_rows, v, f.announcement, memo)]
            out = oracle_eval(survivors, obs_rows, w, f.continuation, memo)
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = out
    return out


def oracle_label(n: int, obs_rows, anns, hyp) -> bool | None:
    """Validity of ``hyp`` after the announcements; None when contradictory.
    One memo serves the whole call."""
    live, memo = tuple(range(1 << n)), {}
    for a in anns:
        live = tuple(v for v in live if oracle_eval(live, obs_rows, v, a, memo))
        if not live:
            return None
    return all(oracle_eval(live, obs_rows, w, hyp, memo) for w in live)


# ---------------------------------------------------------------------------
# announcement elimination (a syntactic oracle sharing no code with the
# backends)


def expand_whether(agent: int, f: Formula) -> Formula:
    """Definitional expansion of "knows whether"."""
    return Or((Knows(agent, f), Knows(agent, Not(f))))


def reduce_announcements(f: Formula) -> Formula:
    """Eliminate every announcement operator via the standard equivalences.

    The result contains no ``Announced`` node and is true at exactly the same
    worlds of every model.  One memo per call, keyed on the hash-consed nodes,
    rewrites each distinct subformula, and pushes each announcement into each
    subformula, once: the result is a DAG whose size is polynomial in the
    announcement nesting, where the tree it unfolds to is exponential.
    """
    memo: dict = {}

    def reduce(f: Formula) -> Formula:
        if f not in memo:
            memo[f] = _reduce_node(f, reduce, push)
        return memo[f]

    def push(psi: Formula, f: Formula) -> Formula:
        if (psi, f) not in memo:
            memo[psi, f] = _push_announcement(psi, f, push)
        return memo[psi, f]

    return reduce(f)


def _reduce_node(f: Formula, reduce, push) -> Formula:
    """One rewriting step of ``reduce_announcements``; ``reduce`` and
    ``push`` are its memoised recursions."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Knows):
        return Knows(f.agent, reduce(f.child))
    if isinstance(f, KnowsWhether):
        return KnowsWhether(f.agent, reduce(f.child))
    if isinstance(f, Not):
        return Not(reduce(f.child))
    if isinstance(f, And):
        return And(tuple(reduce(c) for c in f.children))
    if isinstance(f, Or):
        return Or(tuple(reduce(c) for c in f.children))
    if isinstance(f, Implies):
        return Implies(reduce(f.left), reduce(f.right))
    if isinstance(f, Announced):
        return push(reduce(f.announcement), reduce(f.continuation))
    raise TypeError(f"not a formula: {f!r}")


def _push_announcement(psi: Formula, f: Formula, push) -> Formula:
    """Rewrite ``[!psi] f`` for an announcement-free ``f``; ``push`` is the
    memoised recursion."""
    if isinstance(f, Atom):
        return Implies(psi, f)
    if isinstance(f, Not):
        return Implies(psi, Not(push(psi, f.child)))
    if isinstance(f, And):
        return And(tuple(push(psi, c) for c in f.children))
    if isinstance(f, Or):
        return Or(tuple(push(psi, c) for c in f.children))
    if isinstance(f, Implies):
        return Implies(push(psi, f.left), push(psi, f.right))
    if isinstance(f, Knows):
        return Implies(psi, Knows(f.agent, push(psi, f.child)))
    if isinstance(f, KnowsWhether):
        # No direct equivalence for "knows whether"; expand it first.
        return push(psi, expand_whether(f.agent, f.child))
    raise TypeError(f"unexpected node under announcement: {f!r}")


def reduced_worlds(live: list[int], obs_rows, f: Formula) -> frozenset[int]:
    """The worlds of ``live`` where the announcement-free ``f`` holds, with
    ``live`` as the model throughout.

    Made for the DAG that ``reduce_announcements`` returns: one memo per
    call, keyed on the hash-consed nodes, evaluates each distinct node once,
    where ``oracle_eval`` walks the shared result as a tree.  Knowledge
    groups the worlds by the propositions the agent observes.
    """
    everywhere = frozenset(live)
    memo: dict = {}
    classes: dict = {}

    def agent_classes(agent: int) -> list[frozenset[int]]:
        if agent not in classes:
            mask = sum(1 << j for j, bit in enumerate(obs_rows[agent]) if bit)
            buckets: dict = {}
            for w in live:
                buckets.setdefault(w & mask, []).append(w)
            classes[agent] = [frozenset(b) for b in buckets.values()]
        return classes[agent]

    def ev(g: Formula) -> frozenset[int]:
        if g in memo:
            return memo[g]
        if isinstance(g, Atom):
            out = frozenset(w for w in live if w >> g.prop & 1)
        elif isinstance(g, Not):
            out = everywhere - ev(g.child)
        elif isinstance(g, And):
            out = everywhere.intersection(*map(ev, g.children))
        elif isinstance(g, Or):
            out = frozenset().union(*map(ev, g.children))
        elif isinstance(g, Implies):
            out = (everywhere - ev(g.left)) | ev(g.right)
        elif isinstance(g, Knows):
            holds = ev(g.child)
            out = frozenset().union(*(c for c in agent_classes(g.agent) if c <= holds))
        elif isinstance(g, KnowsWhether):
            out = ev(expand_whether(g.agent, g.child))
        else:
            raise TypeError(f"not an announcement-free formula: {g!r}")
        memo[g] = out
        return out

    return ev(f)


def distinct_nodes(f: Formula) -> int:
    """The number of distinct nodes reachable from ``f``."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, (And, Or)):
            stack.extend(g.children)
        elif isinstance(g, (Not, Knows, KnowsWhether)):
            stack.append(g.child)
        elif isinstance(g, Implies):
            stack += (g.left, g.right)
        elif isinstance(g, Announced):
            stack += (g.announcement, g.continuation)
    return len(seen)


def modal_depth(f: Formula) -> int:
    """Maximum nesting of knowledge operators in ``f``."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.child)
    if isinstance(f, (And, Or)):
        return max(modal_depth(c) for c in f.children)
    if isinstance(f, Implies):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, (Knows, KnowsWhether)):
        return 1 + modal_depth(f.child)
    if isinstance(f, Announced):
        return max(modal_depth(f.announcement), modal_depth(f.continuation))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# views of the library's own models (not independent of it)


def worlds(live: int) -> frozenset[int]:
    """The worlds of the world set ``live``, one per set bit."""
    return frozenset(w for w in range(live.bit_length()) if live >> w & 1)


def worlds_where(obs: ObservabilityMatrix, live: int, f: Formula) -> frozenset[int]:
    """Worlds of ``live`` satisfying ``f``."""
    return worlds(announce(obs, live, f))


def agent_mask(obs: ObservabilityMatrix, agent: int) -> int:
    """Bitmask of the propositions agent ``agent`` observes."""
    mask = 0
    for j, bit in enumerate(obs.rows[agent]):
        if bit:
            mask |= 1 << j
    return mask


def forall(store: DdStore, variables, x: DdNode) -> DdNode:
    """Universal quantification of ``x`` over the set ``variables``."""
    return store._forall(tuple(sorted(set(variables))), x)


def sat_worlds(store: DdStore, x: DdNode, n_vars: int) -> frozenset[int]:
    """Satisfying assignments of ``x`` over ``0..n_vars-1``, by brute force."""
    return frozenset(w for w in range(1 << n_vars) if store.eval(x, w))


def check_reduced(store: DdStore) -> None:
    """Assert the store invariants: no node has identical branches, and
    every node's variable sits above its children's."""
    for (var, low, high), node in store._unique.items():
        assert low is not high, f"unreduced node for var {var}"
        assert node.var == var
        for child in (low, high):
            assert child.var is None or var < child.var, f"order violated at var {var}"


def dedup_key(instance) -> tuple:
    """What the generator deduplicates a setup's draws on."""
    return (
        instance.setup,
        instance.n_agents,
        instance.announcement_formulas(),
        instance.hypothesis.formula,
    )


def read_jsonl(path: str) -> list[dict]:
    """The records of a JSON-Lines file, one dict per nonblank line."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# the default configuration's whole problem space (a small-scope check)


def expression_specs(n: int, orders) -> list[ExpressionSpec]:
    """Every expression form the generator can draw over ``n`` agents with a
    belief order in ``orders``."""
    subjects = (*range(n), Quantifier.EVERYONE, Quantifier.NOT_EVERYONE, Quantifier.NOBODY)
    statements = [StatementSpec(*t) for t in product(subjects, (False, True))]
    layers = [BeliefLayer(*t) for t in product(range(n), (False, True), (False, True))]
    return [
        ExpressionSpec(outer, statement)
        for order in orders
        for outer in product(layers, repeat=order)
        for statement in statements
    ]


def expression_forms(n: int, orders) -> list[Formula]:
    """The formula of each of ``expression_specs(n, orders)``, so a formula
    that two forms desugar to is listed twice."""
    return [spec.to_formula(n) for spec in expression_specs(n, orders)]


def every_matrix(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """The rows of all ``2 ** (n * n)`` observability matrices over ``n``
    agents."""
    return [
        tuple(bits[i * n : (i + 1) * n] for i in range(n))
        for bits in product((False, True), repeat=n * n)
    ]


def problem_space(n: int, matrices):
    """Every state and hypothesis the default ``GenConfig`` can label over
    ``n`` agents on each matrix of ``matrices`` (given by its rows); a label
    depends only on these three.

    Yields ``(n, rows, states, hyps)``.  ``states`` maps each non-empty world
    set that the existential announcement and then 0..n announcement forms
    reach (found with the explicit backend) to the shortest such sequence,
    existential first; ``hyps`` lists the hypothesis forms.
    """
    existential = ExpressionSpec((), StatementSpec(Quantifier.SOMEONE)).to_formula(n)
    anns, hyps = expression_forms(n, (0, 1)), expression_forms(n, (1, 2))
    for rows in matrices:
        obs = ObservabilityMatrix.from_rows(rows)
        start = announce(obs, (1 << (1 << n)) - 1, existential)
        states, frontier = {start: [existential]}, [start]
        for _ in range(n):
            reached = []
            for live in frontier:
                for a in anns:
                    after = announce(obs, live, a)
                    if after and after not in states:
                        states[after] = states[live] + [a]
                        reached.append(after)
            frontier = reached
        yield n, rows, states, hyps


def default_problem_space():
    """``problem_space`` of the default ``GenConfig`` (n=2 and 3, ``max_order``
    2) but for the n=3 explicit setup's 512 matrices, too many for tier-1:
    n=2 with all 16 matrices and n=3 with the three fixed ones.  In all there
    are 112 + 123 states and 310,896 (state, hypothesis) labels.
    """
    yield from problem_space(2, every_matrix(2))
    yield from problem_space(3, [
        tuple(tuple(sees(i, j) for j in range(3)) for i in range(3))
        for sees in (lambda i, j: i != j, lambda i, j: True, lambda i, j: i == j)
    ])


def backend_disagreements(n: int, rows, states, hyps) -> int:
    """The labels of one matrix of ``problem_space``, over its states and
    distinct hypotheses, on which the symbolic backend differs from the
    explicit one; every label of a state counts when the symbolic law its
    announcements leave is not the state."""
    obs, store = ObservabilityMatrix.from_rows(rows), DdStore()
    hyps = list(dict.fromkeys(hyps))
    wrong = 0
    for live, anns in states.items():
        law = store.true
        for a in anns:
            law = announce_symbolic(store, obs, law, a)
        if sat_worlds(store, law, n) != worlds(live):
            wrong += len(hyps)
            continue
        wrong += sum(
            label(obs, live, [], hyp) != label_symbolic(store, obs, law, [], hyp) for hyp in hyps
        )
    return wrong


# ---------------------------------------------------------------------------
# truth-table oracle for plain boolean formulas (used by the BDD tests)


def truth_table_worlds(f: Formula, n_vars: int) -> frozenset[int]:
    """Satisfying assignments of an announcement- and knowledge-free formula."""

    def ev(w: int, g: Formula) -> bool:
        if isinstance(g, Atom):
            return bool(w & (1 << g.prop))
        if isinstance(g, Not):
            return not ev(w, g.child)
        if isinstance(g, And):
            return all(ev(w, c) for c in g.children)
        if isinstance(g, Or):
            return any(ev(w, c) for c in g.children)
        if isinstance(g, Implies):
            return (not ev(w, g.left)) or ev(w, g.right)
        raise TypeError(f"not boolean: {g!r}")

    return frozenset(w for w in range(1 << n_vars) if ev(w, f))


# ---------------------------------------------------------------------------
# random structure generators (seeded, reproducible)


def random_boolean_formula(rng: SplitMix64, n_vars: int, depth: int) -> Formula:
    if depth == 0 or rng.chance(0.25):
        return Atom(rng.below(n_vars))
    kind = rng.below(4)
    if kind == 0:
        return Not(random_boolean_formula(rng, n_vars, depth - 1))
    if kind == 1:
        width = 2 + rng.below(2)
        return And(
            tuple(random_boolean_formula(rng, n_vars, depth - 1) for _ in range(width))
        )
    if kind == 2:
        width = 2 + rng.below(2)
        return Or(
            tuple(random_boolean_formula(rng, n_vars, depth - 1) for _ in range(width))
        )
    return Implies(
        random_boolean_formula(rng, n_vars, depth - 1),
        random_boolean_formula(rng, n_vars, depth - 1),
    )


def random_formula(
    rng: SplitMix64,
    n_agents: int,
    depth: int = 3,
    modal_budget: int = 3,
    announce_budget: int = 2,
) -> Formula:
    """Random epistemic formula within the given structural budgets."""
    choices = ["atom"]
    if depth > 0:
        choices += ["not", "and", "or", "implies"]
        if modal_budget > 0:
            choices += ["knows", "knows", "whether"]
        if announce_budget > 0:
            choices += ["announce"]
    kind = rng.choice(choices)
    if kind == "atom" or depth == 0:
        return Atom(rng.below(n_agents))
    if kind == "not":
        return Not(
            random_formula(rng, n_agents, depth - 1, modal_budget, announce_budget)
        )
    if kind in ("and", "or"):
        width = 2 + rng.below(2)
        children = tuple(
            random_formula(rng, n_agents, depth - 1, modal_budget, announce_budget)
            for _ in range(width)
        )
        return And(children) if kind == "and" else Or(children)
    if kind == "implies":
        return Implies(
            random_formula(rng, n_agents, depth - 1, modal_budget, announce_budget),
            random_formula(rng, n_agents, depth - 1, modal_budget, announce_budget),
        )
    if kind == "knows":
        return Knows(
            rng.below(n_agents),
            random_formula(rng, n_agents, depth - 1, modal_budget - 1, announce_budget),
        )
    if kind == "whether":
        return KnowsWhether(
            rng.below(n_agents),
            random_formula(rng, n_agents, depth - 1, modal_budget - 1, announce_budget),
        )
    # split the remaining announcement budget so the total count stays bounded
    left_budget = rng.below(announce_budget)
    return Announced(
        random_formula(rng, n_agents, depth - 1, modal_budget, left_budget),
        random_formula(
            rng, n_agents, depth - 1, modal_budget, announce_budget - 1 - left_budget
        ),
    )


# ---------------------------------------------------------------------------
# reference name sampler (the "k-th untaken name" form of ``sample_names``)


def reference_sample_names(rng: SplitMix64, n: int) -> tuple[str, ...]:
    """Draw ``n`` distinct bundled names without copying the name lists:
    each draw picks the k-th name of its tag not yet taken, stepping past
    the taken indices.  The same draws as ``sample_names``, in the same
    order."""
    pools = (FEMININE_NAMES, MASCULINE_NAMES)
    if n > 2 * min(map(len, pools)):
        raise ValueError(f"cannot draw {n} names from the bundled pool")
    taken: tuple[list[int], list[int]] = ([], [])  # ascending indices
    side = 0 if rng.chance(0.5) else 1
    picked: list[str] = []
    for _ in range(n):
        pool, used = pools[side], taken[side]
        k = rng.below(len(pool) - len(used))
        for t in used:
            if t > k:
                break
            k += 1
        insort(used, k)
        picked.append(pool[k])
        side = 1 - side
    return tuple(picked)


# ---------------------------------------------------------------------------
# scalar SplitMix64 (the reference for the generator's blocked outputs)

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class ScalarSplitMix64:
    """SplitMix64 stepped one output at a time, as Steele, Lea & Flood
    define it, with the library's derived draws written on top."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        z = self.state = (self.state + GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = (1 << 64) - (1 << 64) % n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def chance(self, p: float) -> bool:
        return random_float(self) < p

    def coins(self, p: float, k: int) -> list[bool]:
        return [self.chance(p) for _ in range(k)]


def random_float(rng) -> float:
    """Float in [0, 1) with 53 bits of precision: the top 53 bits of the
    next output, the float that ``chance`` compares."""
    return (rng.next_u64() >> 11) * 2.0 ** -53
