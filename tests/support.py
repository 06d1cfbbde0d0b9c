"""Shared test helpers: independent oracles and random-structure generators.

The evaluators here deliberately re-implement the semantics in a different
style from the library (explicit partition construction, list-based world
sets) so that agreement between the two is meaningful.
"""

from __future__ import annotations

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
)
from epistle.kripke import KripkeModel, ObservabilityMatrix, announce
from epistle.rng import SplitMix64

# ---------------------------------------------------------------------------
# independent epistemic evaluator (oracle for the kripke backend)


def oracle_eval(live: list[int], obs_rows, w: int, f: Formula) -> bool:
    """Truth of ``f`` at ``w`` over the worlds in ``live``.

    Knowledge is computed by materializing the agent's equivalence class with
    an explicit agreement test per observed proposition; announcements build a
    fresh world list by filtering.
    """
    if isinstance(f, Atom):
        return bool(w & (1 << f.prop))
    if isinstance(f, Not):
        return not oracle_eval(live, obs_rows, w, f.child)
    if isinstance(f, And):
        return all(oracle_eval(live, obs_rows, w, c) for c in f.children)
    if isinstance(f, Or):
        return any(oracle_eval(live, obs_rows, w, c) for c in f.children)
    if isinstance(f, Implies):
        return (not oracle_eval(live, obs_rows, w, f.left)) or oracle_eval(
            live, obs_rows, w, f.right
        )
    if isinstance(f, Knows):
        observed = [j for j, bit in enumerate(obs_rows[f.agent]) if bit]
        cls = [
            v
            for v in live
            if all((v >> j) & 1 == (w >> j) & 1 for j in observed)
        ]
        return all(oracle_eval(live, obs_rows, v, f.child) for v in cls)
    if isinstance(f, KnowsWhether):
        return oracle_eval(live, obs_rows, w, Knows(f.agent, f.child)) or oracle_eval(
            live, obs_rows, w, Knows(f.agent, Not(f.child))
        )
    if isinstance(f, Announced):
        if not oracle_eval(live, obs_rows, w, f.announcement):
            return True
        survivors = [
            v for v in live if oracle_eval(live, obs_rows, v, f.announcement)
        ]
        return oracle_eval(survivors, obs_rows, w, f.continuation)
    raise TypeError(f"not a formula: {f!r}")


def oracle_label(n: int, obs_rows, anns, hyp) -> bool | None:
    """Validity of ``hyp`` after the announcements; None when contradictory."""
    live = list(range(1 << n))
    for a in anns:
        live = [v for v in live if oracle_eval(live, obs_rows, v, a)]
        if not live:
            return None
    return all(oracle_eval(live, obs_rows, w, hyp) for w in live)


# ---------------------------------------------------------------------------
# views of the library's own models (not independent of it)


def worlds_where(m: KripkeModel, f: Formula) -> frozenset[int]:
    """Live worlds of ``m`` satisfying ``f``."""
    return announce(m, f).live


def agent_mask(obs: ObservabilityMatrix, agent: int) -> int:
    """Bitmask of the propositions agent ``agent`` observes."""
    mask = 0
    for j, bit in enumerate(obs.rows[agent]):
        if bit:
            mask |= 1 << j
    return mask


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
# reference name sampler (the list-copy-and-pop form of ``NamePool.sample``)


def reference_sample_names(pool, rng: SplitMix64, n: int) -> tuple[str, ...]:
    """Draw ``n`` distinct names from ``pool`` by copying each tag's names
    into a list and popping the drawn index; the same draws as
    ``NamePool.sample``, in the same order."""
    if n > min(len(pool.feminine), len(pool.masculine)) * 2:
        raise ValueError(f"cannot draw {n} names from this pool")
    lists = [list(pool.feminine), list(pool.masculine)]
    side = 0 if rng.chance(0.5) else 1
    picked: list[str] = []
    for _ in range(n):
        names = lists[side]
        picked.append(names.pop(rng.below(len(names))))
        side = 1 - side
    return tuple(picked)
