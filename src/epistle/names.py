"""Bundled English given names and the per-problem sampling rule.

A static list keeps output reproducible across environments.  Names carry a
feminine/masculine tag used only for balance: within a problem the draws
alternate tags, starting from a randomly chosen one, and ``sample_names``
draws each name uniformly from the untaken names of its tag.
"""

from __future__ import annotations

from .rng import LIMITS, SplitMix64, threshold

__all__ = ["FEMININE_NAMES", "MASCULINE_NAMES", "MAX_NAMES", "sample_names"]

FEMININE_NAMES = (
    "Mary", "Alice", "Emma", "Olivia", "Sophia", "Isabella", "Charlotte",
    "Amelia", "Harper", "Evelyn", "Abigail", "Emily", "Elizabeth", "Avery",
    "Ella", "Scarlett", "Grace", "Chloe", "Victoria", "Riley", "Lily",
    "Aubrey", "Zoey", "Penelope", "Lillian", "Addison", "Layla", "Natalie",
    "Hannah", "Brooklyn", "Zoe", "Nora", "Leah", "Savannah", "Audrey",
    "Claire", "Eleanor", "Skylar", "Ellie", "Samantha", "Stella", "Paisley",
    "Violet", "Mila", "Allison", "Anna", "Hazel", "Lucy", "Caroline",
    "Sarah", "Kennedy", "Sadie", "Gabriella", "Madelyn", "Adeline", "Maya",
    "Autumn", "Aurora", "Piper", "Hailey", "Kaylee", "Ruby", "Eva", "Naomi",
    "Alyssa", "Annabelle", "Faith", "Alexandra", "Josephine", "Vivian",
    "Clara", "Margaret", "Juliana", "Isla", "Eliza", "Rachel", "Rebecca",
    "Susan", "Linda", "Barbara", "Patricia", "Jennifer", "Nancy", "Dorothy",
    "Helen", "Sandra", "Donna", "Carol", "Ruth", "Sharon", "Michelle",
    "Laura", "Amanda", "Melissa", "Deborah", "Stephanie", "Catherine",
    "Christine", "Janet", "Diane",
)

MASCULINE_NAMES = (
    "Herbert", "Paul", "Robert", "John", "James", "Michael", "William",
    "David", "Richard", "Joseph", "Thomas", "Charles", "Christopher",
    "Daniel", "Matthew", "Anthony", "Mark", "Donald", "Steven", "Andrew",
    "Kenneth", "Joshua", "Kevin", "Brian", "George", "Edward", "Ronald",
    "Timothy", "Jason", "Jeffrey", "Ryan", "Jacob", "Gary", "Nicholas",
    "Eric", "Jonathan", "Stephen", "Larry", "Justin", "Scott", "Brandon",
    "Benjamin", "Samuel", "Gregory", "Frank", "Alexander", "Raymond",
    "Patrick", "Jack", "Dennis", "Jerry", "Tyler", "Aaron", "Adam",
    "Nathan", "Henry", "Douglas", "Zachary", "Peter", "Kyle", "Walter",
    "Ethan", "Jeremy", "Harold", "Keith", "Christian", "Roger", "Noah",
    "Gerald", "Carl", "Terry", "Sean", "Austin", "Arthur", "Lawrence",
    "Jesse", "Dylan", "Bryan", "Jordan", "Bruce", "Albert", "Gabriel",
    "Logan", "Alan", "Wayne", "Roy", "Ralph", "Randy", "Eugene", "Vincent",
    "Russell", "Elijah", "Louis", "Philip", "Howard", "Lucas", "Oliver",
    "Liam", "Mason", "Owen",
)

MAX_NAMES = 2 * min(len(FEMININE_NAMES), len(MASCULINE_NAMES))
"""The most names ``sample_names`` can draw for one problem."""

_FAIR = threshold(0.5)


def sample_names(rng: SplitMix64, n: int) -> tuple[str, ...]:
    """Draw ``n`` distinct names, alternating gender tags."""
    if n > MAX_NAMES:
        raise ValueError(f"cannot draw {n} names from the bundled pool")
    pending, pools = rng.pending, [list(FEMININE_NAMES), list(MASCULINE_NAMES)]
    side = 0 if (pending.pop() if pending else rng.next_u64()) < _FAIR else 1
    picked = []
    for _ in range(n):
        pool = pools[side]
        u, k = pending.pop() if pending else rng.next_u64(), len(pool)
        picked.append(pool.pop(u % k if u < LIMITS[k] else rng.below(k)))
        side = 1 - side
    return tuple(picked)
