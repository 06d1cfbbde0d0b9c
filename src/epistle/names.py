"""Bundled English given names and the per-problem sampling rule.

A static list keeps output reproducible across environments.  Names carry a
feminine/masculine tag used only for balance: within a problem the draws
alternate tags, starting from a randomly chosen one.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from .rng import SplitMix64

__all__ = ["FEMININE_NAMES", "MASCULINE_NAMES", "NamePool", "DEFAULT_NAME_POOL"]

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


@dataclass(frozen=True)
class NamePool:
    """Source of distinct display names for the agents of one problem."""

    feminine: tuple[str, ...] = field(default=FEMININE_NAMES)
    masculine: tuple[str, ...] = field(default=MASCULINE_NAMES)

    def __post_init__(self):
        combined = self.feminine + self.masculine
        if len(set(combined)) != len(combined):
            raise ValueError("name pool contains duplicates")

    @property
    def max_names(self) -> int:
        """The most names ``sample`` can draw: twice the shorter tag list."""
        return min(len(self.feminine), len(self.masculine)) * 2

    def sample(self, rng: SplitMix64, n: int) -> tuple[str, ...]:
        """Draw ``n`` distinct names, alternating gender tags."""
        if n > self.max_names:
            raise ValueError(f"cannot draw {n} names from this pool")
        pools = (self.feminine, self.masculine)
        taken: tuple[list[int], list[int]] = ([], [])  # ascending indices
        side = 0 if rng.chance(0.5) else 1
        picked: list[str] = []
        for _ in range(n):
            pool, used = pools[side], taken[side]
            # the k-th untaken name: step past each taken index at or below k
            k = rng.below(len(pool) - len(used))
            for t in used:
                if t > k:
                    break
                k += 1
            insort(used, k)
            picked.append(pool[k])
            side = 1 - side
        return tuple(picked)


DEFAULT_NAME_POOL = NamePool()
