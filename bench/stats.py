"""Order statistics used by the benchmark.

Rank rule (nearest rank): for ``0 < q <= 100`` and ``N`` samples sorted
ascending, the ``q``-th percentile is the sample at 1-based rank
``ceil(q / 100 * N)``.  So p50 of an even count is the lower middle sample,
p100 is the maximum, and every reported value is one that was measured.
The rank is computed in integer arithmetic, so ``q * N / 100`` landing on a
whole number is never pushed up by rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["percentile", "samples_beyond", "median"]


def _rank(q: float, n: int) -> int:
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if n <= 0:
        raise ValueError("percentile of no samples")
    exact = Fraction(str(q)) * n / 100
    return max(1, -(-exact.numerator // exact.denominator))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (see the module doc)."""
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q``-th percentile."""
    return n - _rank(q, n)


def median(values: Sequence[float]) -> float:
    """The nearest-rank p50: the lower middle sample for an even count."""
    return percentile(values, 50)
