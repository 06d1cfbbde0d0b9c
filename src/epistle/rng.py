"""Deterministic, portable random number generation.

The generator is SplitMix64: a 64-bit counter stepped by the golden-ratio
increment, with each output passed through a fixed avalanche mix.  It is
seedable, platform independent, and cheap to split.

Splitting rule: ``split_seed(seed, k)`` is the ``(k+1)``-th raw output of a
SplitMix64 seeded with ``seed``.  Dataset generation derives one substream
per (setup bucket, draw index) as
``substream(split_seed(master_seed, setup_ordinal), draw_index)``, so every
draw is reproducible in isolation and results can be merged in draw order
regardless of scheduling.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

__all__ = ["SplitMix64", "split_seed", "substream"]

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53  # spacing of the 53-bit floats in [0, 1)

T = TypeVar("T")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable 64-bit generator with a uniform-int and float interface."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        # _mix, inlined: this is the innermost call of every draw
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * _UNIT

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), for ``1 <= n <= 2**64``; rejection
        sampling avoids modulo bias."""
        if not 0 < n <= _TWO64:
            raise ValueError(f"need a bound in [1, 2**64], got {n}")
        limit = _TWO64 - _TWO64 % n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq: Sequence[T]) -> T:
        return seq[self.below(len(seq))]

    def chance(self, p: float) -> bool:
        """True with probability ``p``; the same float as ``random()``."""
        return (self.next_u64() >> 11) * _UNIT < p


def split_seed(seed: int, index: int) -> int:
    """Seed for substream ``index``: the ``(index+1)``-th output of a master
    generator seeded with ``seed``."""
    if index < 0:
        raise ValueError(f"substream index must be nonnegative, got {index}")
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


def substream(seed: int, index: int) -> SplitMix64:
    return SplitMix64(split_seed(seed, index))
