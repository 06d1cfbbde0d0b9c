"""Deterministic, portable random number generation.

The generator is SplitMix64: a 64-bit counter stepped by the golden-ratio
increment, with each output passed through a fixed avalanche mix.  It is
seedable, platform independent, and cheap to split.

Output ``k`` after state ``s`` is ``mix(s + k * golden)``, so outputs are
computed ``LANES`` at a time: the counters sit in 128-bit lanes of one
integer, each shift is masked to the low 64 bits of every lane, and a
product of two 64-bit values stays inside its lane.  They are the scalar
generator's outputs, in order, whichever methods consume them.

Splitting rule: ``split_seed(seed, k)`` is the ``(k+1)``-th raw output of a
SplitMix64 seeded with ``seed``.  Dataset generation derives one substream
per (setup bucket, draw index) as
``substream(split_seed(master_seed, setup_ordinal), draw_index)``, so every
draw is reproducible in isolation and results can be merged in draw order
regardless of scheduling.
"""

from __future__ import annotations

import struct
from typing import Sequence, TypeVar

__all__ = ["SplitMix64", "split_seed", "substream"]

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53  # spacing of the 53-bit floats in [0, 1)

LANES = 16
# lane j holds the counter LANES - j steps ahead: ``list.pop`` takes the
# unpacked outputs in order
_ONES = sum(1 << 128 * j for j in range(LANES))
_LOW = _MASK64 * _ONES  # the low 64 bits of every lane
_STEPS = sum((LANES - j) * _GOLDEN << 128 * j for j in range(LANES))
_UNPACK = struct.Struct("<" + "Q8x" * LANES).unpack

T = TypeVar("T")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable 64-bit generator with a uniform-int and coin interface."""

    __slots__ = ("_state", "_pending")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        # computed outputs not yet taken, the next one last
        self._pending: list[int] = []

    def _refill(self) -> None:
        """Put the next ``LANES`` outputs behind the pending ones."""
        s = self._state
        self._state = (s + LANES * _GOLDEN) & _MASK64
        z = (s * _ONES + _STEPS) & _LOW
        z = ((z ^ ((z >> 30) & _LOW)) * 0xBF58476D1CE4E5B9) & _LOW
        z = ((z ^ ((z >> 27) & _LOW)) * 0x94D049BB133111EB) & _LOW
        z ^= z >> 31  # reaches only the high half of each lane, which is skipped
        self._pending[:0] = _UNPACK(z.to_bytes(16 * LANES, "little"))

    def next_u64(self) -> int:
        pending = self._pending
        if not pending:
            self._refill()
        return pending.pop()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), for ``1 <= n <= 2**64``; rejection
        sampling avoids modulo bias."""
        if not 0 < n <= _TWO64:
            raise ValueError(f"need a bound in [1, 2**64], got {n}")
        limit = _TWO64 - _TWO64 % n
        pending = self._pending
        while True:
            if not pending:
                self._refill()
            u = pending.pop()
            if u < limit:
                return u % n

    def choice(self, seq: Sequence[T]) -> T:
        return seq[self.below(len(seq))]

    def chance(self, p: float) -> bool:
        """True with probability ``p``: the output's top 53 bits, read as a
        float in [0, 1), fall below ``p``."""
        pending = self._pending
        if not pending:
            self._refill()
        return (pending.pop() >> 11) * _UNIT < p

    def coins(self, p: float, k: int) -> list[bool]:
        """``k`` calls of ``chance(p)``, in draw order."""
        pending = self._pending
        while len(pending) < k:
            self._refill()
        cut = len(pending) - k
        taken = pending[cut:]
        del pending[cut:]
        return [(u >> 11) * _UNIT < p for u in reversed(taken)]


def split_seed(seed: int, index: int) -> int:
    """Seed for substream ``index``: the ``(index+1)``-th output of a master
    generator seeded with ``seed``."""
    if index < 0:
        raise ValueError(f"substream index must be nonnegative, got {index}")
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


def substream(seed: int, index: int) -> SplitMix64:
    return SplitMix64(split_seed(seed, index))
