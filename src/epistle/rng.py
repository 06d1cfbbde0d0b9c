"""Deterministic, portable random number generation.

The generator is SplitMix64: a 64-bit counter stepped by the golden-ratio
increment, with each output passed through a fixed avalanche mix.  It is
seedable, platform independent, and cheap to split.

Output ``k`` after state ``s`` is ``mix(s + k * golden)``, so outputs are
computed many at a time: the counters sit in 128-bit lanes of one integer,
each shift is masked to the low 64 bits of every lane, and a product of two
64-bit values stays inside its lane.  A generator computes ``LANES`` at a
time, ``substreams`` the first ``FIRST`` of each of ``BLOCK`` draws.  They
are the scalar generator's outputs, in order, whichever methods consume them.

Splitting rule: substream ``k`` of ``seed`` is ``SplitMix64(split_seed(seed,
k))``, where ``split_seed(seed, k)`` is the ``(k+1)``-th raw output of a
SplitMix64 seeded with ``seed``.  Each draw of dataset generation runs on
substream ``draw_index`` of ``split_seed(master_seed, setup_ordinal)``, so it
is reproducible in isolation and results can be merged in draw order
regardless of scheduling; it takes them in order from ``substreams``.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence, TypeVar

__all__ = ["SplitMix64", "split_seed", "substreams"]

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

# ``substreams``: lane d * FIRST + k holds draw d's counter FIRST - k steps
# ahead; these constants are built from bytes, in time linear in their size
BLOCK = FIRST = 32
_FIRST_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * (BLOCK * FIRST), "little")
_STEP_LANES = b"".join(((FIRST - k) * _GOLDEN).to_bytes(16, "little") for k in range(FIRST))
_FIRST_STEPS = int.from_bytes(_STEP_LANES * BLOCK, "little")
_UNPACK_FIRST = struct.Struct("<" + "Q8x" * (BLOCK * FIRST)).unpack

# ``below``'s rejection limit of each bound under 256, which covers every
# bound the generator passes
_LIMITS = (0, *(_TWO64 - _TWO64 % n for n in range(1, 256)))

T = TypeVar("T")


def _mix(z: int, low: int = _MASK64) -> int:
    """The output mix of each 128-bit lane of ``z`` that holds a 64-bit value;
    ``low`` masks the low 64 bits of every lane, and high halves end garbage."""
    z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
    z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
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
        z = _mix((s * _ONES + _STEPS) & _LOW, _LOW)
        self._pending[:0] = _UNPACK(z.to_bytes(16 * LANES, "little"))

    def next_u64(self) -> int:
        pending = self._pending
        if not pending:
            self._refill()
        return pending.pop()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), for ``1 <= n <= 2**64``; rejection
        sampling avoids modulo bias."""
        if 0 < n < 256:
            limit = _LIMITS[n]
        elif 0 < n <= _TWO64:
            limit = _TWO64 - _TWO64 % n
        else:
            raise ValueError(f"need a bound in [1, 2**64], got {n}")
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


def substreams(seed: int) -> Iterator[SplitMix64]:
    """``SplitMix64(split_seed(seed, k))`` for ``k`` = 0, 1, ... in order,
    each with its first ``FIRST`` outputs already computed."""
    master = SplitMix64(seed)  # its outputs are the split seeds
    while True:
        seeds = [master.next_u64() for _ in range(BLOCK)]
        z = int.from_bytes(b"".join(s.to_bytes(16, "little") * FIRST for s in seeds), "little")
        z = _mix((z + _FIRST_STEPS) & _FIRST_LOW, _FIRST_LOW)
        outputs = _UNPACK_FIRST(z.to_bytes(16 * BLOCK * FIRST, "little"))
        for d, s in enumerate(seeds):
            rng = SplitMix64(s + FIRST * _GOLDEN)
            rng._pending = list(outputs[d * FIRST : (d + 1) * FIRST])
            yield rng
