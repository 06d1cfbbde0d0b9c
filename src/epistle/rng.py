"""Deterministic, portable random number generation.

The generator is SplitMix64: a 64-bit counter stepped by the golden-ratio
increment, with each output passed through a fixed avalanche mix.  It is
seedable, platform independent, and cheap to split.

Output ``k`` after state ``s`` is ``mix(s + k * golden)``, so outputs are
computed many at a time: the counters sit in 128-bit lanes of one integer,
each shift is masked to the low 64 bits of every lane, and a product of two
64-bit values stays inside its lane.  One lane layout serves both uses: a
generator computes ``FIRST`` outputs at a time, ``substreams`` the first
``FIRST`` of each of ``BLOCK`` draws.  They are the scalar generator's
outputs, in order, whichever methods consume them.

Splitting rule: substream ``k`` of ``seed`` is ``SplitMix64(split_seed(seed,
k))``, where ``split_seed(seed, k)`` is the ``(k+1)``-th raw output of a
SplitMix64 seeded with ``seed``.  Each draw of dataset generation runs on
substream ``draw_index`` of ``split_seed(master_seed, setup_ordinal)``, so it
is reproducible in isolation and results can be merged in draw order
regardless of scheduling; it takes them in order from ``substreams``.

Every value is read from one output ``u``.  A coin of probability ``p`` is
``u < threshold(p)``: ``u``'s top 53 bits, as a float in [0, 1), are below
``p``.  An index below ``n`` is ``u % n if u < LIMITS[n] else rng.below(n)``:
``below`` rejects an output at or above ``LIMITS[n]``, the largest multiple
of ``n`` not above ``2**64``, and goes on with the next.  A caller may apply
either rule to ``pending.pop() if pending else rng.next_u64()``, the output a
method takes.
"""

from __future__ import annotations

import math
import struct
from typing import Iterator, Sequence, TypeVar

__all__ = ["LIMITS", "SplitMix64", "split_seed", "substreams", "threshold"]

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GOLDEN = 0x9E3779B97F4A7C15

# lane d * FIRST + k holds state d's counter FIRST - k steps ahead, so
# ``list.pop`` takes each state's unpacked outputs in order; the lanes of one
# or BLOCK states repeat one state's, built from bytes in time linear in size
BLOCK = FIRST = 32
_LOW = (b"\xff" * 8 + bytes(8)) * FIRST  # the low 64 bits of every lane
_STEPS = b"".join(((FIRST - k) * _GOLDEN).to_bytes(16, "little") for k in range(FIRST))
_LANES = {c: (int.from_bytes(_LOW * c, "little"), int.from_bytes(_STEPS * c, "little"))
          for c in (1, BLOCK)}
_UNPACK = struct.Struct("<" + "Q8x" * FIRST)

# ``2**64 - 2**64 % n`` for each bound ``n`` under 256, all the generator passes
LIMITS = (0, *(_TWO64 - _TWO64 % n for n in range(1, 256)))

T = TypeVar("T")


def threshold(p: float) -> int:
    """The least output at which a coin of probability ``p`` comes up
    False: ``(u >> 11) * 2**-53 < p`` exactly when ``u < threshold(p)``."""
    return math.ceil(p * 2**53) << 11


def _mix(z: int, low: int = _MASK64) -> int:
    """The output mix of each 128-bit lane of ``z`` that holds a 64-bit value;
    ``low`` masks the low 64 bits of every lane, and high halves end garbage."""
    z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
    z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
    return z ^ (z >> 31)


def _outputs(states: list[int]) -> bytes:
    """The next ``FIRST`` outputs after each of one or ``BLOCK`` ``states``,
    packed in their lanes."""
    low, steps = _LANES[len(states)]
    z = int.from_bytes(b"".join(s.to_bytes(16, "little") * FIRST for s in states), "little")
    return _mix((z + steps) & low, low).to_bytes(16 * FIRST * len(states), "little")


class SplitMix64:
    """Seedable 64-bit generator with a uniform-int and coin interface."""

    __slots__ = ("_state", "pending")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        # outputs computed and not yet taken, the next one last; refilled in place
        self.pending: list[int] = []

    def _refill(self) -> None:
        """Put the next ``FIRST`` outputs behind the pending ones."""
        s = self._state
        self._state = (s + FIRST * _GOLDEN) & _MASK64
        self.pending[:0] = _UNPACK.unpack(_outputs([s]))

    def next_u64(self) -> int:
        pending = self.pending
        if not pending:
            self._refill()
        return pending.pop()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), for ``1 <= n <= 2**64``; rejection
        sampling avoids modulo bias."""
        if 0 < n < 256:
            limit = LIMITS[n]
        elif 0 < n <= _TWO64:
            limit = _TWO64 - _TWO64 % n
        else:
            raise ValueError(f"need a bound in [1, 2**64], got {n}")
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq: Sequence[T]) -> T:
        return seq[self.below(len(seq))]

    def chance(self, p: float) -> bool:
        """True with probability ``p``: the output is below ``threshold(p)``."""
        return self.next_u64() < threshold(p)

    def coins(self, p: float, k: int) -> list[bool]:
        """``k`` calls of ``chance(p)``, in draw order."""
        pending, t = self.pending, threshold(p)
        while len(pending) < k:
            self._refill()
        return [pending.pop() < t for _ in range(k)]


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
        for s, outputs in zip(seeds, _UNPACK.iter_unpack(_outputs(seeds))):
            rng = SplitMix64(s + FIRST * _GOLDEN)
            rng.pending = list(outputs)
            yield rng
