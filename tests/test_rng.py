"""Known-answer tests for the SplitMix64 generator.

The dataset hash pins the generator only through everything built on it;
these pin its raw outputs and each derived draw directly, and check the
blocked outputs against the scalar generator in ``tests/support.py``.
"""

from itertools import islice

import pytest

from epistle.rng import BLOCK, FIRST, SplitMix64, split_seed, substreams, threshold

from support import GOLDEN, ScalarSplitMix64, random_float


def test_next_u64_matches_reference_vector():
    # the published SplitMix64 test vector for seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_below_is_pinned():
    rng = SplitMix64(1234567)
    assert [rng.below(3) for _ in range(8)] == [0, 1, 0, 1, 2, 0, 0, 1]


def test_chance_is_pinned_and_agrees_with_random():
    rng = SplitMix64(1234567)
    assert [rng.chance(0.5) for _ in range(8)] == [
        True, True, False, True, False, True, False, True
    ]
    floats, coins = SplitMix64(99), SplitMix64(99)
    for p in (0.0, 0.25, 0.5, 0.8, 1.0):
        for _ in range(200):
            assert coins.chance(p) == (random_float(floats) < p)


def test_threshold_is_the_float_coin_rule():
    """``u < threshold(p)`` is ``(u >> 11) * 2**-53 < p`` at the outputs
    either side of the threshold and at 10,000 random ones, for each ``p``
    the generator passes."""
    scalar = ScalarSplitMix64(0x7E5)
    outputs = [scalar.next_u64() for _ in range(10_000)]
    for p in (0.5, 0.8, *(1.0 / n for n in range(2, 201))):
        t = threshold(p)
        assert t - 1 < t < 2**64 and ((t - 1) >> 11) * 2**-53 < p <= (t >> 11) * 2**-53, p
        assert all((u < t) == ((u >> 11) * 2**-53 < p) for u in outputs), p


def test_random_is_pinned():
    rng = SplitMix64(1234567)
    assert [random_float(rng) for _ in range(3)] == [
        0.3500795420214081, 0.17364409667091263, 0.5322073040624192
    ]


def test_split_seed_is_pinned():
    assert [split_seed(7, k) for k in range(4)] == [
        7191089600892374487,
        309689372594955804,
        16616101746815609346,
        10753165928301472203,
    ]


def test_split_seed_is_the_master_stream():
    master = SplitMix64(7)
    assert [split_seed(7, k) for k in range(4)] == [master.next_u64() for _ in range(4)]


@pytest.mark.parametrize("bound", [0, -1, 2**64 + 1])
def test_below_rejects_bounds_outside_one_to_two_pow_64(bound):
    with pytest.raises(ValueError):
        SplitMix64(1).below(bound)


def test_below_full_range_returns_raw_output():
    assert SplitMix64(1234567).below(2**64) == 6457827717110365317


# One call of each kind a program may make; the bounds include 2**63 + 1,
# which rejects about half of its outputs, and the coin counts cross one or
# two refills.
_CALLS = (
    ("next_u64",),
    *(("below", b) for b in (1, 2, 3, 7, 2**32, 2**63 + 1, 2**64)),
    *(("chance", p) for p in (0.0, 0.25, 0.5, 0.8, 1.0)),
    *(("coins", p, k) for p in (1 / 3, 0.5) for k in (0, 1, FIRST - 1, FIRST, FIRST + 1, 2 * FIRST + 1)),
)


@pytest.mark.parametrize(
    "seed",
    [0, 1234567, 2**64 - 1, *(split_seed(7, k) for k in range(4))],
)
def test_blocked_outputs_are_the_scalar_outputs(seed):
    script = ScalarSplitMix64(seed ^ 0x5EED)
    for _ in range(12):
        blocked, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
        for _ in range(script.below(101)):
            name, *args = _CALLS[script.below(len(_CALLS))]
            assert getattr(blocked, name)(*args) == getattr(scalar, name)(*args), (name, args)
        # the stream goes on where the scalar one is, mid-block or not, across
        # two refills
        assert [blocked.next_u64() for _ in range(3 * FIRST)] == [
            scalar.next_u64() for _ in range(3 * FIRST)
        ]


def test_below_with_high_rejection_rate_matches_scalar():
    blocked, scalar = SplitMix64(1234567), ScalarSplitMix64(1234567)
    bound = 2**63 + 1
    assert [blocked.below(bound) for _ in range(3 * FIRST)] == [
        scalar.below(bound) for _ in range(3 * FIRST)
    ]
    # about half the outputs were rejected: count the steps the stream took
    steps = (scalar.state - 1234567) * pow(GOLDEN, -1, 2**64) % 2**64
    assert steps >= 5 * FIRST


@pytest.mark.parametrize(
    "bound", [1, 2, 3, 5, 255, 256, 257, 2**63, 2**64 - 1, 2**64]
)
def test_below_rejects_from_the_limit_of_the_formula(bound):
    """Below 256 the limit comes from a table; it is still ``2**64 - 2**64
    % bound``: the output under it is kept, the output at it rejected."""
    limit = 2**64 - 2**64 % bound
    rng = SplitMix64(1)
    rng.pending = [12345, limit - 1]  # ``pop`` takes the last first
    assert rng.below(bound) == (limit - 1) % bound
    if limit < 2**64:
        rng.pending = [12345, limit]
        assert rng.below(bound) == 12345 % bound
        assert rng.pending == []


# the first and last draw of each of the first three blocks, and one inside
_BATCHED_DRAWS = [i for b in range(3) for i in (b * BLOCK, b * BLOCK + 7, (b + 1) * BLOCK - 1)]


@pytest.mark.parametrize("seed", [0, 7, 1234567, 2**64 - 1])
def test_substreams_are_the_scalar_substreams(seed):
    draws = list(islice(substreams(seed), 3 * BLOCK))
    for i in _BATCHED_DRAWS:
        scalar = ScalarSplitMix64(split_seed(seed, i))
        assert [draws[i].next_u64() for _ in range(3 * FIRST + 1)] == [
            scalar.next_u64() for _ in range(3 * FIRST + 1)
        ], i


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("index", _BATCHED_DRAWS)
def test_batched_draws_go_on_past_their_first_outputs(seed, index):
    """Each draw of ``substreams`` runs the call script of the blocked test
    past its ``FIRST`` precomputed outputs and two refills."""
    script = ScalarSplitMix64(seed ^ index)
    batched = next(islice(substreams(seed), index, None))
    scalar = ScalarSplitMix64(split_seed(seed, index))
    while _steps(scalar, seed, index) <= 3 * FIRST:
        name, *args = _CALLS[script.below(len(_CALLS))]
        assert getattr(batched, name)(*args) == getattr(scalar, name)(*args), (name, args)
    assert batched.next_u64() == scalar.next_u64()


def _steps(scalar, seed, index):
    """Outputs the scalar generator has taken since ``split_seed(seed, index)``."""
    return (scalar.state - split_seed(seed, index)) * pow(GOLDEN, -1, 2**64) % 2**64
