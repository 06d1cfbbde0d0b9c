"""``support.partition_label``, the checker that shares no code with the
interpreter, against the oracle and against both backends on drawn problems
of four to eight agents, contradictory draws included."""

import pytest

from epistle.backends import both_label
from epistle.generator import GenConfig, iter_problems
from epistle.rng import SplitMix64

from support import PartitionCheck, oracle_label, partition_label, random_formula


def test_it_agrees_with_the_oracle_on_random_problems():
    rng = SplitMix64(0x9A)
    contradictory = 0
    for _ in range(300):
        n = 2 + rng.below(3)
        rows = tuple(tuple(rng.chance(0.5) for _ in range(n)) for _ in range(n))
        anns = [random_formula(rng, n, depth=2) for _ in range(rng.below(3))]
        hyp = random_formula(rng, n, depth=3)
        expected = oracle_label(n, rows, anns, hyp)
        contradictory += expected is None
        assert partition_label(n, rows, anns, hyp) == (
            "contradictory" if expected is None else expected
        )
    assert contradictory > 0


# about 2,000 draws at four to six agents and 300 at eight; the counts are
# accepted problems, as ``crosscheck --count`` gives them
@pytest.mark.parametrize(
    "seed, n_agents, count, draws", [(13, (4, 5, 6), 1000, 2057), (1, (8,), 110, 295)]
)
def test_both_backends_agree_with_it_on_every_draw(seed, n_agents, count, draws):
    replay = PartitionCheck(both_label)  # which raises when the backends differ
    cfg = GenConfig(seed=seed, n_agents_choices=n_agents)
    assert sum(1 for _ in iter_problems(cfg, count, replay)) == count
    assert replay.draws == draws and replay.contradictory == draws - count
    assert replay.disagreements == []
