"""The estimators, pinned on hand-made samples."""

from collections import Counter
from itertools import islice

import pytest

from bench import stats
from bench.spec import BLOCK, MIX16


def test_band_mean_of_a_uniform_ramp():
    samples = list(range(100))  # 0..99
    assert stats.band_mean(samples, 0.45, 0.55) == pytest.approx(49.5)
    assert stats.band_mean(samples, 0.85, 0.95) == pytest.approx(89.5)


def test_band_mean_does_not_flip_on_a_two_class_boundary():
    # Half the requests take 1 ms, half 10 ms: the raw median sits on
    # the class boundary, and one sample either way flips it 1 <-> 10.
    even = [1.0] * 50 + [10.0] * 50
    tilted = [1.0] * 51 + [10.0] * 49
    assert stats.p50(even) == pytest.approx(5.5)
    assert stats.p50(tilted) == pytest.approx(stats.p50(even), rel=0.2)
    raw_even = sorted(even)[50]
    raw_tilted = sorted(tilted)[50]
    assert raw_even == 10.0 and raw_tilted == 1.0  # what the band mean avoids


def test_band_mean_needs_no_minimum_sample_count():
    assert stats.band_mean([7.0], 0.85, 0.95) == 7.0
    assert stats.band_mean([1.0, 2.0, 3.0], 0.85, 0.95) == 3.0


def test_band_members_names_the_classes_in_the_band():
    samples = [(1.0, "fast")] * 50 + [(10.0, "slow")] * 50
    assert stats.band_members(samples, 0.45, 0.55) == {"fast": 5, "slow": 5}
    assert stats.band_members(samples, 0.85, 0.95) == {"slow": 10}


def test_schedule_is_a_function_of_the_seed():
    first = list(islice(stats.blocks(7), 5))
    again = list(islice(stats.blocks(7), 5))
    other = list(islice(stats.blocks(8), 5))
    assert first == again
    assert first != other


def test_every_block_has_exact_class_shares():
    shares = {name: weight for name, (_, weight) in MIX16.items()}
    assert sum(shares.values()) == len(BLOCK) == 16
    for block in islice(stats.blocks(3), 20):
        assert Counter(block) == shares
    assert len({tuple(b) for b in islice(stats.blocks(3), 20)}) > 1  # shuffled
