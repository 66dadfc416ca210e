"""The block schedule and the band means.

Everything here is pure arithmetic on lists of numbers, so
``bench/tests`` can pin it on hand-made samples.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Iterator, Sequence

from bench.spec import BLOCK


def blocks(seed: int) -> Iterator[list[str]]:
    """The request schedule: an endless stream of whole ``mix16`` blocks,
    each a seeded shuffle — so every template's share is exact in any
    whole number of blocks, and equal seeds give equal schedules."""
    rng = random.Random(f"{seed}/schedule")
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        yield block


def band_mean(samples: Sequence[float], lo: float, hi: float) -> float:
    """Mean of the samples ranked in the ``[lo, hi)`` quantile band.

    A raw order statistic that lands on the boundary between two query
    classes flips class from run to run; the mean over a band that
    straddles the boundary is a fixed blend of both and does not.
    """
    return statistics.fmean(sorted(samples)[_band(len(samples), lo, hi)])


def _band(n: int, lo: float, hi: float) -> slice:
    """The ranks of ``n`` sorted samples in ``[lo, hi)``: one at least."""
    # Rounded first: 0.55 * 100 is 55.00000000000001 in floating point.
    first = min(n - 1, math.floor(round(lo * n, 9)))
    return slice(first, max(first + 1, math.ceil(round(hi * n, 9))))


def p50(samples: Sequence[float]) -> float:
    return band_mean(samples, 0.45, 0.55)


def p90(samples: Sequence[float]) -> float:
    return band_mean(samples, 0.85, 0.95)


def band_members(
    samples: Sequence[tuple[float, str]], lo: float, hi: float
) -> dict[str, int]:
    """Which labels (templates) the ``[lo, hi)`` band is made of."""
    counts: dict[str, int] = {}
    for _, label in sorted(samples)[_band(len(samples), lo, hi)]:
        counts[label] = counts.get(label, 0) + 1
    return counts
