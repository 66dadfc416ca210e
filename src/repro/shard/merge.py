"""Order-preserving reassembly of per-shard results.

Pieces own disjoint, increasing spans of the position axis, and every
region a shard task can return lies inside its piece's span, so per-shard result sets — each already in canonical
``(left, right)`` order — concatenate into a globally sorted,
duplicate-free sequence.  :func:`merge_region_sets` verifies that
boundary condition in O(K) and concatenates the endpoint arrays;
inputs that interleave (the function is usable standalone) fall back to
a k-way heap merge of ``(left, right)`` pairs.  Neither path builds a
:class:`~repro.core.region.Region`.
"""

from __future__ import annotations

from heapq import merge as _heap_merge
from typing import Sequence

from repro.core.regionset import RegionSet

__all__ = ["merge_region_sets"]


def merge_region_sets(sets: Sequence[RegionSet]) -> RegionSet:
    """The union of ``sets``, preserving canonical region order."""
    parts = [s for s in sets if s]
    if not parts:
        return RegionSet.empty()
    if len(parts) == 1:
        return parts[0]
    lefts: list[int] = []
    rights: list[int] = []
    if all(
        (prev._lefts[-1], prev._rights[-1]) < (cur._lefts[0], cur._rights[0])
        for prev, cur in zip(parts, parts[1:])
    ):
        for part in parts:
            lefts += part._lefts
            rights += part._rights
        return RegionSet._from_arrays(lefts, rights)
    last = None
    for pair in _heap_merge(*(zip(part._lefts, part._rights) for part in parts)):
        if pair != last:
            lefts.append(pair[0])
            rights.append(pair[1])
            last = pair
    return RegionSet._from_arrays(lefts, rights)
