"""Order-preserving reassembly of per-shard results.

Segments own disjoint, increasing spans of the position axis, and every
region a shard task can return lies inside its segment's ownership
span, so per-shard result sets — each already in canonical
``(left, right)`` order — concatenate into a globally sorted,
duplicate-free sequence.  :func:`merge_region_sets` verifies that
boundary condition in O(K) and takes the concatenation fast path
through :meth:`RegionSet._from_sorted`; inputs that interleave (the
function is usable standalone) fall back to a k-way heap merge.
"""

from __future__ import annotations

from heapq import merge as _heap_merge
from typing import Sequence

from repro.core.region import Region
from repro.core.regionset import RegionSet

__all__ = ["merge_region_sets"]


def merge_region_sets(sets: Sequence[RegionSet]) -> RegionSet:
    """The union of ``sets``, preserving canonical region order."""
    parts = [s for s in sets if s]
    if not parts:
        return RegionSet.empty()
    if len(parts) == 1:
        return parts[0]
    if all(
        prev.regions[-1] < cur.regions[0]
        for prev, cur in zip(parts, parts[1:])
    ):
        regions: list[Region] = []
        for part in parts:
            regions.extend(part.regions)
        return RegionSet._from_sorted(regions)
    out: list[Region] = []
    for region in _heap_merge(*(part.regions for part in parts)):
        if not out or out[-1] != region:
            out.append(region)
    return RegionSet._from_sorted(out)
