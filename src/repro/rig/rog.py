"""Region order graphs (Section 2.2).

The order-side analogue of a RIG: ``(R_i, R_j) ∈ E`` iff an ``R_i``
region can *directly precede* an ``R_j`` region — ``r < s`` with no
region strictly between them in the precedence order.  Acyclic ROGs
bound the number of pairwise non-overlapping regions (the premise of
Proposition 5.4's ``BI`` expansion).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.instance import Instance
from repro.core.region import Region
from repro.rig.graph import NameGraph

__all__ = ["RegionOrderGraph", "direct_precedence_pairs"]


def direct_precedence_pairs(instance: Instance) -> Iterator[tuple[Region, Region]]:
    """All pairs ``(r, s)`` where ``r`` directly precedes ``s``.

    ``r`` directly precedes ``s`` when ``r < s`` and no region ``t``
    satisfies ``r < t < s``.  With regions sorted by left endpoint and a
    suffix-minimum over right endpoints, the witnesses for each ``r`` are
    exactly the regions starting in ``(right(r), m]`` where ``m`` is the
    smallest right endpoint among regions starting after ``right(r)``.
    """
    ordered = sorted(instance.all_regions(), key=lambda r: (r.left, r.right))
    lefts = [r.left for r in ordered]
    suffix_min_right: list[int | float] = [float("inf")] * (len(ordered) + 1)
    for i in range(len(ordered) - 1, -1, -1):
        suffix_min_right[i] = min(ordered[i].right, suffix_min_right[i + 1])
    from bisect import bisect_right

    for r in ordered:
        start = bisect_right(lefts, r.right)
        if start >= len(ordered):
            continue
        cutoff = suffix_min_right[start]
        j = start
        while j < len(ordered) and ordered[j].left <= cutoff:
            yield r, ordered[j]
            j += 1


class RegionOrderGraph(NameGraph):
    """An immutable directed graph of possible direct precedences."""

    __slots__ = ()

    KIND = "ROG"

    def satisfied_by(self, instance: Instance) -> bool:
        """Every direct precedence in the instance is an edge here."""
        for name in instance.names:
            if name not in self._succ and len(instance.region_set(name)):
                return False
        for before, after in direct_precedence_pairs(instance):
            if not self.has_edge(instance.name_of(before), instance.name_of(after)):
                return False
        return True

    def violations(self, instance: Instance) -> Iterator[tuple[str, str]]:
        for before, after in direct_precedence_pairs(instance):
            pair = (instance.name_of(before), instance.name_of(after))
            if not self.has_edge(*pair):
                yield pair
