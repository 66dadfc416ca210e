"""Cutting a hierarchical instance into shard segments.

A hierarchical instance is an ordered forest (Section 3): its top-level
regions — those included in no other region — are pairwise disjoint and
sit in document order, and every other region lives inside exactly one
of them.  Cutting *between* top-level trees therefore never separates a
region from anything it includes, is included in, or directly includes:
all containment relations stay inside one segment, and only the
ordering relations ``<``/``>`` (plus word-index match points, which are
not instance regions) can cross a cut.

:func:`partition_instance` assigns whole top-level trees to K
contiguous segments, balanced by region count with a greedy sweep.  For
a multi-document :class:`~repro.engine.corpus.Corpus` the forest roots
*are* the ``document`` regions, so cuts are document-aligned by
construction.  Each segment carries a restricted sub-:class:`Instance`
(sharing the word index — ``W(r, p)`` is position-keyed and identical
on any restriction) and the half-open *ownership span* of text
positions it is responsible for, by which :meth:`Segment.route` — the
one match-point router, shared by the executor and the backends — hands
each segment its occurrences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any

from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.errors import ReproError

__all__ = ["Segment", "Partition", "partition_instance"]


@dataclass(frozen=True)
class Segment:
    """One shard: a contiguous run of top-level trees.

    ``own_left``/``own_right`` bound the positions this segment owns
    (inclusive; ``None`` means unbounded).  Ownership spans tile the
    whole axis — gaps between trees belong to the segment on their
    left — so every position, and hence every match point's left
    endpoint, has exactly one owner.
    """

    index: int
    instance: Instance
    roots: tuple[Region, ...]
    own_left: int | None  #: first owned position (None = -inf)
    own_right: int | None  #: last owned position (None = +inf)

    @property
    def region_count(self) -> int:
        return len(self.instance)

    def owns(self, position: int) -> bool:
        if self.own_left is not None and position < self.own_left:
            return False
        if self.own_right is not None and position > self.own_right:
            return False
        return True

    def route(self, points: RegionSet) -> RegionSet | None:
        """This segment's share of a pattern's match points: those whose
        left endpoint it owns — one slice of the sorted arrays.  ``None``
        when one of them runs past ``own_right``: an occurrence spanning
        a cut can be hosted soundly by no segment (replicating it would
        break operators that relate it to regions on both sides), so the
        query must not be sharded."""
        lefts = points._lefts
        lo = 0 if self.own_left is None else bisect_left(lefts, self.own_left)
        hi = len(lefts) if self.own_right is None else bisect_right(lefts, self.own_right)
        if lo >= hi:
            return RegionSet.empty()
        rights = points._rights[lo:hi]
        if self.own_right is not None and max(rights) > self.own_right:
            return None
        return RegionSet._from_arrays(lefts[lo:hi], rights)

    def summary(self) -> dict[str, Any]:
        """JSON-ready description (CLI ``stats`` and ``/corpora``)."""
        return {
            "index": self.index,
            "roots": len(self.roots),
            "regions": self.region_count,
            "span": [
                self.roots[0].left if self.roots else None,
                self.roots[-1].right if self.roots else None,
            ],
        }


@dataclass(frozen=True)
class Partition:
    """An instance cut into segments at top-level forest boundaries."""

    instance: Instance
    segments: tuple[Segment, ...]
    requested: int  #: the K asked for (len(segments) may be smaller)

    def __len__(self) -> int:
        return len(self.segments)

    def owner_of(self, position: int) -> Segment:
        """The segment whose ownership span covers ``position``."""
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            right = self.segments[mid].own_right
            if right is not None and position > right:
                lo = mid + 1
            else:
                hi = mid
        return self.segments[lo]

    def boundary_regions(self) -> list[tuple[Region, Region]]:
        """The top-level trees adjacent to each cut — two per cut.

        These are the O(1)-per-cut regions the fix-up pass reasons
        about; the CLI reports them in the partition summary.
        """
        out: list[tuple[Region, Region]] = []
        for left, right in zip(self.segments, self.segments[1:]):
            if left.roots and right.roots:
                out.append((left.roots[-1], right.roots[0]))
        return out

    def summary(self) -> dict[str, Any]:
        return {
            "requested": self.requested,
            "segments": [segment.summary() for segment in self.segments],
            "cuts": len(self.segments) - 1,
            "boundary_regions": [
                [a.as_tuple(), b.as_tuple()] for a, b in self.boundary_regions()
            ],
        }


def partition_instance(instance: Instance, shards: int) -> Partition:
    """Cut ``instance`` into at most ``shards`` contiguous segments.

    Top-level trees (forest roots) are the indivisible units; segments
    are balanced by total region count with a greedy sweep toward the
    ideal ``total / shards`` load.  With fewer roots than requested
    shards, every root gets its own segment and the partition is
    smaller than asked — a single-root document simply cannot be cut at
    top level, and the executor degenerates to one task.

    A tree is a run of the universe columns — the regions whose left
    endpoint lies inside its root — so its weight is two bisects and a
    segment is an offset range (:meth:`Instance.trees`).
    """
    if shards < 1:
        raise ReproError("shard count must be at least 1")
    roots = instance.forest().roots()  # document order: roots are disjoint, sorted
    if not roots:
        segment = Segment(0, instance, (), None, None)
        return Partition(instance, (segment,), shards)
    lefts = instance.all_regions()._lefts
    starts = [bisect_left(lefts, root.left) for root in roots]
    stops = [bisect_right(lefts, root.right) for root in roots]
    weights = [stop - start for start, stop in zip(starts, stops)]
    k = min(shards, len(roots))
    groups: list[list[int]] = []
    remaining_weight = sum(weights)
    remaining_groups = k
    load = 0
    current: list[int] = []
    for i, weight in enumerate(weights):
        current.append(i)
        load += weight
        roots_left = len(roots) - i - 1
        groups_left = remaining_groups - 1
        target = remaining_weight / remaining_groups
        # Close the group at the balance target, or early if leaving it
        # open would starve a later group of roots.
        if groups_left and (load >= target or roots_left <= groups_left):
            groups.append(current)
            remaining_weight -= load
            remaining_groups -= 1
            current, load = [], 0
    if current:
        groups.append(current)
    segments: list[Segment] = []
    for index, group in enumerate(groups):
        group_roots = [roots[i] for i in group]
        own_left = None if index == 0 else group_roots[0].left
        own_right = (
            None
            if index == len(groups) - 1
            else roots[groups[index + 1][0]].left - 1
        )
        segments.append(
            Segment(
                index=index,
                instance=instance.trees(starts[group[0]], stops[group[-1]]),
                roots=tuple(group_roots),
                own_left=own_left,
                own_right=own_right,
            )
        )
    return Partition(instance, tuple(segments), shards)
