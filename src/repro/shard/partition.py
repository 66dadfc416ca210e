"""Cutting a hierarchical instance into shard pieces.

A hierarchical instance is an ordered forest (Section 3): its top-level
regions — those included in no other region — are pairwise disjoint and
sit in document order, and every other region lives inside exactly one
of them.  Cutting *between* top-level trees therefore never separates a
region from anything it includes, is included in, or directly includes:
all containment relations stay inside one piece, and only the ordering
relations ``<``/``>`` (plus word-index match points, which are not
instance regions) can cross a cut.

:func:`partition_instance` assigns whole top-level trees to K
contiguous groups, balanced by region count with a greedy sweep, and
returns one :class:`~repro.engine.pieces.Piece` per group.  For a
multi-document :class:`~repro.engine.corpus.Corpus` the forest roots
*are* the ``document`` regions, so cuts are document-aligned by
construction.  Each piece's instance slices the instance's columns and
shares its word index (``W(r, p)`` is position-keyed and identical on
any restriction), so its coordinates are the instance's own: its origin
is 0.  The pieces tile the text axis ``[0, extent)``: each starts at
its first root (the first at 0, or at its root when that lies before
0), so the gap after a tree belongs to the piece on its left, and every
position — hence every match point's left endpoint — lies in exactly
one piece's span, by which :meth:`Piece.route
<repro.engine.pieces.Piece.route>` hands each piece its occurrences.  A
group left without trees (K above the number of trees) gets a
zero-length piece at the extent: no regions, no position.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.core.instance import Instance
from repro.core.wordindex import TextWordIndex
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pieces import Piece

__all__ = ["partition_instance"]


def partition_instance(instance: Instance, shards: int) -> tuple["Piece", ...]:
    """Cut ``instance`` into ``shards`` contiguous pieces.

    Top-level trees (forest roots) are the indivisible units; pieces
    are balanced by total region count with a greedy sweep toward the
    ideal ``total / shards`` load.  With fewer roots than requested
    shards, every root gets its own piece and the groups past them get
    zero-length ones — a single-root document simply cannot be cut at
    top level.  An instance with no roots is one piece over the axis.

    A tree is a run of the universe columns — the regions whose left
    endpoint lies inside its root — so its weight is two bisects and a
    piece's instance is an offset range (:meth:`Instance.trees`).  The
    axis ends past the last root and the last word occurrence.
    """
    # repro.engine builds on repro.shard, so it is imported here.
    from repro.engine.pieces import Piece

    if shards < 1:
        raise ReproError("shard count must be at least 1")
    roots = instance.forest().roots()  # document order: roots are disjoint, sorted
    word_index = instance.word_index
    extent = max(
        roots[-1].right + 1 if roots else 0,
        word_index.end() if isinstance(word_index, TextWordIndex) else 0,
    )
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
    cuts = [min(0, roots[0].left) if roots else 0]
    cuts += [roots[group[0]].left for group in groups[1:]] + [extent]
    pieces = [
        Piece(instance.trees(starts[group[0]], stops[group[-1]]), lo, hi - lo, 0)
        for group, lo, hi in zip(groups, cuts, cuts[1:])
    ] or [Piece(instance, 0, extent, 0)]
    if len(pieces) < shards:
        empty = Piece(instance.trees(0, 0), extent, 0, 0)
        pieces += [empty] * (shards - len(pieces))
    return tuple(pieces)
