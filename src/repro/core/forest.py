"""The direct-inclusion forest of a hierarchical region collection.

Section 3 of the paper observes that a hierarchical instance, viewed
through the relations the algebra can test (inclusion and precedence),
is an ordered forest: *direct inclusion* (no region strictly in between)
is the parent relation, and precedence is the sibling/document order.
This module materializes that forest once per instance and answers the
structural questions the rest of the library needs:

* ``parent_of`` / ``children_of`` / ``ancestors_of`` / ``subtree_of``,
* the *direct* operators ``⊃_d``/``⊂_d`` of Section 5.1 (a region
  directly includes another iff it is its parent here),
* the layer decomposition used by the Section 6 while-programs,
* pre-order numbering, which later becomes the ``{0,1}*`` embedding of
  the FMFT models (Definition 3.2).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.errors import HierarchyError

__all__ = ["Forest", "nest"]


def _kept(regions: RegionSet, keep: list) -> RegionSet:
    """The members of ``regions`` flagged in ``keep``, order preserved."""
    return RegionSet._from_arrays(
        list(compress(regions._lefts, keep)), list(compress(regions._rights, keep))
    )


def nest(
    lefts: list[int],
    rights: list[int],
    parent_pos: list[int],
    strict: bool = True,
    name_at: Callable[[int], str] | None = None,
) -> None:
    """Extend ``parent_pos`` over the columns from where it ends: the one
    structural sweep of a universe in ``(left, right)`` order.

    It runs in pre-order — by left endpoint, a tower of equal lefts
    outermost first — so the top of the stack of open regions is each
    region's parent (``-1``: a root).  :class:`HierarchyError` unless the
    pairs strictly ascend, which also rejects a region listed twice
    (``name_at`` names a position's owner), and, when ``strict``, on a
    popped region that ends inside the current one: an overlap.
    """
    start = len(parent_pos)
    total = len(lefts)
    parent_pos.extend([-1] * (total - start))
    stack: list[int] = []
    i = start
    while i < total:
        left = lefts[i]
        if i and left < lefts[i - 1]:
            raise HierarchyError(f"regions are not in (left, right) order at {i}")
        stop = i + 1
        while stop < total and lefts[stop] == left:
            stop += 1
        for pos in range(stop - 1, i - 1, -1):
            right = rights[pos]
            if pos + 1 < stop and right >= rights[pos + 1]:
                if right > rights[pos + 1]:
                    raise HierarchyError(f"regions are not in (left, right) order at {pos}")
                where = "twice" if name_at is None else (
                    f"in both {name_at(pos)!r} and {name_at(pos + 1)!r}"
                )
                raise HierarchyError(f"region [{left},{right}] appears {where}")
            while stack and rights[stack[-1]] < right:
                top = stack.pop()
                if strict and rights[top] >= left:
                    raise HierarchyError(
                        f"regions [{lefts[top]},{rights[top]}] and "
                        f"[{left},{right}] overlap without nesting"
                    )
            if stack:
                parent_pos[pos] = stack[-1]
            stack.append(pos)
        i = stop


class _View(NamedTuple):
    """The region-keyed object view the navigation API reads."""

    regions: tuple[Region, ...]
    index: dict[Region, int]
    children: list[list[int]]
    depth: list[int]
    order: tuple[Region, ...]  #: the regions in pre-order


class Forest:
    """An ordered forest over regions: three columns and a lazy view.

    Everything is a column indexed by a region's position in the
    ``(left, right)`` order every :class:`RegionSet` keeps:
    ``_lefts``/``_rights``/``_parent_pos`` (``-1`` marks a root) are what
    the direct operators read — an operand and the universe are in the
    same order, so its members are found by one monotone walk and no
    :class:`Region` is built.  The columns come from one :func:`nest`
    sweep, or — for an instance assembled from parsed pieces
    (:meth:`Instance.appended`) — from each piece's own parent column,
    rebased.  The region-keyed navigation API (``parent_of``,
    ``children_of``, ``preorder``, …) reads an object view built from
    the columns on its first call.
    """

    __slots__ = ("_lefts", "_rights", "_parent_pos", "_view")

    def __init__(self, lefts: list[int], rights: list[int], parent_pos: list[int]):
        """The forest over given columns (:func:`nest` computes ``parent_pos``)."""
        self._lefts = lefts
        self._rights = rights
        self._parent_pos = parent_pos
        self._view: _View | None = None

    @classmethod
    def from_regions(cls, regions: Iterable[Region]) -> "Forest":
        """Build the forest for a hierarchical collection of regions."""
        universe = regions if isinstance(regions, RegionSet) else RegionSet(regions)
        parent_pos: list[int] = []
        nest(universe._lefts, universe._rights, parent_pos, strict=False)
        return cls(universe._lefts, universe._rights, parent_pos)

    def _navigation(self) -> _View:
        """The object view, built once from the columns.  Threads racing
        on the first call only build it twice: it is published whole."""
        view = self._view
        if view is None:
            lefts, rights, parent_pos = self._lefts, self._rights, self._parent_pos
            regions = tuple(map(Region, lefts, rights))
            children: list[list[int]] = [[] for _ in regions]
            for pos, above in enumerate(parent_pos):
                if above >= 0:
                    children[above].append(pos)
            visit = sorted(range(len(regions)), key=lambda p: (lefts[p], -rights[p]))
            depth = [0] * len(regions)
            for pos in visit:  # a parent is visited before its children
                above = parent_pos[pos]
                if above >= 0:
                    depth[pos] = depth[above] + 1
            view = self._view = _View(
                regions,
                dict(zip(regions, range(len(regions)))),
                children,
                depth,
                tuple([regions[pos] for pos in visit]),
            )
        return view

    # ------------------------------------------------------------------
    # Basic structure.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lefts)

    def __contains__(self, region: object) -> bool:
        return region in RegionSet._from_arrays(self._lefts, self._rights)

    @property
    def preorder(self) -> tuple[Region, ...]:
        """All regions in pre-order (document order, outermost first)."""
        return self._navigation().order

    def roots(self) -> list[Region]:
        return [
            Region(left, right)
            for left, right, above in zip(self._lefts, self._rights, self._parent_pos)
            if above < 0
        ]

    def parent_of(self, region: Region) -> Region | None:
        """The region that *directly includes* ``region``, if any."""
        view = self._navigation()
        p = self._parent_pos[view.index[region]]
        return None if p < 0 else view.regions[p]

    def children_of(self, region: Region) -> list[Region]:
        """The regions directly included in ``region``, in document order."""
        view = self._navigation()
        return [view.regions[c] for c in view.children[view.index[region]]]

    def depth_of(self, region: Region) -> int:
        """Root regions have depth 0."""
        view = self._navigation()
        return view.depth[view.index[region]]

    def ancestors_of(self, region: Region) -> list[Region]:
        """Proper ancestors, innermost first."""
        view = self._navigation()
        out: list[Region] = []
        p = self._parent_pos[view.index[region]]
        while p >= 0:
            out.append(view.regions[p])
            p = self._parent_pos[p]
        return out

    def subtree_of(self, region: Region) -> list[Region]:
        """``region`` and everything it includes, in pre-order."""
        view = self._navigation()
        out: list[Region] = []
        stack = [view.index[region]]
        while stack:
            i = stack.pop()
            out.append(view.regions[i])
            stack.extend(reversed(view.children[i]))
        return out

    def descendants_of(self, region: Region) -> list[Region]:
        """Everything strictly included in ``region``, in pre-order."""
        return self.subtree_of(region)[1:]

    def sibling_rank(self, region: Region) -> int:
        """Position among the region's siblings (0-based, document order)."""
        view = self._navigation()
        i = view.index[region]
        p = self._parent_pos[i]
        siblings = (
            [j for j, q in enumerate(self._parent_pos) if q < 0]
            if p < 0
            else view.children[p]
        )
        return siblings.index(i)

    def child_path(self, region: Region) -> tuple[int, ...]:
        """Sibling ranks from the root down to ``region``.

        This is the path that the FMFT embedding encodes into ``{0,1}*``.
        """
        chain = [region] + self.ancestors_of(region)
        return tuple(self.sibling_rank(r) for r in reversed(chain))

    def iter_edges(self) -> Iterator[tuple[Region, Region]]:
        """All (parent, child) direct-inclusion pairs."""
        regions = self._navigation().regions
        for child, p in zip(regions, self._parent_pos):
            if p >= 0:
                yield regions[p], child

    # ------------------------------------------------------------------
    # Direct operators (Section 5.1) and layers (Section 6).
    # ------------------------------------------------------------------

    def _locate(self, members: RegionSet) -> list[int]:
        """Each member's position in the columns, or ``-1 - q`` for its
        insertion point ``q`` when it is not an instance region (a match
        point).  Both sides are sorted alike: the bisect floor only rises."""
        lefts, rights = self._lefts, self._rights
        n = len(lefts)
        out: list[int] = []
        q = 0
        for left, right in zip(members._lefts, members._rights):
            q = bisect_left(lefts, left, q)
            while q < n and lefts[q] == left and rights[q] < right:
                q += 1
            found = q < n and lefts[q] == left and rights[q] == right
            out.append(q if found else -1 - q)
        return out

    def _enclosing(self, q: int, left: int, right: int) -> int:
        """The innermost instance region strictly enclosing a region
        ``[left, right]`` that is *not* one and would insert at ``q``;
        ``-1`` when nothing encloses it.

        An encloser sharing ``left`` sits at ``q`` itself (the smallest
        of them).  Any other starts further left, hence contains the
        region just before ``q`` and every smaller one sharing *its*
        left endpoint: walk up from the bottom of that tower until one
        reaches ``right``.
        """
        lefts, rights, parent_pos = self._lefts, self._rights, self._parent_pos
        if q < len(lefts) and lefts[q] == left:
            return q
        j = q - 1
        while j > 0 and lefts[j - 1] == lefts[j]:
            j -= 1
        while j >= 0 and rights[j] < right:
            j = parent_pos[j]
        return j

    def _parents(self, members: RegionSet) -> list[int]:
        """Per member, the position of the innermost instance region
        strictly enclosing it (``-1``: none) — Definition 5.1's "no
        other region in between", for instance regions the parent."""
        parent_pos = self._parent_pos
        return [
            parent_pos[q] if q >= 0 else self._enclosing(-1 - q, left, right)
            for q, left, right in zip(
                self._locate(members), members._lefts, members._rights
            )
        ]

    def directly_including(self, r_set: RegionSet, s_set: RegionSet) -> RegionSet:
        """``R ⊃_d S``: the R-regions that are parents of some S-region.

        Direct inclusion quantifies over *all* regions of the instance
        ("no other region resides in between"), which is exactly the
        parent relation of this forest — extended to an S-region that is
        not an instance region (a match point) by :meth:`_parents`.
        Only instance regions are parents: an occurrence in a parsed
        text contains no region.
        """
        if not r_set or not s_set:
            return RegionSet.empty()
        is_parent = bytearray(len(self._lefts))
        for p in self._parents(s_set):
            if p >= 0:
                is_parent[p] = 1
        return _kept(r_set, [q >= 0 and is_parent[q] for q in self._locate(r_set)])

    def directly_included(self, r_set: RegionSet, s_set: RegionSet) -> RegionSet:
        """``R ⊂_d S``: the R-regions whose parent is an S-region."""
        if not r_set or not s_set:
            return RegionSet.empty()
        in_s = bytearray(len(self._lefts))
        for q in self._locate(s_set):
            if q >= 0:
                in_s[q] = 1
        return _kept(r_set, [p >= 0 and in_s[p] for p in self._parents(r_set)])

    def layers(self) -> list[RegionSet]:
        """Regions grouped by depth: ``layers()[0]`` is the outermost layer.

        The Section 6 programs peel these layers one at a time; the number
        of layers is the nesting depth of the instance.
        """
        if not self._lefts:
            return []
        view = self._navigation()
        buckets: list[list[Region]] = [[] for _ in range(max(view.depth) + 1)]
        for region, depth in zip(view.regions, view.depth):
            buckets[depth].append(region)
        return [RegionSet(b) for b in buckets]

    def max_depth(self) -> int:
        """The nesting depth (number of layers); 0 for an empty forest."""
        return max(self._navigation().depth) + 1 if self._lefts else 0
