"""Immutable, sorted sets of regions with set-at-a-time operators.

:class:`RegionSet` is the carrier type of the region algebra
(Definition 2.2/2.3).  Internally a set is a *struct of arrays*: two
parallel int lists ``_lefts``/``_rights`` sorted by ``(left, right)``
with duplicates removed.  That flat layout is what the PAT engine's
efficiency rests on: every operator below is one pass over the sorted
endpoint arrays that returns through :meth:`RegionSet._from_arrays`, so
no per-region Python object is created on the hot path.

The operator methods are the *indexed table*: the one array body per
operator, executed by the compiled :mod:`repro.vm` program
(:mod:`repro.vm.kernels` re-exports the same function objects).  The
definitions they must agree with — Definition 2.3 and Section 5
verbatim — live in :mod:`repro.algebra.oracle`, which calls none of
them.

The tuple of :class:`Region` objects (the *object view*) is materialised
lazily on first access through :attr:`regions` / iteration, so
region-at-a-time callers keep working while array-to-array pipelines
never pay for it.

The correctness argument for the containment joins: with ``S`` sorted by
left endpoint, ``r ⊃ s`` holds for some ``s ∈ S`` iff

* (A) some ``s`` has ``left(s) > left(r)`` and ``right(s) <= right(r)``, or
* (B) some ``s`` has ``left(s) >= left(r)`` and ``right(s) < right(r)``,

and each disjunct asks whether the *minimum* right endpoint over a suffix
of the sorted order clears a threshold — a suffix-minimum query.  The
``⊂`` join is symmetric with prefix-maximum queries.  The probe lefts
ascend, so each bisect position is monotone non-decreasing and is found
by *galloping* (exponential) search from the previous one: ``O(log gap)``
instead of ``O(log m)`` from scratch, ``O(n + m)`` total when the sets
interleave densely, never worse than the plain bisect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator

from repro.core.region import Region

__all__ = ["RegionSet"]


def _suffix_min(values: list[int]) -> list[int]:
    """``out[i] = min(values[i:])``; one extra sentinel at the end."""
    out = [0] * (len(values) + 1)
    out[len(values)] = _POS_INF
    for i in range(len(values) - 1, -1, -1):
        out[i] = values[i] if values[i] < out[i + 1] else out[i + 1]
    return out


def _prefix_max(values: list[int]) -> list[int]:
    """``out[i] = max(values[:i])``; ``out[0]`` is a sentinel."""
    out = [0] * (len(values) + 1)
    out[0] = _NEG_INF
    for i, v in enumerate(values):
        out[i + 1] = v if v > out[i] else out[i]
    return out


def _layer_peel(lefts: list[int], rights: list[int]) -> tuple[list[int], list[int]]:
    """One array sweep computing ``R - (R ⊂ R)`` over sorted endpoint arrays.

    Walking in ``(left, right)`` order, a region is outermost iff its
    right endpoint exceeds every right endpoint seen at strictly smaller
    lefts (a later region can never include an earlier one), and within a
    run of equal lefts only the last — maximal-right — element can be
    outermost (it strictly includes the rest of the run).
    """
    out_l: list[int] = []
    out_r: list[int] = []
    n = len(lefts)
    best = _NEG_INF  # max right endpoint over strictly smaller lefts
    i = 0
    while i < n:
        left = lefts[i]
        j = i
        while j + 1 < n and lefts[j + 1] == left:
            j += 1
        right = rights[j]
        if right > best:
            out_l.append(left)
            out_r.append(right)
            best = right
        i = j + 1
    return out_l, out_r


_POS_INF = float("inf")
_NEG_INF = float("-inf")


class RegionSet:
    """An immutable set of :class:`Region` kept in ``(left, right)`` order.

    Construction deduplicates and sorts; all operators return new sets.
    Instances are hashable and comparable, so they can be used as oracle
    values in property-based tests.
    """

    __slots__ = (
        "_regions", "_lefts", "_rights", "_suffix_min_right", "_prefix_max_right", "_hash",
    )

    def __init__(self, regions: Iterable[Region] = ()):
        items = sorted(set(regions))
        self._regions: tuple[Region, ...] | None = tuple(items)
        self._lefts: list[int] = [r.left for r in items]
        self._rights: list[int] = [r.right for r in items]
        # Extreme tables are built lazily: most intermediate results are
        # consumed by set operations that never need them.
        self._suffix_min_right: list[int] | None = None
        self._prefix_max_right: list[int] | None = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "RegionSet":
        return _EMPTY

    @classmethod
    def _from_arrays(cls, lefts: list[int], rights: list[int]) -> "RegionSet":
        """Wrap parallel endpoint arrays already sorted and duplicate-free.

        This is the operator output path: no Region objects are created
        until someone asks for the object view.  Callers must uphold the
        ``(left, right)``-sorted, no-duplicates invariant.
        """
        out = cls.__new__(cls)
        out._regions = None
        out._lefts = lefts
        out._rights = rights
        out._suffix_min_right = None
        out._prefix_max_right = None
        out._hash = None
        return out

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "RegionSet":
        """Build a set from ``(left, right)`` tuples — test/demo shorthand."""
        return cls(Region(left, right) for left, right in pairs)

    # ------------------------------------------------------------------
    # Container protocol.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lefts)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __contains__(self, region: object) -> bool:
        return isinstance(region, Region) and self.position(region) >= 0

    def position(self, region: Region) -> int:
        """``region``'s index in the sorted arrays, ``-1`` when absent."""
        lefts = self._lefts
        rights = self._rights
        n = len(lefts)
        i = bisect_left(lefts, region.left)
        # Within a run of equal lefts the rights are ascending.
        while i < n and lefts[i] == region.left:
            if rights[i] == region.right:
                return i
            if rights[i] > region.right:
                return -1
            i += 1
        return -1

    def __bool__(self) -> bool:
        return bool(self._lefts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionSet):
            return NotImplemented
        return self._lefts == other._lefts and self._rights == other._rights

    def __hash__(self) -> int:
        # O(n), so computed once: a routed plan's RegionLiteral is hashed
        # on every program-cache lookup.
        if self._hash is None:
            self._hash = hash((tuple(self._lefts), tuple(self._rights)))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - display helper
        regions = self.regions
        inner = ", ".join(str(r) for r in regions[:8])
        if len(regions) > 8:
            inner += f", … ({len(regions)} total)"
        return f"RegionSet({inner})"

    @property
    def regions(self) -> tuple[Region, ...]:
        """The regions in canonical ``(left, right)`` order.

        Materialised lazily from the endpoint arrays: sets produced by
        the array kernels never build Region objects unless a caller
        actually walks them.
        """
        if self._regions is None:
            self._regions = tuple(map(Region, self._lefts, self._rights))
        return self._regions

    def pairs(self) -> list[tuple[int, int]]:
        """``[(left, right), …]`` in canonical order, zipped off the
        arrays in C: the JSON form of a result (tuples encode as arrays),
        with no object view built and no tuple the collector keeps
        tracking after one pass."""
        return list(zip(self._lefts, self._rights))

    # ------------------------------------------------------------------
    # Set-theoretic operations (Definition 2.3, first group): linear
    # merges over the sorted (left, right) keys.
    # ------------------------------------------------------------------

    def union(self, other: "RegionSet") -> "RegionSet":
        al, ar = self._lefts, self._rights
        bl, br = other._lefts, other._rights
        if not al:
            return other
        if not bl:
            return self
        out_l: list[int] = []
        out_r: list[int] = []
        push_l, push_r = out_l.append, out_r.append
        i = j = 0
        n, m = len(al), len(bl)
        while i < n and j < m:
            la, ra = al[i], ar[i]
            lb, rb = bl[j], br[j]
            if la < lb or (la == lb and ra < rb):
                push_l(la)
                push_r(ra)
                i += 1
            elif la == lb and ra == rb:
                push_l(la)
                push_r(ra)
                i += 1
                j += 1
            else:
                push_l(lb)
                push_r(rb)
                j += 1
        out_l.extend(al[i:])
        out_r.extend(ar[i:])
        out_l.extend(bl[j:])
        out_r.extend(br[j:])
        return RegionSet._from_arrays(out_l, out_r)

    def intersection(self, other: "RegionSet") -> "RegionSet":
        al, ar = self._lefts, self._rights
        bl, br = other._lefts, other._rights
        if not al or not bl:
            return _EMPTY
        out_l: list[int] = []
        out_r: list[int] = []
        i = j = 0
        n, m = len(al), len(bl)
        while i < n and j < m:
            la, ra = al[i], ar[i]
            lb, rb = bl[j], br[j]
            if la == lb and ra == rb:
                out_l.append(la)
                out_r.append(ra)
                i += 1
                j += 1
            elif la < lb or (la == lb and ra < rb):
                i += 1
            else:
                j += 1
        return RegionSet._from_arrays(out_l, out_r)

    def difference(self, other: "RegionSet") -> "RegionSet":
        al, ar = self._lefts, self._rights
        bl, br = other._lefts, other._rights
        if not al:
            return _EMPTY
        if not bl:
            return self
        out_l: list[int] = []
        out_r: list[int] = []
        i = j = 0
        n, m = len(al), len(bl)
        while i < n and j < m:
            la, ra = al[i], ar[i]
            lb, rb = bl[j], br[j]
            if la == lb and ra == rb:
                i += 1
                j += 1
            elif la < lb or (la == lb and ra < rb):
                out_l.append(la)
                out_r.append(ra)
                i += 1
            else:
                j += 1
        out_l.extend(al[i:])
        out_r.extend(ar[i:])
        return RegionSet._from_arrays(out_l, out_r)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # ------------------------------------------------------------------
    # Containment semi-joins (Definition 2.3, second group): extreme
    # tables + galloping search (see the module docstring).
    # ------------------------------------------------------------------

    def _ensure_suffix_min(self) -> list[int]:
        if self._suffix_min_right is None:
            self._suffix_min_right = _suffix_min(self._rights)
        return self._suffix_min_right

    def _ensure_prefix_max(self) -> list[int]:
        if self._prefix_max_right is None:
            self._prefix_max_right = _prefix_max(self._rights)
        return self._prefix_max_right

    def including(self, other: "RegionSet") -> "RegionSet":
        """``R ⊃ S = {r ∈ R : ∃ s ∈ S, r ⊃ s}``."""
        al, ar = self._lefts, self._rights
        bl = other._lefts
        if not al or not bl:
            return _EMPTY
        suffix = other._ensure_suffix_min()
        out_l: list[int] = []
        out_r: list[int] = []
        push_l, push_r = out_l.append, out_r.append
        m = len(bl)
        hi = lo = 0
        for left, right in zip(al, ar):
            # (A) left(s) > left(r) and right(s) <= right(r).  The gallop
            # is inlined: the already-positioned frontier is the hot case.
            if hi < m and bl[hi] <= left:
                prev, step = hi, 1
                while hi + step < m and bl[hi + step] <= left:
                    prev = hi + step
                    step <<= 1
                hi = bisect_right(bl, left, prev + 1, min(hi + step, m))
            if suffix[hi] <= right:
                push_l(left)
                push_r(right)
                continue
            # (B) left(s) >= left(r) and right(s) < right(r)
            if lo < m and bl[lo] < left:
                prev, step = lo, 1
                while lo + step < m and bl[lo + step] < left:
                    prev = lo + step
                    step <<= 1
                lo = bisect_left(bl, left, prev + 1, min(lo + step, m))
            if suffix[lo] < right:
                push_l(left)
                push_r(right)
        return RegionSet._from_arrays(out_l, out_r)

    def included_in(self, other: "RegionSet") -> "RegionSet":
        """``R ⊂ S = {r ∈ R : ∃ s ∈ S, r ⊂ s}``."""
        al, ar = self._lefts, self._rights
        bl = other._lefts
        if not al or not bl:
            return _EMPTY
        prefix = other._ensure_prefix_max()
        out_l: list[int] = []
        out_r: list[int] = []
        push_l, push_r = out_l.append, out_r.append
        m = len(bl)
        hi = lo = 0
        for left, right in zip(al, ar):
            # (A) left(s) < left(r) and right(s) >= right(r)
            if lo < m and bl[lo] < left:
                prev, step = lo, 1
                while lo + step < m and bl[lo + step] < left:
                    prev = lo + step
                    step <<= 1
                lo = bisect_left(bl, left, prev + 1, min(lo + step, m))
            if prefix[lo] >= right:
                push_l(left)
                push_r(right)
                continue
            # (B) left(s) <= left(r) and right(s) > right(r)
            if hi < m and bl[hi] <= left:
                prev, step = hi, 1
                while hi + step < m and bl[hi + step] <= left:
                    prev = hi + step
                    step <<= 1
                hi = bisect_right(bl, left, prev + 1, min(hi + step, m))
            if prefix[hi] > right:
                push_l(left)
                push_r(right)
        return RegionSet._from_arrays(out_l, out_r)

    def covering(self, other: "RegionSet") -> "RegionSet":
        """``{r ∈ R : ∃ s ∈ S, left(s) ≥ left(r) ∧ right(s) ≤ right(r)}``.

        The body of ``σ_p`` over a text: ``S`` is the pattern's sorted
        match points.  *Non-strict* — ``W(r, p)`` admits an occurrence
        that *is* the region — so this is case (B) of :meth:`including`
        alone, with ``<=``.
        """
        al, ar = self._lefts, self._rights
        bl = other._lefts
        if not al or not bl:
            return _EMPTY
        suffix = other._ensure_suffix_min()
        out_l: list[int] = []
        out_r: list[int] = []
        m = len(bl)
        lo = 0
        for left, right in zip(al, ar):
            if lo < m and bl[lo] < left:
                prev, step = lo, 1
                while lo + step < m and bl[lo + step] < left:
                    prev = lo + step
                    step <<= 1
                lo = bisect_left(bl, left, prev + 1, min(lo + step, m))
            if suffix[lo] <= right:
                out_l.append(left)
                out_r.append(right)
        return RegionSet._from_arrays(out_l, out_r)

    # ------------------------------------------------------------------
    # Order semi-joins: folded to one scalar extreme of the right operand.
    # ------------------------------------------------------------------

    def extremes(self) -> tuple[int | None, int | None]:
        """``(max left endpoint, min right endpoint)``; ``(None, None)`` when empty.

        The only two values an order semi-join needs from its right
        operand, and therefore all that crosses shard — and, in the
        backend layer, process — boundaries during exchange rounds.
        """
        if not self._lefts:
            return (None, None)
        suffix = self._suffix_min_right
        return (
            self._lefts[-1],
            suffix[0] if suffix is not None else min(self._rights),
        )

    def preceding(self, other: "RegionSet") -> "RegionSet":
        """``R < S = {r ∈ R : ∃ s ∈ S, r < s}``.

        ``r < s`` means ``right(r) < left(s)``, so ``r`` qualifies exactly
        when the *maximum* left endpoint in ``S`` exceeds ``right(r)``.
        """
        if not self._lefts or not other._lefts:
            return _EMPTY
        # extremes()[0], read directly: the pair's other half can cost a
        # pass over ``other`` that ``<`` has no use for.
        return self.ending_before(other._lefts[-1])

    def following(self, other: "RegionSet") -> "RegionSet":
        """``R > S = {r ∈ R : ∃ s ∈ S, r > s}``.

        ``r`` qualifies exactly when the *minimum* right endpoint in ``S``
        is below ``left(r)``.
        """
        if not self._lefts or not other._lefts:
            return _EMPTY
        return self.starting_after(other.extremes()[1])

    def ending_before(self, bound: int) -> "RegionSet":
        """The regions with ``right(r) < bound`` (scalar form of ``<``)."""
        al, ar = self._lefts, self._rights
        out_l: list[int] = []
        out_r: list[int] = []
        for k in range(len(al)):
            if ar[k] < bound:
                out_l.append(al[k])
                out_r.append(ar[k])
        return RegionSet._from_arrays(out_l, out_r)

    def starting_after(self, bound: int) -> "RegionSet":
        """The regions with ``left(r) > bound`` (scalar form of ``>``):
        one bisect plus a slice."""
        idx = bisect_right(self._lefts, bound)
        if idx == 0:
            return self
        return RegionSet._from_arrays(self._lefts[idx:], self._rights[idx:])

    # ------------------------------------------------------------------
    # Both-included (Definition 5.2) and selection.
    # ------------------------------------------------------------------

    def both_included(self, first: "RegionSet", second: "RegionSet") -> "RegionSet":
        """``R BI (S, T)`` via two containment-window probes per R-region.

        A window probe is the minimum right endpoint over the members of
        a set with left endpoint in a range: a C-level ``min`` over the
        bisected slice.  On a hierarchical source the windows of nested
        regions nest and those of disjoint regions are disjoint, so the
        slices total at most ``(|S| + |T|) · depth(R)``.  For each ``r``
        the best witness ``s`` is the contained S-region with the
        smallest right endpoint ``m``; ``r`` qualifies iff some T-region
        with ``left > m`` is contained in ``r`` as well.
        """
        if not self._lefts or not first._lefts or not second._lefts:
            return _EMPTY
        s_lefts, s_rights = first._lefts, first._rights
        t_lefts, t_rights = second._lefts, second._rights
        out_l: list[int] = []
        out_r: list[int] = []
        for left, right in zip(self._lefts, self._rights):
            lo, hi = bisect_left(s_lefts, left), bisect_right(s_lefts, right)
            if lo == hi:
                continue
            m = min(s_rights[lo:hi])
            # m == right can only be witnessed by s sharing r's right endpoint,
            # after which no contained t can start beyond it — treat as failure.
            if m >= right:
                continue
            lo, hi = bisect_right(t_lefts, m), bisect_right(t_lefts, right)
            if lo < hi and min(t_rights[lo:hi]) <= right:
                out_l.append(left)
                out_r.append(right)
        return RegionSet._from_arrays(out_l, out_r)

    def select(self, predicate: Callable[[Region], bool]) -> "RegionSet":
        """Keep the regions satisfying ``predicate``: ``σ_p`` under an
        abstract ``W`` (:class:`~repro.core.wordindex.LabelWordIndex`).

        The predicate needs the object view; the output skips the sort.
        """
        out_l: list[int] = []
        out_r: list[int] = []
        for r in self.regions:
            if predicate(r):
                out_l.append(r.left)
                out_r.append(r.right)
        return RegionSet._from_arrays(out_l, out_r)

    # ------------------------------------------------------------------
    # Misc helpers.
    # ------------------------------------------------------------------

    def spanning(self, position: int) -> "RegionSet":
        """The regions containing text position ``position``."""
        return RegionSet(r for r in self if r.contains_point(position))

    def top_layer(self) -> "RegionSet":
        """``R - (R ⊂ R)``: the maximal (outermost) regions of the set.

        This is the layer-peeling step of the Section 6 while-programs,
        computed with a single O(n) sweep over the endpoint arrays.
        """
        if not self:
            return _EMPTY
        lefts, rights = _layer_peel(self._lefts, self._rights)
        return RegionSet._from_arrays(lefts, rights)

    def max_nesting_depth(self) -> int:
        """Length of the longest chain of strictly nested regions in the set.

        Computed with a stack sweep over ``(left, -right)`` order, which
        visits every enclosing region before the regions it includes.
        """
        depth = 0
        stack: list[Region] = []
        for r in sorted(self.regions, key=lambda t: (t.left, -t.right)):
            while stack and not stack[-1].includes(r):
                stack.pop()
            stack.append(r)
            depth = max(depth, len(stack))
        return depth


_EMPTY = RegionSet()
