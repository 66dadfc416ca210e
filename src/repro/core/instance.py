"""Region index instances (Definition 2.1) with hierarchy validation.

An :class:`Instance` maps each region *name* to a set of regions and
carries a word index realizing ``W(r, p)``.  Following Section 2.1 we
enforce the hierarchical restriction: every region belongs to exactly one
region set, and any two regions are either disjoint or one strictly
includes the other.  (Two distinct regions with identical endpoints would
be neither, so intervals are globally unique and a region is identified
by its interval.)

Instances are immutable; the deletion/reduction machinery of Section 4
produces *new* instances via :meth:`Instance.without_regions`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping

from repro.core.forest import Forest, nest
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex, WordIndex
from repro.errors import EvaluationError, HierarchyError, UnknownRegionNameError

__all__ = ["Instance", "appended_names"]


def _as_region_set(value: RegionSet | Iterable[Region]) -> RegionSet:
    return value if isinstance(value, RegionSet) else RegionSet(value)


def appended_names(
    names: tuple[str, ...], added: Iterable[tuple[str, ...]]
) -> tuple[str, ...]:
    """The names of an instance named ``names`` once pieces named by
    each of ``added`` are appended (:meth:`Instance.appended`): the same
    tuple when they bring no new name, else every name, sorted."""
    extra = {name for piece_names in added for name in piece_names}
    if extra.issubset(names):
        return names
    return tuple(sorted(extra.union(names)))


class Instance:
    """An instance of a region index: named region sets plus a word index.

    Column-first: besides the per-name sets it keeps the *universe* —
    every region, in ``(left, right)`` order — as two endpoint columns
    plus a name-id column (an index into :attr:`names`), and the
    :class:`~repro.core.forest.Forest` over them.  Both constructors
    produce those columns (``__init__`` by merging the per-name arrays,
    :meth:`from_columns` by taking them as given) and run one
    :func:`~repro.core.forest.nest` sweep that checks the hierarchy and
    computes the forest's parent column; no :class:`Region` is built.
    """

    __slots__ = ("_sets", "_names", "_word_index", "_all", "_name_ids", "_forest")

    def __init__(
        self,
        sets: Mapping[str, RegionSet | Iterable[Region]],
        word_index: WordIndex | None = None,
        validate: bool = True,
    ):
        region_sets = {name: _as_region_set(regions) for name, regions in sets.items()}
        rows = sorted(
            (left, right, k)
            for k, s in enumerate(region_sets.values())
            for left, right in zip(s._lefts, s._rights)
        )
        lefts, rights, ids = (list(c) for c in zip(*rows)) if rows else ([], [], [])
        self._install(region_sets, word_index, lefts, rights, ids, strict=validate)

    @classmethod
    def from_columns(
        cls,
        names: Iterable[str],
        lefts: list[int],
        rights: list[int],
        name_ids: list[int],
        word_index: WordIndex | None = None,
    ) -> "Instance":
        """An instance from its parallel universe columns, as an index
        file holds them.  Each name's set is a slice of the columns
        regrouped by name id (a stable sort keeps ``(left, right)`` order
        within a name); the strict sweep rejects columns that are
        unsorted, repeat a region or do not nest, and ids naming no
        region name raise :class:`HierarchyError` as well."""
        names = tuple(names)
        order = sorted(range(len(name_ids)), key=name_ids.__getitem__)
        grouped = [name_ids[p] for p in order]
        if grouped and not (0 <= grouped[0] and grouped[-1] < len(names)):
            raise HierarchyError(f"a name id lies outside 0..{len(names) - 1}")
        by_left = [lefts[p] for p in order]
        by_right = [rights[p] for p in order]
        sets: dict[str, RegionSet] = {}
        for k, name in enumerate(names):
            lo, hi = bisect_left(grouped, k), bisect_right(grouped, k)
            sets[name] = RegionSet._from_arrays(by_left[lo:hi], by_right[lo:hi])
        out = cls.__new__(cls)
        out._install(sets, word_index, lefts, rights, name_ids)
        return out

    def _install(
        self,
        sets: dict[str, RegionSet],
        word_index: WordIndex | None,
        lefts: list[int],
        rights: list[int],
        name_ids: list[int],
        parent_pos: list[int] | None = None,
        strict: bool = True,
    ) -> None:
        """Set every field; without ``parent_pos``, :meth:`_nest` sweeps."""
        self._sets = sets
        self._names: tuple[str, ...] = tuple(sets)
        self._word_index: WordIndex = (
            word_index if word_index is not None else LabelWordIndex()
        )
        self._all = RegionSet._from_arrays(lefts, rights)
        self._name_ids = name_ids
        self._forest: Forest | None = (
            self._nest(strict) if parent_pos is None else Forest(lefts, rights, parent_pos)
        )

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------

    def _name_at(self, position: int) -> str:
        return self._names[self._name_ids[position]]

    def _nest(self, strict: bool) -> Forest:
        """The forest over the universe columns, by one :func:`nest`
        sweep; a duplicated region always raises, an overlap only when
        ``strict``."""
        lefts, rights = self._all._lefts, self._all._rights
        parent_pos: list[int] = []
        nest(lefts, rights, parent_pos, strict, self._name_at)
        return Forest(lefts, rights, parent_pos)

    def validate_hierarchy(self) -> None:
        """Raise :class:`HierarchyError` unless the instance is hierarchical:
        every two regions are disjoint or one strictly includes the other."""
        self._nest(strict=True)

    # ------------------------------------------------------------------
    # Accessors.
    # ------------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """The region names of the index, in declaration order."""
        return self._names

    @property
    def word_index(self) -> WordIndex:
        return self._word_index

    def region_set(self, name: str) -> RegionSet:
        try:
            return self._sets[name]
        except KeyError:
            raise UnknownRegionNameError(name, self._names) from None

    def all_regions(self) -> RegionSet:
        """Every region of the instance, across all names."""
        return self._all

    def columns(self) -> tuple[list[int], list[int], list[int]]:
        """The universe's ``lefts``, ``rights`` and name-id columns."""
        return self._all._lefts, self._all._rights, self._name_ids

    def name_of(self, region: Region) -> str:
        """The (unique) region name whose set contains ``region``."""
        position = self._all.position(region)
        if position < 0:
            raise UnknownRegionNameError(f"region {region} not in instance")
        return self._name_at(position)

    def __contains__(self, region: object) -> bool:
        return region in self._all

    def __len__(self) -> int:
        return len(self._all)

    def matches(self, region: Region, pattern: str) -> bool:
        """The word-index predicate ``W(region, pattern)``."""
        return self._word_index.matches(region, pattern)

    def select(self, regions: RegionSet, pattern: str) -> RegionSet:
        """``σ_pattern(regions)``, by whichever body the word index has."""
        return self._word_index.select(regions, pattern)

    def match_points(self, pattern: str) -> RegionSet:
        """The word-index occurrences of ``pattern`` as degenerate regions."""
        if not isinstance(self._word_index, TextWordIndex):
            raise EvaluationError(
                "match-point queries need a text-backed word index; "
                "this instance carries an abstract label index"
            )
        return self._word_index.match_points(pattern)

    def forest(self) -> Forest:
        """The direct-inclusion forest over all regions (cached)."""
        if self._forest is None:
            self._forest = self._nest(strict=False)
        return self._forest

    def nesting_depth(self) -> int:
        """The maximum nesting depth across all regions."""
        return self._all.max_nesting_depth()

    # ------------------------------------------------------------------
    # Derivation of new instances (Section 4 machinery).
    # ------------------------------------------------------------------

    def without_regions(self, removed: Iterable[Region]) -> "Instance":
        """A copy with the given regions deleted from their sets.

        The word index is restricted to the surviving regions when it is a
        :class:`LabelWordIndex`; a text-backed index is a function of the
        underlying text and is shared unchanged.
        """
        drop = set(removed)
        sets = {
            name: RegionSet(r for r in region_set if r not in drop)
            for name, region_set in self._sets.items()
        }
        word_index = self._word_index
        if isinstance(word_index, LabelWordIndex):
            survivors = [r for r in self._all if r not in drop]
            word_index = word_index.restricted_to(survivors)
        return Instance(sets, word_index, validate=False)

    def restricted_to(self, kept: Iterable[Region]) -> "Instance":
        """A copy keeping only the given regions."""
        keep = set(kept)
        return self.without_regions(r for r in self._all if r not in keep)

    def trees(self, lo: int, hi: int) -> "Instance":
        """The sub-instance of universe positions ``lo:hi``, which must
        hold whole top-level trees (a shard segment).

        Every column is a slice: the universe and name ids directly,
        each name's set between two bisects of its lefts (the regions of
        other trees start outside the run's first and last left), the
        parent column rebased.  The word index is shared, not copied.
        """
        lefts, rights = self._all._lefts[lo:hi], self._all._rights[lo:hi]
        sets: dict[str, RegionSet] = {}
        for name, region_set in self._sets.items():
            a = bisect_left(region_set._lefts, lefts[0]) if lefts else 0
            b = bisect_right(region_set._lefts, lefts[-1]) if lefts else 0
            sets[name] = RegionSet._from_arrays(
                region_set._lefts[a:b], region_set._rights[a:b]
            )
        parent_pos = [
            p - lo if p >= 0 else -1 for p in self.forest()._parent_pos[lo:hi]
        ]
        out = Instance.__new__(Instance)
        out._install(sets, self._word_index, lefts, rights, self._name_ids[lo:hi], parent_pos)
        return out

    def appended(self, pieces: Iterable[tuple["Instance", int]]) -> "Instance":
        """A new instance with each ``(piece, offset)`` pair's regions,
        shifted by ``offset``, appended wholly *after* every existing
        region, and the word index extended by the pieces' alike.

        This is how live ingestion assembles a corpus: a document is
        parsed once into its own instance, and placing it past the end of
        the text makes it a new top-level tree (Def. 2.2) whose columns
        are its own shifted by one offset.  The universe, name-id and
        parent columns and every touched name set grow by shifted int
        lists concatenated onto this instance's; untouched sets (and, in
        :meth:`TextWordIndex.extended`, postings) are shared.  Nothing
        outside a piece nests with it, so its parent column is its own,
        rebased by where its universe starts: no sort, no sweep and no
        :class:`Region`.  Cost is ``O(piece regions)`` plus the column
        copies.  A piece region that does not start past the extent
        before it raises :class:`HierarchyError`; the word index must be
        text-backed.
        """
        pieces = list(pieces)
        if not pieces:
            return self
        word_index = self._word_index
        if not isinstance(word_index, TextWordIndex):
            raise HierarchyError("only instances with text word indexes can be appended to")
        names = appended_names(self._names, (piece._names for piece, _ in pieces))
        number = {name: k for k, name in enumerate(names)}
        if names == self._names:
            ids = self._name_ids.copy()
        else:
            renumber = [number[name] for name in self._names]
            ids = [renumber[k] for k in self._name_ids]
        lefts, rights = self._all._lefts.copy(), self._all._rights.copy()
        parent_pos = self.forest()._parent_pos.copy()
        grown: dict[str, tuple[list[int], list[int]]] = {}
        floor = self._rights_max()
        for piece, offset in pieces:
            piece_lefts, piece_rights, piece_ids = piece.columns()
            if not piece_lefts:
                continue
            if piece_lefts[0] + offset <= floor:
                raise HierarchyError(
                    f"appended region [{piece_lefts[0] + offset},{piece_rights[0] + offset}] "
                    "does not lie after the existing extent"
                )
            floor = max(piece_rights) + offset
            start = len(lefts)
            lefts += [left + offset for left in piece_lefts]
            rights += [right + offset for right in piece_rights]
            renumber = [number[name] for name in piece._names]
            ids += [renumber[k] for k in piece_ids]
            parent_pos += [p + start if p >= 0 else -1 for p in piece.forest()._parent_pos]
            for name, region_set in piece._sets.items():
                columns = grown.get(name)
                if columns is None:
                    existing = self._sets.get(name, RegionSet.empty())
                    columns = grown[name] = (existing._lefts.copy(), existing._rights.copy())
                columns[0].extend([left + offset for left in region_set._lefts])
                columns[1].extend([right + offset for right in region_set._rights])
        sets = {
            name: RegionSet._from_arrays(*grown[name]) if name in grown else self._sets[name]
            for name in names
        }
        out = Instance.__new__(Instance)
        out._install(
            sets,
            word_index.extended((piece._word_index, offset) for piece, offset in pieces),
            lefts,
            rights,
            ids,
            parent_pos,
        )
        return out

    def _rights_max(self) -> int:
        """The maximum right endpoint over all regions (−1 when empty)."""
        rights = self._all._rights
        return max(rights) if rights else -1

    def shifted(self, offset: int) -> "Instance":
        """A copy with every region translated by ``offset`` positions.

        The algebra only observes relative nesting and order, so every
        query result on the shifted instance is the shifted result — the
        position-independence that justifies the Section 3 forest view.
        (Metamorphic tests rely on this.)  Only label-backed word
        indexes can be shifted; a text-backed index is anchored to its
        text.
        """
        sets = {
            name: RegionSet(r.shifted(offset) for r in region_set)
            for name, region_set in self._sets.items()
        }
        word_index = self._word_index
        if isinstance(word_index, LabelWordIndex):
            word_index = word_index.renamed(
                {r: r.shifted(offset) for r in self._all}
            )
        else:
            raise HierarchyError(
                "only instances with label word indexes can be shifted"
            )
        return Instance(sets, word_index, validate=False)

    # ------------------------------------------------------------------
    # Equality (used heavily by the theory tests).
    # ------------------------------------------------------------------

    def _label_signature(self) -> object:
        if isinstance(self._word_index, LabelWordIndex):
            return frozenset(
                (region, patterns)
                for region, patterns in self._word_index.items()
                if patterns and region in self._all
            )
        return id(self._word_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self._sets == other._sets
            and self._label_signature() == other._label_signature()
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted((n, s) for n, s in self._sets.items())),
                self._label_signature(),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - display helper
        parts = ", ".join(f"{name}:{len(s)}" for name, s in self._sets.items())
        return f"Instance({parts})"
