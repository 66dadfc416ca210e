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

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex, WordIndex
from repro.errors import EvaluationError, HierarchyError, UnknownRegionNameError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.forest import Forest

__all__ = ["Instance"]


def _as_region_set(value: RegionSet | Iterable[Region]) -> RegionSet:
    return value if isinstance(value, RegionSet) else RegionSet(value)


class Instance:
    """An instance of a region index: named region sets plus a word index."""

    __slots__ = ("_sets", "_names", "_word_index", "_all", "_name_of", "_forest")

    def __init__(
        self,
        sets: Mapping[str, RegionSet | Iterable[Region]],
        word_index: WordIndex | None = None,
        validate: bool = True,
    ):
        self._sets: dict[str, RegionSet] = {
            name: _as_region_set(regions) for name, regions in sets.items()
        }
        self._names: tuple[str, ...] = tuple(self._sets)
        self._word_index: WordIndex = (
            word_index if word_index is not None else LabelWordIndex()
        )
        self._name_of: dict[Region, str] = {}
        for name, region_set in self._sets.items():
            for region in region_set:
                if region in self._name_of:
                    raise HierarchyError(
                        f"region {region} appears in both "
                        f"{self._name_of[region]!r} and {name!r}"
                    )
                self._name_of[region] = name
        self._all: RegionSet = RegionSet(self._name_of)
        self._forest: "Forest | None" = None
        if validate:
            self.validate_hierarchy()

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------

    def validate_hierarchy(self) -> None:
        """Raise :class:`HierarchyError` unless the instance is hierarchical.

        A single stack sweep in ``(left, -right)`` order: after popping the
        regions that end before the current one starts, the stack top (if
        any) must strictly include the current region; otherwise the two
        overlap.
        """
        stack: list[Region] = []
        previous: Region | None = None
        for region in sorted(self._all, key=lambda r: (r.left, -r.right)):
            if previous == region:  # impossible given set semantics, kept for clarity
                raise HierarchyError(f"duplicate region {region}")
            while stack and stack[-1].right < region.left:
                stack.pop()
            if stack and not stack[-1].includes(region):
                raise HierarchyError(
                    f"regions {stack[-1]} and {region} overlap without nesting"
                )
            stack.append(region)
            previous = region

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

    def name_of(self, region: Region) -> str:
        """The (unique) region name whose set contains ``region``."""
        try:
            return self._name_of[region]
        except KeyError:
            raise UnknownRegionNameError(f"region {region} not in instance") from None

    def __contains__(self, region: object) -> bool:
        return isinstance(region, Region) and region in self._name_of

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

    def forest(self) -> "Forest":
        """The direct-inclusion forest over all regions (cached)."""
        if self._forest is None:
            from repro.core.forest import Forest

            self._forest = Forest.from_regions(self._all)
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

    def appended(
        self,
        additions: Mapping[str, Iterable[Region]],
        word_index: WordIndex,
    ) -> "Instance":
        """A copy with new regions appended wholly *after* every existing
        region, carrying a replacement word index.

        This is the live-ingestion segment-append fast path: when a new
        document segment lands at the end of the corpus text, every
        existing region set simply gains a sorted tail, the combined
        region universe stays sorted by concatenation, and hierarchy
        validation reduces to checking that the new regions start past
        the old extent (the appended regions themselves come from a
        parse that already validated their nesting).  Cost is
        ``O(new regions + touched region sets)`` instead of a full
        re-validation sweep.

        ``additions`` maps region names to regions sorted by
        ``(left, right)``; every new left endpoint must exceed every
        existing right endpoint.
        """
        flat: list[Region] = []
        for regions in additions.values():
            flat.extend(regions)
        if not flat:
            if word_index is self._word_index:
                return self
            flat = []
        flat.sort(key=lambda r: (r.left, r.right))
        if flat and self._rights_max() >= flat[0].left:
            raise HierarchyError(
                f"appended region {flat[0]} does not lie after the "
                "existing extent"
            )
        clone = Instance.__new__(Instance)
        clone._word_index = word_index
        clone._sets = dict(self._sets)
        clone._name_of = dict(self._name_of)
        for name, regions in additions.items():
            new = sorted(regions, key=lambda r: (r.left, r.right))
            if not new:
                continue
            for region in new:
                if region in clone._name_of:
                    raise HierarchyError(
                        f"region {region} appears in both "
                        f"{clone._name_of[region]!r} and {name!r}"
                    )
                clone._name_of[region] = name
            existing = clone._sets.get(name)
            if existing is None:
                clone._sets[name] = RegionSet._from_sorted(new)
            else:
                clone._sets[name] = RegionSet._from_sorted(
                    list(existing) + new
                )
        clone._names = (
            tuple(sorted(clone._sets))
            if len(clone._sets) != len(self._sets)
            else self._names
        )
        clone._all = RegionSet._from_sorted(list(self._all) + flat)
        # An already-materialized forest extends incrementally: the new
        # regions all lie past the old extent, so the old structure is
        # reused and only the appended suffix is swept.  Cold instances
        # keep lazy construction.
        clone._forest = (
            None if self._forest is None else self._forest.appended(flat)
        )
        return clone

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
                if patterns and region in self._name_of
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
