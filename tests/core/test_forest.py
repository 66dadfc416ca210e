"""The direct-inclusion forest: structure, layers, direct operators."""

import random

import pytest
from hypothesis import given

from repro.core.forest import Forest
from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.errors import HierarchyError
from tests.conftest import hierarchical_instances
from tests.vm.test_kernels import tight_universe


class TestStructure:
    def test_parents_and_children(self, small_instance):
        forest = small_instance.forest()
        assert forest.parent_of(Region(2, 4)) == Region(1, 8)
        assert forest.parent_of(Region(1, 8)) == Region(0, 19)
        assert forest.parent_of(Region(0, 19)) is None
        assert forest.children_of(Region(0, 19)) == [Region(1, 8), Region(10, 18)]

    def test_roots_in_document_order(self, small_instance):
        assert small_instance.forest().roots() == [Region(0, 19), Region(25, 30)]

    def test_depths(self, small_instance):
        forest = small_instance.forest()
        assert forest.depth_of(Region(0, 19)) == 0
        assert forest.depth_of(Region(11, 13)) == 2
        assert forest.max_depth() == 3

    def test_ancestors_innermost_first(self, small_instance):
        forest = small_instance.forest()
        assert forest.ancestors_of(Region(11, 13)) == [
            Region(10, 18),
            Region(0, 19),
        ]

    def test_subtree_preorder(self, small_instance):
        forest = small_instance.forest()
        assert forest.subtree_of(Region(10, 18)) == [
            Region(10, 18),
            Region(11, 13),
            Region(15, 17),
        ]
        assert forest.descendants_of(Region(10, 18)) == [
            Region(11, 13),
            Region(15, 17),
        ]

    def test_sibling_rank_and_child_path(self, small_instance):
        forest = small_instance.forest()
        assert forest.sibling_rank(Region(0, 19)) == 0
        assert forest.sibling_rank(Region(25, 30)) == 1
        assert forest.child_path(Region(15, 17)) == (0, 1, 1)

    def test_iter_edges_covers_every_nonroot(self, small_instance):
        forest = small_instance.forest()
        edges = list(forest.iter_edges())
        assert len(edges) == len(forest) - len(forest.roots())
        for parent, child in edges:
            assert forest.parent_of(child) == parent

    def test_empty_forest(self):
        forest = Forest.from_regions([])
        assert len(forest) == 0
        assert forest.max_depth() == 0
        assert forest.layers() == []

    @given(hierarchical_instances())
    def test_parent_is_tightest_container(self, instance):
        forest = instance.forest()
        universe = instance.all_regions()
        for region in forest.preorder:
            parent = forest.parent_of(region)
            containers = [s for s in universe if s.includes(region)]
            if parent is None:
                assert not containers
            else:
                # The parent includes the region and every other container
                # includes the parent — i.e. nothing sits in between.
                assert parent.includes(region)
                assert all(
                    s == parent or s.includes(parent) for s in containers
                )


class TestLayers:
    def test_layers_partition_by_depth(self, small_instance):
        layers = small_instance.forest().layers()
        assert [len(layer) for layer in layers] == [2, 3, 3]
        assert layers[0] == RegionSet.of((0, 19), (25, 30))

    @given(hierarchical_instances())
    def test_layers_partition_everything(self, instance):
        forest = instance.forest()
        combined = RegionSet.empty()
        for layer in forest.layers():
            assert combined.intersection(layer) == RegionSet.empty()
            combined = combined.union(layer)
        assert combined == instance.all_regions()


class TestDirectOperators:
    def test_directly_including(self, small_instance):
        forest = small_instance.forest()
        result = forest.directly_including(
            small_instance.region_set("A"), small_instance.region_set("D")
        )
        # A[25,30] directly includes D[26,28]; A[0,19] only includes D
        # regions through B and C.
        assert result == RegionSet.of((25, 30))

    def test_directly_included(self, small_instance):
        forest = small_instance.forest()
        result = forest.directly_included(
            small_instance.region_set("D"), small_instance.region_set("B")
        )
        assert result == RegionSet.of((2, 4))

    def test_direct_operators_ignore_foreign_regions(self, small_instance):
        forest = small_instance.forest()
        foreign = RegionSet.of((100, 200))
        assert forest.directly_including(foreign, small_instance.region_set("D")) == RegionSet.empty()
        assert forest.directly_included(foreign, small_instance.region_set("A")) == RegionSet.empty()

    @given(hierarchical_instances())
    def test_direct_implies_inclusion(self, instance):
        forest = instance.forest()
        universe = instance.all_regions()
        direct = forest.directly_including(universe, universe)
        assert direct == universe.including(universe).intersection(direct)


class TestAppended:
    """Live-ingestion assembly: pieces appended past an instance's
    extent bring their own parent columns, rebased, in place of a sweep."""

    @staticmethod
    def _structure(forest):
        return [
            (
                region,
                forest.parent_of(region),
                tuple(forest.children_of(region)),
                forest.depth_of(region),
            )
            for region in forest.preorder
        ]

    @staticmethod
    def _columns(forest):
        """The column view, which the direct operators read."""
        return (forest._lefts, forest._rights, forest._parent_pos)

    @staticmethod
    def _text_backed(instance):
        """``instance``'s region sets over an empty text word index (the
        index ``Instance.appended`` extends)."""
        return Instance(
            {name: instance.region_set(name) for name in instance.names},
            TextWordIndex(()),
        )

    def test_columns_after_an_append_sequence(self):
        # Several commits in a row, each of one to three pieces in local
        # coordinates, over regions that share endpoints: the assembled
        # columns must be the columns of one build over everything, in
        # RegionSet order, and say what the object view says.
        rng = random.Random(18)
        for _ in range(25):
            instance = Instance({}, TextWordIndex(()))
            everything, start = [], 0
            for _ in range(rng.randint(1, 5)):
                pieces = []
                for _ in range(rng.randint(1, 3)):
                    stop = start + rng.randint(0, 20)
                    local = [
                        Region(l - start, r - start)
                        for l, r in tight_universe(rng, start, stop)
                    ]
                    pieces.append((Instance({"R": local}, TextWordIndex(())), start))
                    everything += [region.shifted(start) for region in local]
                    start = stop + rng.randint(1, 3)
                instance = instance.appended(pieces)
            forest = instance.forest()
            scratch = Forest.from_regions(everything)
            assert self._columns(forest) == self._columns(scratch)
            assert self._structure(forest) == self._structure(scratch)
            lefts, rights, parent_pos = self._columns(forest)
            universe = RegionSet(everything)
            assert (lefts, rights) == (universe._lefts, universe._rights)
            for region, above in zip(universe, parent_pos):
                parent = forest.parent_of(region)
                assert parent == (None if above < 0 else universe.regions[above])

    @given(hierarchical_instances(), hierarchical_instances())
    def test_appended_matches_from_scratch(self, base, extra):
        offset = base._rights_max() + 1 - extra.all_regions()._lefts[0]
        incremental = self._text_backed(base).appended(
            [(self._text_backed(extra), offset)]
        )
        scratch = Instance(
            {
                name: list(base.region_set(name))
                + [r.shifted(offset) for r in extra.region_set(name)]
                for name in base.names
            },
            TextWordIndex(()),
        )
        assert incremental.columns() == scratch.columns()
        assert self._columns(incremental.forest()) == self._columns(scratch.forest())
        assert self._structure(incremental.forest()) == self._structure(
            Forest.from_regions(scratch.all_regions())
        )

    @given(hierarchical_instances(), hierarchical_instances())
    def test_appended_leaves_the_old_forest_untouched(self, base, extra):
        # Snapshot isolation depends on this: the old generation keeps
        # using its columns and forest while the new one extends them.
        old = self._text_backed(base)
        before = self._structure(old.forest())
        columns = [list(c) for c in old.columns() + (old.forest()._parent_pos,)]
        offset = base._rights_max() + 1 - extra.all_regions()._lefts[0]
        old.appended([(self._text_backed(extra), offset)])
        assert self._structure(old.forest()) == before
        assert [list(c) for c in old.columns() + (old.forest()._parent_pos,)] == columns

    def test_appended_nothing_is_self(self, small_instance):
        assert small_instance.appended([]) is small_instance

    def test_warm_instance_append_carries_the_forest(self, small_instance):
        # The clone gets its forest from the pieces' parent columns, not
        # from a cold rebuild; a piece that starts inside the extent and
        # a label word index are refused.
        base = self._text_backed(small_instance)
        piece = Instance(
            {"A": [Region(0, 5)], "B": [Region(1, 3)]}, TextWordIndex(())
        )
        clone = base.appended([(piece, base._rights_max() + 1)])
        assert clone._forest is not None
        assert self._structure(clone._forest) == self._structure(
            Forest.from_regions(clone.all_regions())
        )
        with pytest.raises(HierarchyError, match="after the existing extent"):
            base.appended([(piece, base._rights_max())])
        with pytest.raises(HierarchyError, match="text word indexes"):
            small_instance.appended([(piece, 100)])
