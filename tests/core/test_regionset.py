"""RegionSet: set operations and indexed structural semi-joins."""

from hypothesis import given, settings

from repro.algebra import oracle
from repro.core.region import Region
from repro.core.regionset import RegionSet
from tests.conftest import hierarchical_instances, region_lists


class TestContainerBasics:
    def test_dedup_and_order(self):
        rs = RegionSet.of((5, 9), (1, 3), (5, 9), (1, 8))
        assert [r.as_tuple() for r in rs] == [(1, 3), (1, 8), (5, 9)]

    def test_contains(self):
        rs = RegionSet.of((1, 3), (5, 9))
        assert Region(1, 3) in rs
        assert Region(1, 4) not in rs
        assert "not a region" not in rs

    def test_empty_singleton_behaviour(self):
        assert not RegionSet.empty()
        assert len(RegionSet.empty()) == 0
        assert RegionSet.empty() == RegionSet()

    def test_hashable(self):
        assert hash(RegionSet.of((1, 2))) == hash(RegionSet.of((1, 2)))

    def test_repr_truncates(self):
        rs = RegionSet.of(*[(i, i) for i in range(0, 20, 2)])
        assert "total" in repr(rs)


class TestSetOperations:
    def test_union(self):
        a = RegionSet.of((1, 2), (4, 6))
        b = RegionSet.of((4, 6), (8, 9))
        assert a.union(b) == RegionSet.of((1, 2), (4, 6), (8, 9))

    def test_union_with_empty_returns_operand(self):
        a = RegionSet.of((1, 2))
        assert a.union(RegionSet.empty()) is a
        assert RegionSet.empty().union(a) is a

    def test_intersection(self):
        a = RegionSet.of((1, 2), (4, 6))
        b = RegionSet.of((4, 6), (8, 9))
        assert a.intersection(b) == RegionSet.of((4, 6))

    def test_difference(self):
        a = RegionSet.of((1, 2), (4, 6))
        b = RegionSet.of((4, 6))
        assert a.difference(b) == RegionSet.of((1, 2))

    def test_operator_aliases(self):
        a = RegionSet.of((1, 2), (4, 6))
        b = RegionSet.of((4, 6))
        assert (a | b) == a.union(b)
        assert (a & b) == a.intersection(b)
        assert (a - b) == a.difference(b)

    @given(region_lists(), region_lists())
    def test_set_laws(self, xs, ys):
        a, b = RegionSet(xs), RegionSet(ys)
        assert a.union(b) == b.union(a)
        assert a.intersection(b) == b.intersection(a)
        assert a.difference(b).intersection(b) == RegionSet.empty()
        assert a.union(b).difference(b) == a.difference(b)


class TestStructuralJoins:
    """The indexed semi-joins must match the Definition 2.3 oracles."""

    def test_including_golden(self):
        outer = RegionSet.of((0, 10), (20, 25), (4, 6))
        inner = RegionSet.of((4, 6), (22, 25))
        assert outer.including(inner) == RegionSet.of((0, 10), (20, 25))

    def test_included_in_golden(self):
        outer = RegionSet.of((0, 10), (20, 30))
        inner = RegionSet.of((4, 6), (0, 10), (31, 40))
        assert inner.included_in(outer) == RegionSet.of((4, 6))

    def test_preceding_golden(self):
        a = RegionSet.of((0, 3), (10, 12), (40, 45))
        b = RegionSet.of((15, 20))
        assert a.preceding(b) == RegionSet.of((0, 3), (10, 12))

    def test_following_golden(self):
        a = RegionSet.of((0, 3), (10, 12), (40, 45))
        b = RegionSet.of((15, 20))
        assert a.following(b) == RegionSet.of((40, 45))

    def test_empty_operands(self):
        a = RegionSet.of((0, 3))
        empty = RegionSet.empty()
        for op in ("including", "included_in", "preceding", "following"):
            assert getattr(a, op)(empty) == empty
            assert getattr(empty, op)(a) == empty

    def test_shared_endpoint_inclusion(self):
        # [0,10] ⊃ [0,8] and [2,10], but not [0,10] itself.
        outer = RegionSet.of((0, 10))
        assert outer.including(RegionSet.of((0, 8))) == outer
        assert outer.including(RegionSet.of((2, 10))) == outer
        assert outer.including(RegionSet.of((0, 10))) == RegionSet.empty()

    @given(region_lists(), region_lists())
    @settings(max_examples=300)
    def test_including_matches_oracle(self, xs, ys):
        a, b = RegionSet(xs), RegionSet(ys)
        assert a.including(b) == oracle.including(a, b)

    @given(region_lists(), region_lists())
    @settings(max_examples=300)
    def test_included_in_matches_oracle(self, xs, ys):
        a, b = RegionSet(xs), RegionSet(ys)
        assert a.included_in(b) == oracle.included_in(a, b)

    @given(region_lists(), region_lists())
    def test_preceding_matches_oracle(self, xs, ys):
        a, b = RegionSet(xs), RegionSet(ys)
        assert a.preceding(b) == oracle.preceding(a, b)

    @given(region_lists(), region_lists())
    def test_following_matches_oracle(self, xs, ys):
        a, b = RegionSet(xs), RegionSet(ys)
        assert a.following(b) == oracle.following(a, b)

    @given(region_lists())
    def test_extremes_are_the_order_join_scalars(self, xs):
        rs = RegionSet(xs)
        expected = (
            (max(r.left for r in xs), min(r.right for r in xs)) if xs else (None, None)
        )
        assert rs.extremes() == expected
        rs.including(rs)  # builds the suffix table the accessor may read
        assert rs.extremes() == expected

    @given(region_lists(), region_lists())
    def test_inclusion_duality(self, xs, ys):
        """r ∈ (A ⊃ B) iff some b ∈ (B ⊂ {r}) — semi-join duality."""
        a, b = RegionSet(xs), RegionSet(ys)
        for r in a.including(b):
            assert b.included_in(RegionSet([r]))


class TestLayers:
    def test_top_layer(self):
        rs = RegionSet.of((0, 10), (2, 5), (3, 4), (12, 15))
        assert rs.top_layer() == RegionSet.of((0, 10), (12, 15))

    def test_top_layer_of_flat_set_is_identity(self):
        rs = RegionSet.of((0, 1), (3, 4), (6, 7))
        assert rs.top_layer() == rs

    def test_max_nesting_depth(self):
        assert RegionSet.empty().max_nesting_depth() == 0
        assert RegionSet.of((0, 1), (3, 4)).max_nesting_depth() == 1
        assert RegionSet.of((0, 10), (2, 8), (3, 4)).max_nesting_depth() == 3

    def test_max_nesting_depth_shared_left_endpoints(self):
        # (0,10) ⊃ (0,5): sorting by (left, right) alone would miss this.
        assert RegionSet.of((0, 10), (0, 5)).max_nesting_depth() == 2

    @given(hierarchical_instances())
    def test_layer_peeling_terminates_and_partitions(self, instance):
        # Layer peeling and the depth sweep assume hierarchical inputs
        # (the only shape the algebra ever feeds them).
        rs = instance.all_regions()
        seen = RegionSet.empty()
        rest = rs
        rounds = 0
        while rest:
            layer = rest.top_layer()
            assert layer, "peeling must make progress"
            assert layer.intersection(seen) == RegionSet.empty()
            seen = seen.union(layer)
            rest = rest.difference(layer)
            rounds += 1
        assert seen == rs
        assert rounds == rs.max_nesting_depth()

    def test_select(self):
        rs = RegionSet.of((0, 3), (5, 9))
        assert rs.select(lambda r: r.left == 5) == RegionSet.of((5, 9))

    def test_covering_is_non_strict(self):
        rs = RegionSet.of((0, 9), (2, 5), (6, 6), (7, 9))
        points = RegionSet.of((2, 5), (6, 6))
        # (2,5) and (6,6) *are* occurrences; ⊃ would drop them.
        assert rs.covering(points) == RegionSet.of((0, 9), (2, 5), (6, 6))
        assert rs.including(points) == RegionSet.of((0, 9))

    def test_pairs_reads_the_arrays(self):
        rs = RegionSet.of((0, 10), (2, 5)).union(RegionSet.of((7, 9)))
        assert rs.pairs() == [(0, 10), (2, 5), (7, 9)]
        assert rs._regions is None  # no object view was built
        assert RegionSet.empty().pairs() == []

    def test_spanning(self):
        rs = RegionSet.of((0, 10), (2, 5), (7, 9))
        assert rs.spanning(8) == RegionSet.of((0, 10), (7, 9))
