"""The indexed operator bodies vs the oracle table.

Every name in :mod:`repro.vm.kernels` *is* the corresponding
:class:`RegionSet` method (one body, not two), and each must be
bit-identical to the paper's definition in :mod:`repro.algebra.oracle` —
on random sets and on the boundary shapes where galloping search earns
its keep: empty operands, single-region sets, fully-nested same-name
towers, and the k-reduced instances of Theorem 4.4.
"""

import random

from repro.algebra import oracle
from repro.core.regionset import RegionSet
from repro.properties.reduction import (
    isomorphic_sibling_pairs,
    reduce_regions,
)
from repro.vm import kernels
from repro.workloads.generators import (
    flat_row,
    nested_tower,
    random_instance,
)

# (indexed body, oracle definition) per operator.
SEMI_JOINS = [
    (kernels.including, oracle.including),
    (kernels.included_in, oracle.included_in),
    (kernels.preceding, oracle.preceding),
    (kernels.following, oracle.following),
]

SET_OPS = [
    (kernels.union, oracle.union),
    (kernels.intersection, oracle.intersection),
    (kernels.difference, oracle.difference),
]

BINARY = SEMI_JOINS + SET_OPS


def random_set(rng, max_regions=30, span=60):
    """A random (possibly overlapping, possibly nested) region set."""
    pairs = []
    for _ in range(rng.randrange(max_regions + 1)):
        left = rng.randrange(span)
        right = left + rng.randrange(span - left) if left < span else left
        pairs.append((left, right))
    return RegionSet.of(*pairs)


def assert_same(got: RegionSet, expected: RegionSet, label: str):
    assert list(got) == list(expected), label
    assert got == expected, label


class TestOneBody:
    def test_kernel_names_are_the_regionset_methods(self):
        for name in (
            "union",
            "intersection",
            "difference",
            "including",
            "included_in",
            "preceding",
            "following",
            "select",
        ):
            assert getattr(RegionSet, name) is getattr(kernels, name), name


class TestRandomSets:
    def test_set_ops_match_reference(self):
        rng = random.Random(1995)
        for case in range(80):
            a, b = random_set(rng), random_set(rng)
            for kernel, definition in SET_OPS:
                assert_same(
                    kernel(a, b),
                    definition(a, b),
                    f"case={case} op={kernel.__name__} a={a!r} b={b!r}",
                )

    def test_semi_joins_match_reference_and_naive(self):
        rng = random.Random(2026)
        for case in range(80):
            a, b = random_set(rng), random_set(rng)
            for kernel, definition in SEMI_JOINS:
                label = f"case={case} op={kernel.__name__} a={a!r} b={b!r}"
                assert_same(kernel(a, b), definition(a, b), label)

    def test_both_included_matches_definition(self):
        rng = random.Random(52)
        for case in range(60):
            r, s, t = (random_set(rng, max_regions=12, span=30) for _ in range(3))
            assert_same(
                kernels.both_included(r, s, t),
                oracle.both_included(r, s, t),
                f"case={case} r={r!r} s={s!r} t={t!r}",
            )

    def test_order_bounds_match_scan(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_set(rng)
            bound = rng.randrange(-1, 65)
            pre = kernels.order_bound_preceding(a, bound)
            fol = kernels.order_bound_following(a, bound)
            assert list(pre) == [r for r in a if r.right < bound]
            assert list(fol) == [r for r in a if r.left > bound]

    def test_select_matches_reference(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_set(rng)
            pred = lambda r: (r.left + r.right) % 3 == 0
            assert_same(kernels.select(a, pred), oracle.select(a, pred), repr(a))


class TestBoundaries:
    """The ISSUE 10 checklist: empty / singleton / towers / k-reduced."""

    def test_empty_operands(self):
        empty = RegionSet.empty()
        full = RegionSet.of((0, 3), (1, 2), (5, 9))
        for kernel, definition in SET_OPS:
            for a, b in ((empty, full), (full, empty), (empty, empty)):
                assert_same(kernel(a, b), definition(a, b), kernel.__name__)
        for kernel, _ in SEMI_JOINS:
            assert kernel(empty, full) == RegionSet.empty()
            assert kernel(full, empty) == RegionSet.empty()
            assert kernel(empty, empty) == RegionSet.empty()

    def test_single_region_sets(self):
        cases = [
            (RegionSet.of((2, 5)), RegionSet.of((2, 5))),  # identical
            (RegionSet.of((2, 5)), RegionSet.of((1, 6))),  # nested
            (RegionSet.of((2, 5)), RegionSet.of((3, 4))),  # nests
            (RegionSet.of((2, 5)), RegionSet.of((6, 9))),  # before
            (RegionSet.of((6, 9)), RegionSet.of((2, 5))),  # after
            (RegionSet.of((2, 5)), RegionSet.of((4, 9))),  # overlap
        ]
        for a, b in cases:
            for kernel, definition in BINARY:
                assert_same(kernel(a, b), definition(a, b), kernel.__name__)

    def test_fully_nested_same_name_tower(self):
        # depth-24 chain of one name: every region contains every deeper
        # one, the worst case for the containment frontiers.
        instance = nested_tower(24, ("R",))
        tower = instance.region_set("R")
        assert len(tower) == 24
        for kernel, definition in SEMI_JOINS:
            assert_same(
                kernel(tower, tower), definition(tower, tower), kernel.__name__
            )
        # All but the innermost region contain another; all but the
        # outermost are contained in another.
        assert len(kernels.including(tower, tower)) == 23
        assert len(kernels.included_in(tower, tower)) == 23
        assert kernels.preceding(tower, tower) == RegionSet.empty()
        assert kernels.following(tower, tower) == RegionSet.empty()

    def test_flat_row_disjoint_siblings(self):
        instance = flat_row(16, "R")
        row = instance.region_set("R")
        # Containment is proper: no disjoint sibling contains another.
        assert kernels.including(row, row) == RegionSet.empty()
        assert kernels.included_in(row, row) == RegionSet.empty()
        assert len(kernels.preceding(row, row)) == 15
        assert len(kernels.following(row, row)) == 15

    def test_k_reduced_instances(self):
        # Theorem 4.4: reduction sequences shrink an instance while
        # preserving (k ctr)-expressible behaviour.  The indexed bodies
        # must agree with the oracle table at every step of the sequence.
        rng = random.Random(44)
        instance = random_instance(
            rng, ("R0", "R1"), max_nodes=40, max_depth=3, max_children=4
        )
        for step in range(4):
            pairs = isomorphic_sibling_pairs(instance)
            if not pairs:
                break
            keep, remove = pairs[0]
            instance, _ = reduce_regions(instance, keep, remove)
            a = instance.region_set("R0")
            b = instance.region_set("R1")
            for kernel, definition in BINARY:
                assert_same(
                    kernel(a, b),
                    definition(a, b),
                    f"step={step} op={kernel.__name__}",
                )


class TestTopLayerSweep:
    def test_top_layer_matches_semi_join_formula(self):
        # top_layer(S) == S - (S included-in S): the O(n) layer peel
        # must agree with the algebraic definition.
        rng = random.Random(8)
        for _ in range(60):
            s = random_set(rng)
            formula = kernels.difference(s, kernels.included_in(s, s))
            assert_same(s.top_layer(), formula, repr(s))

    def test_top_layer_tower_and_row(self):
        tower = nested_tower(10, ("R",)).region_set("R")
        assert list(tower.top_layer()) == [min(tower, key=lambda r: r.left)]
        row = flat_row(10, "R").region_set("R")
        assert row.top_layer() == row
