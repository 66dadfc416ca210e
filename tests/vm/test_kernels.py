"""The indexed operator bodies vs the oracle table.

Every name in :mod:`repro.vm.kernels` *is* the corresponding
:class:`RegionSet` method (one body, not two), and each must be
bit-identical to the paper's definition in :mod:`repro.algebra.oracle` —
on random sets and on the boundary shapes where galloping search earns
its keep: empty operands, single-region sets, fully-nested same-name
towers, and the k-reduced instances of Theorem 4.4.  The bodies that
read the word index's postings (``covering``) and the forest's columns
(``⊃_d``/``⊂_d``) get the same treatment plus shared endpoints and the
paper's own Figure 2 / Figure 3 families.
"""

import random

from repro.algebra import oracle
from repro.core.forest import Forest
from repro.core.regionset import RegionSet
from repro.properties.reduction import (
    isomorphic_sibling_pairs,
    reduce_regions,
)
from repro.vm import kernels
from repro.workloads.generators import (
    figure_2_instance,
    figure_3_instance,
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
            "both_included",
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


def covering_definition(r_set: RegionSet, points: RegionSet) -> RegionSet:
    """``σ_p`` over a text, by the book: ``W(r, p)`` holds when an
    occurrence lies inside ``r`` — non-strictly."""
    return oracle.select(
        r_set,
        lambda r: any(s.left >= r.left and s.right <= r.right for s in points),
    )


def tight_universe(rng, left, right, depth=0):
    """Random hierarchical ``(left, right)`` pairs inside ``[left, right]``
    that share endpoints freely: a child may start where its parent
    starts or end where it ends (never both)."""
    out = {(left, right)}
    cursor = left
    while depth < 4 and cursor <= right and rng.random() < 0.7:
        a = rng.randint(cursor, right)
        b = rng.randint(a, right)
        if (a, b) != (left, right):
            out |= tight_universe(rng, a, b, depth + 1)
        cursor = b + 1
    return out


def assert_direct_bodies(universe, includers, included, label):
    """Both direct bodies against Definition 5.1 over ``universe``."""
    forest = Forest.from_regions(universe)
    assert_same(
        forest.directly_including(includers, included),
        oracle.directly_including(includers, included, universe),
        f"dcontaining {label}",
    )
    assert_same(
        forest.directly_included(included, includers),
        oracle.directly_included(included, includers, universe),
        f"dwithin {label}",
    )


class TestCovering:
    def test_random_sets(self):
        rng = random.Random(18)
        for case in range(80):
            a, points = random_set(rng), random_set(rng)
            assert_same(
                a.covering(points), covering_definition(a, points), f"case={case}"
            )

    def test_boundaries(self):
        empty = RegionSet.empty()
        tower = nested_tower(12, ("R",)).region_set("R")
        # Shared left endpoints: the probe frontier must not step past
        # an occurrence that starts exactly where the region starts.
        shared = RegionSet.of((0, 9), (0, 5), (0, 2), (3, 5), (6, 6))
        for a, points in (
            (empty, shared),
            (shared, empty),
            (RegionSet.of((2, 5)), RegionSet.of((2, 5))),  # the occurrence is the region
            (RegionSet.of((2, 5)), RegionSet.of((1, 5))),  # sticks out on the left
            (RegionSet.of((2, 5)), RegionSet.of((2, 6))),  # ... on the right
            (tower, RegionSet.of((11, 12))),  # only the innermost levels' interior
            (tower, tower),
            (shared, RegionSet.of((0, 2), (6, 6))),
            (shared, RegionSet.of((0, 0), (3, 3))),
        ):
            assert_same(a.covering(points), covering_definition(a, points), f"{a!r} {points!r}")
        assert RegionSet.of((2, 5)).covering(RegionSet.of((2, 5))) == RegionSet.of((2, 5))


class TestDirectBodies:
    def test_random_universes_with_foreign_included_members(self):
        # The included side may hold regions that are not instance
        # regions (match points, here any region at all): each resolves
        # to its innermost strictly-enclosing instance region.
        rng = random.Random(51)
        for case in range(60):
            pairs = sorted(tight_universe(rng, 0, rng.randint(0, 40)))
            universe = RegionSet.of(*pairs)
            includers = RegionSet.of(*(p for p in pairs if rng.random() < 0.6))
            included = RegionSet.of(
                *(p for p in pairs if rng.random() < 0.5)
            ).union(random_set(rng, max_regions=8, span=45))
            assert_direct_bodies(universe, includers, included, f"case={case}")

    def test_boundaries(self):
        empty = RegionSet.empty()
        one = RegionSet.of((2, 5))
        tower = nested_tower(12, ("R",)).region_set("R")
        # A tower sharing its left endpoint, one sharing its right, and
        # points on every boundary of both.
        shared = RegionSet.of((0, 9), (0, 5), (0, 2), (3, 5), (4, 5), (7, 9))
        points = RegionSet.of((0, 0), (2, 2), (3, 3), (5, 5), (6, 6), (9, 9), (12, 12))
        for universe, includers, included in (
            (one, empty, one),
            (one, one, empty),
            (one, one, one),
            (one, one, RegionSet.of((3, 4))),
            (one, one, RegionSet.of((2, 5), (2, 4), (1, 5))),
            (tower, tower, tower),
            (shared, shared, shared),
            (shared, shared, points),
            (empty, one, one),
        ):
            assert_direct_bodies(universe, includers, included, f"{universe!r}")

    def test_figure_2_alternating_tower(self):
        # Theorem 5.1's family: B ⊃ A ⊃ B ⊃ … — every region directly
        # includes exactly the next one in, of the other name.
        for depth in (1, 2, 7, 16):
            instance = figure_2_instance(depth)
            a, b = instance.region_set("A"), instance.region_set("B")
            universe = instance.all_regions()
            for left, right in ((a, b), (b, a), (a, a), (universe, universe)):
                assert_direct_bodies(universe, left, right, f"depth={depth}")
            forest = instance.forest()
            assert len(forest.directly_including(universe, universe)) == depth - 1
            assert forest.directly_including(a, a) == RegionSet.empty()


class TestBothIncludedFamilies:
    def test_figure_3_siblings(self):
        # Theorem 5.3's family: 4k+1 sibling C regions, each holding
        # A then B; only the middle one also holds a second A after B.
        for k in (0, 1, 3, 8):
            instance = figure_3_instance(k)
            a, b, c = (instance.region_set(n) for n in "ABC")
            for s, t in ((b, a), (a, b), (a, a), (b, b)):
                assert_same(
                    kernels.both_included(c, s, t),
                    oracle.both_included(c, s, t),
                    f"k={k}",
                )
            assert len(kernels.both_included(c, b, a)) == 1
            assert len(kernels.both_included(c, a, b)) == 4 * k + 1

    def test_boundaries(self):
        empty = RegionSet.empty()
        tower = nested_tower(10, ("R",)).region_set("R")
        shared = RegionSet.of((0, 9), (0, 5), (0, 2), (3, 5), (4, 5), (7, 9))
        for r, s, t in (
            (empty, shared, shared),
            (shared, empty, shared),
            (shared, shared, empty),
            (RegionSet.of((0, 9)), RegionSet.of((0, 2)), RegionSet.of((3, 9))),
            (RegionSet.of((0, 9)), RegionSet.of((0, 9)), RegionSet.of((3, 4))),
            (tower, tower, tower),
            (shared, shared, shared),
        ):
            assert_same(
                kernels.both_included(r, s, t), oracle.both_included(r, s, t), f"{r!r}"
            )
