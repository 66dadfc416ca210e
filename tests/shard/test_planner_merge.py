"""Operator classification into exchange rounds, bound resolution, the
k-way merge, and the hash of a routed plan."""

import random

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.core.regionset import RegionSet
from repro.shard.merge import merge_region_sets
from repro.shard.planner import classify, fold_extremes, resolve_bounds
from repro.shard.rewrite import rewrite
from repro.workloads.generators import random_text_instance


class TestClassify:
    def test_local_expression(self):
        plan = classify(parse("(A within B) union (C containing D)"))
        assert plan.local
        assert plan.rounds == 0

    def test_single_ordering_node_is_round_one(self):
        plan = classify(parse("A before B"))
        assert not plan.local
        assert plan.rounds == 1
        (node,) = plan.nodes_in_round(1)
        assert isinstance(node.node, A.Preceding)
        assert node.kind == "preceding"

    def test_nested_right_operand_raises_round(self):
        # The scalar for the outer < comes from (B before C)'s global
        # result, which itself needs an exchange first.
        plan = classify(parse("A before (B before C)"))
        assert plan.rounds == 2
        assert len(plan.nodes_in_round(1)) == 1
        assert len(plan.nodes_in_round(2)) == 1
        outer = plan.nodes_in_round(2)[0].node
        assert isinstance(outer.right, A.Preceding)

    def test_left_subtree_does_not_raise_round(self):
        # Ordering nodes in the LEFT operand resolve independently; the
        # outer node's scalar only depends on its right operand.
        plan = classify(parse("(A before B) after C"))
        rounds = {b.kind: b.round for b in plan.boundary}
        assert rounds == {"preceding": 1, "following": 1}

    def test_equal_subexpressions_share_one_entry(self):
        plan = classify(parse("(A before B) union (A before B)"))
        assert len(plan.boundary) == 1
        assert plan.rounds == 1

    def test_shared_subexpression_takes_max_round(self):
        # (A before B) occurs bare (round 1) and as the right operand of
        # another ordering node; one entry, resolved once.
        plan = classify(parse("(C after (A before B)) union (A before B)"))
        inner = [b for b in plan.boundary if isinstance(b.node, A.Preceding)]
        outer = [b for b in plan.boundary if isinstance(b.node, A.Following)]
        assert len(inner) == 1 and len(outer) == 1
        assert inner[0].round == 1
        assert outer[0].round == 2

    def test_match_points_collected(self):
        plan = classify(parse('A containing "alpha"'))
        assert plan.patterns == ("alpha",)
        assert not plan.boundary
        assert not plan.local


class TestResolveBounds:
    def test_fold_extremes_skips_empty_parts(self):
        assert fold_extremes([(3, 9), (None, None), (7, 8)]) == (7, 8)
        assert fold_extremes([(None, None)]) == (None, None)
        assert fold_extremes([]) == (None, None)

    def test_rounds_resolve_against_the_bounds_before_them(self):
        # A before (B after C): C's min right resolves `after` in round 1;
        # round 2 sees that bound when it asks for (B after C)'s max left.
        expr = parse("A before (B after C)")
        plan = classify(expr)
        inner = plan.nodes_in_round(1)[0].node
        outer = plan.nodes_in_round(2)[0].node
        asked = []

        def extremes(rights, bounds):
            asked.append((rights, dict(bounds)))
            return [(40, 11) if right == inner.right else (90, 5) for right in rights]

        bounds = resolve_bounds(plan, extremes)
        assert bounds == {inner: 11, outer: 90}
        assert asked == [([inner.right], {}), ([outer.right], {inner: 11})]

    def test_a_right_operand_shared_by_both_kinds_is_asked_once(self):
        plan = classify(parse("(A before C) union (B after C)"))
        calls = []

        def extremes(rights, bounds):
            calls.append(rights)
            return [(None, None)] * len(rights)

        bounds = resolve_bounds(plan, extremes)
        assert len(calls) == 1 and len(calls[0]) == 1
        assert set(bounds.values()) == {None}

    def test_a_local_plan_asks_nothing(self):
        def extremes(rights, bounds):
            raise AssertionError("no exchange for a local plan")

        assert resolve_bounds(classify(parse("A within B")), extremes) == {}


class TestMerge:
    def test_empty_inputs(self):
        assert len(merge_region_sets([])) == 0
        assert len(merge_region_sets([RegionSet.empty()])) == 0

    def test_single_part_passthrough(self):
        part = RegionSet.of((0, 1), (4, 9))
        assert merge_region_sets([RegionSet.empty(), part]) is part

    def test_disjoint_concatenation(self):
        a = RegionSet.of((0, 3), (5, 6))
        b = RegionSet.of((8, 9))
        c = RegionSet.of((12, 20), (14, 15))
        merged = merge_region_sets([a, b, c])
        assert [r.as_tuple() for r in merged] == [
            (0, 3),
            (5, 6),
            (8, 9),
            (12, 20),
            (14, 15),
        ]

    def test_interleaved_fall_back_to_heap_merge(self):
        a = RegionSet.of((0, 3), (10, 12))
        b = RegionSet.of((5, 6), (14, 15))
        merged = merge_region_sets([a, b])
        assert [r.as_tuple() for r in merged] == [
            (0, 3),
            (5, 6),
            (10, 12),
            (14, 15),
        ]

    def test_duplicates_collapse(self):
        a = RegionSet.of((0, 3), (5, 6))
        b = RegionSet.of((0, 3), (8, 9))
        merged = merge_region_sets([a, b])
        assert [r.as_tuple() for r in merged] == [(0, 3), (5, 6), (8, 9)]

    def test_result_is_canonical_regionset(self):
        # The merged set must behave like one built the normal way
        # (sorted order, working set operations).
        a = RegionSet.of((0, 3))
        b = RegionSet.of((5, 6))
        merged = merge_region_sets([a, b])
        assert merged == RegionSet.of((0, 3), (5, 6))
        assert len(merged.union(RegionSet.of((0, 3)))) == 2

    def test_arrays_in_arrays_out(self):
        # Both paths read and write endpoint arrays: no object view is
        # built on the inputs or the result.  (5, 9) < (5, 10) is a
        # clean boundary; a shared (5, 6) is not.
        concat = [
            RegionSet._from_arrays([0, 5], [3, 9]),
            RegionSet._from_arrays([5, 8], [10, 9]),
        ]
        interleaved = [
            RegionSet._from_arrays([0, 5], [3, 6]),
            RegionSet._from_arrays([1, 5, 8], [2, 6, 9]),
        ]
        for parts, pairs in (
            (concat, [(0, 3), (5, 9), (5, 10), (8, 9)]),
            (interleaved, [(0, 3), (1, 2), (5, 6), (8, 9)]),
        ):
            merged = merge_region_sets(parts)
            assert merged.pairs() == pairs
            assert merged._regions is None
            assert all(part._regions is None for part in parts)


class _CountingList(list):
    """A list that counts how often it is iterated whole."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


class TestRoutedPlanHash:
    def test_repeated_lookups_hash_the_literal_once(self):
        # A routed plan carries its match points as a RegionLiteral, and
        # the program cache hashes the plan on every lookup; hashing a
        # RegionSet reads all of its endpoints.
        instance = random_text_instance(random.Random(3))
        points = instance.word_index.match_points("l*")
        assert points
        routed = RegionSet._from_arrays(
            _CountingList(points._lefts), list(points._rights)
        )
        plan = rewrite(parse('line containing "l*"'), {}, {"l*": routed})
        evaluator = Evaluator()
        expected = evaluator.evaluate(parse('line containing "l*"'), instance)
        for _ in range(5):
            assert evaluator.evaluate(plan, instance) == expected
        assert evaluator.program_cached(plan)
        assert _CountingList.iterations == 1
        # Equality is still by content.
        assert hash(routed) == hash(RegionSet._from_arrays(list(routed._lefts), routed._rights))
        assert routed == points
