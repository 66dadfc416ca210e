"""The evaluation profiler (EXPLAIN ANALYZE)."""

import pytest

from repro.algebra import ast as A
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.algebra.profile import profile


class TestProfile:
    def test_result_matches_plain_evaluation(self, small_instance):
        query = "bi(A, B, C) union (D within B)"
        report = profile(query, small_instance)
        assert report.result == evaluate(query, small_instance)

    def test_every_node_recorded_preorder(self, small_instance):
        expr = parse("(A containing B) union D")
        report = profile(expr, small_instance)
        recorded = [node.expression for node in report.nodes]
        assert recorded == list(A.walk(expr))

    def test_depths_follow_structure(self, small_instance):
        report = profile("(A containing B) union D", small_instance)
        depths = [node.depth for node in report.nodes]
        assert depths == [0, 1, 2, 2, 1]

    def test_cardinalities(self, small_instance):
        report = profile("A containing D", small_instance)
        by_text = {node.text: node.cardinality for node in report.nodes}
        assert by_text["A"] == 2
        assert by_text["D"] == 3
        assert by_text["A containing D"] == 2

    def test_root_time_dominates(self, small_instance):
        report = profile("(A containing B) union D", small_instance)
        root = report.nodes[0]
        assert root.depth == 0
        assert all(root.seconds >= n.seconds for n in report.nodes)
        assert report.total_seconds == root.seconds

    def test_hottest(self, small_instance):
        report = profile("(A containing B) union D", small_instance)
        hottest = report.hottest(2)
        assert len(hottest) == 2
        assert hottest[0].seconds >= hottest[1].seconds

    def test_naive_strategy(self, small_instance):
        # Only the indexed engine is profiled; its result is the oracle's.
        report = profile("A containing D", small_instance)
        assert report.result == evaluate("A containing D", small_instance, "naive")

    def test_accepts_text(self, small_instance):
        assert profile("A", small_instance).nodes[0].text == "A"

    def test_empty_profile_total(self):
        from repro.algebra.profile import QueryProfile
        from repro.core.regionset import RegionSet

        assert QueryProfile(result=RegionSet.empty()).total_seconds == 0.0
