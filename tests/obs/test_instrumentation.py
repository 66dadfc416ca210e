"""The instrumented hot paths: evaluator, optimizer, engine telemetry."""

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.algebra.profile import profile
from repro.engine.session import Engine
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.optimize.optimizer import optimize
from repro.rig.graph import figure_1_rig

SOURCE = """program Main {
    var x;
    proc Alpha {
        var y;
        proc Beta { var x; }
    }
}
"""

# A query with a repeated sub-expression: one memo hit when memoizing.
SHARED = "(Var within Proc) union (Var within Proc)"


@pytest.fixture
def engine():
    return Engine.from_source(SOURCE)


class TestEvaluatorObserved:
    def test_plain_evaluator_records_nothing(self, engine):
        evaluator = Evaluator("indexed")
        evaluator.evaluate(SHARED, engine.instance)
        assert evaluator.last_stats is None

    def test_observed_matches_plain_result(self, engine):
        tracer = Tracer()
        observed = Evaluator("indexed", tracer=tracer)
        plain = Evaluator("indexed")
        expr = parse(SHARED)
        assert observed.evaluate(expr, engine.instance) == plain.evaluate(
            expr, engine.instance
        )

    def test_memo_hits_counted(self, engine):
        metrics = MetricsRegistry()
        evaluator = Evaluator("indexed", metrics=metrics)
        evaluator.evaluate(SHARED, engine.instance)
        assert evaluator.last_stats.memo_hits == 1
        # Union, IncludedIn, Var, Proc evaluated; second IncludedIn cached.
        assert evaluator.last_stats.nodes_evaluated == 5
        assert metrics.counter("memo_hits_total").total() == 1
        assert metrics.counter("eval_nodes_total").total() == 5

    def test_no_memo_hits_without_memoization(self, engine):
        metrics = MetricsRegistry()
        evaluator = Evaluator("indexed", memoize=False, metrics=metrics)
        evaluator.evaluate(SHARED, engine.instance)
        assert evaluator.last_stats.memo_hits == 0
        assert evaluator.last_stats.nodes_evaluated == 7

    def test_node_histogram_labeled_by_op(self, engine):
        metrics = MetricsRegistry()
        evaluator = Evaluator("indexed", metrics=metrics)
        evaluator.evaluate(SHARED, engine.instance)
        hist = metrics.histogram("eval_node_seconds")
        assert hist.count(op="Union") == 1
        assert hist.count(op="IncludedIn") == 1  # second one was cached
        assert hist.count(op="NameRef") == 2

    def test_span_tree_mirrors_expression(self, engine):
        # One eval.* span per executed instruction, in execution order,
        # under vm.execute; the repeated subtree is a register re-read
        # and records nothing because nothing ran.
        tracer = Tracer()
        expr = parse(SHARED)
        Evaluator("indexed", tracer=tracer).evaluate(expr, engine.instance)
        root = tracer.last_root
        assert root.name == "vm.execute"
        assert root.attributes["instructions"] == 4
        assert root.attributes["cse_hits"] == 1
        kids = [c.name for c in root.children]
        assert kids == ["eval.NameRef", "eval.NameRef", "eval.IncludedIn", "eval.Union"]
        assert all(c.children == [] for c in root.children)
        assert root.children[2].attributes["expression"] == expr.left
        assert root.children[3].attributes["expression"] == expr
        assert root.children[3].attributes["cardinality"] == root.attributes["cardinality"]

    def test_span_times_sum_consistently(self, engine):
        tracer = Tracer()
        Evaluator("indexed", tracer=tracer).evaluate(SHARED, engine.instance)
        for span in tracer.last_root.walk():
            assert sum(c.duration for c in span.children) <= span.duration

    def test_stats_reset_per_evaluate(self, engine):
        evaluator = Evaluator("indexed", metrics=MetricsRegistry())
        evaluator.evaluate(SHARED, engine.instance)
        evaluator.evaluate("Var", engine.instance)
        assert evaluator.last_stats.memo_hits == 0
        assert evaluator.last_stats.nodes_evaluated == 1


class TestOptimizerObserved:
    QUERY = "Name within Proc_header within Proc within Program"

    def test_rule_spans_emitted(self):
        tracer = Tracer()
        optimize(parse(self.QUERY), rig=figure_1_rig(), tracer=tracer)
        root = tracer.last_root
        assert root.name == "optimize"
        names = [c.name for c in root.children]
        assert names == ["rule.identities", "rule.chains", "rule.prune"]
        assert root.attributes["rewrites"] == 1

    def test_rule_fires_counted(self):
        metrics = MetricsRegistry()
        result = optimize(parse(self.QUERY), rig=figure_1_rig(), metrics=metrics)
        assert "RIG chain simplification" in result.steps
        fires = metrics.counter("optimizer_rule_fires_total")
        assert fires.value(rule="RIG chain simplification") == 1
        assert metrics.histogram("optimize_seconds").total_count() == 1

    def test_uninstrumented_call_unchanged(self):
        plain = optimize(parse(self.QUERY), rig=figure_1_rig())
        traced = optimize(
            parse(self.QUERY),
            rig=figure_1_rig(),
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )
        assert plain.expression == traced.expression
        assert plain.steps == traced.steps


class TestEngineTelemetry:
    def test_query_counts(self, engine):
        engine.query("Var within Proc")
        engine.explain("Var within Proc")
        snapshot = engine.telemetry()
        counters = snapshot["metrics"]["counters"]
        assert counters["queries_total"] == {"kind=query": 1.0, "kind=explain": 1.0}

    def test_memo_hits_surface_in_telemetry(self, engine):
        engine.query(SHARED)
        snapshot = engine.telemetry()
        assert snapshot["metrics"]["counters"]["memo_hits_total"][""] == 1.0
        assert snapshot["query_log"]["memo_hits"] == 1

    def test_optimized_query_records_cardinality_error(self, engine):
        engine.query(
            "Name within Proc_header within Proc within Program",
            optimize_query=True,
        )
        record = engine.query_log.last()
        assert record.optimized
        assert record.steps == ("RIG chain simplification",)
        assert record.estimated_cardinality is not None
        assert record.cardinality_error is not None
        assert engine.telemetry()["query_log"]["mean_cardinality_error"] is not None

    def test_executed_plan_matches_explained_plan(self, engine):
        query = "Name within Proc_header within Proc within Program"
        explained = engine.explain(query)
        engine.query(query, optimize_query=True)
        executed = engine.query_log.last()
        from repro.algebra.printer import to_text

        assert executed.plan == to_text(explained.optimized)
        assert executed.steps == explained.steps

    def test_plan_api_agrees_with_explain(self, engine):
        query = "Name within Proc_header within Proc"
        assert engine.plan(query) == engine.explain(query)

    def test_index_build_timed(self, engine):
        hist = engine.telemetry()["metrics"]["histograms"]["index_build_seconds"]
        assert hist["kind=source"]["count"] == 1

    def test_tracing_off_by_default(self, engine):
        engine.query("Var")
        assert engine.telemetry()["tracing_enabled"] is False
        assert engine.tracer.roots == ()

    def test_tracing_produces_query_span(self, engine):
        engine.enable_tracing()
        engine.query("Var within Proc", optimize_query=True)
        root = engine.tracer.last_root
        assert root.name == "query"
        names = [c.name for c in root.children]
        assert names[0] == "parse"
        assert "optimize" in names
        execute = root.children[names.index("vm.execute")]
        assert [c.name for c in execute.children] == [
            "eval.NameRef",
            "eval.NameRef",
            "eval.IncludedIn",
        ]
        for span in root.walk():
            assert sum(c.duration for c in span.children) <= span.duration

    def test_query_log_ring_eviction_through_engine(self):
        engine = Engine.from_source(SOURCE)
        small = Engine(
            engine.instance, telemetry=Telemetry(query_log_capacity=2)
        )
        for _ in range(3):
            small.query("Var")
        assert len(small.query_log) == 2
        assert small.query_log.evicted == 1

    def test_snapshot_is_json_ready(self, engine):
        import json

        engine.query(SHARED, optimize_query=True)
        json.dumps(engine.telemetry())  # must not raise


class TestProfileRebase:
    def test_profile_reports_cache_hits(self, engine):
        report = profile(SHARED, engine.instance)
        assert report.cache_hits == 1
        cached = [n for n in report.nodes if n.cache_hit]
        assert len(cached) == 1
        assert cached[0].text == "Var within Proc"

    def test_profile_memoizes_by_default(self, engine):
        report = profile(SHARED, engine.instance)
        # Cached node's subtree is not re-evaluated: 5 rows, not 7.
        assert len(report.nodes) == 5

    def test_profile_without_memoization_matches_seed_shape(self, engine):
        report = profile(SHARED, engine.instance, memoize=False)
        assert len(report.nodes) == 7
        assert report.cache_hits == 0
