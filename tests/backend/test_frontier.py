"""The frontier over in-process backends: equivalence, failover,
breakers, and hedging.  All the machinery the subprocess topology uses,
none of the subprocesses."""

import random
from time import sleep

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.backend.base import SliceProvider
from repro.backend.frontier import BackendNode, FrontierExecutor
from repro.backend.inprocess import InProcessBackend
from repro.engine.corpus import Corpus
from repro.errors import (
    BackendUnavailableError,
    BackendUnsupportedError,
    QueryTimeout,
)
from repro.faults.registry import FaultSpec, injected_faults
from repro.faults.retry import CircuitBreaker
from repro.obs.trace import Tracer
from repro.workloads.corpora import generate_play
from repro.workloads.queries import PLAY_QUERIES


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(42)
    corpus = Corpus()
    for _ in range(4):
        corpus.add(
            generate_play(
                rng,
                acts=2,
                scenes_per_act=2,
                speeches_per_scene=3,
                lines_per_speech=2,
            )
        )
    return corpus.engine().instance


def make_frontier(
    instance,
    count=3,
    groups=2,
    replicas=2,
    hedge_budget=0.0,
    hedge_min_seconds=0.05,
    breaker_threshold=2,
    breaker_reset=0.2,
):
    provider = SliceProvider(lambda name: (instance, 1))
    backends = [InProcessBackend(f"b{i}", provider) for i in range(count)]
    nodes = [
        BackendNode(
            backend,
            CircuitBreaker(
                failure_threshold=breaker_threshold,
                reset_timeout=breaker_reset,
            ),
        )
        for backend in backends
    ]
    frontier = FrontierExecutor(
        nodes,
        groups=groups,
        replicas=replicas,
        hedge_budget=hedge_budget,
        hedge_min_seconds=hedge_min_seconds,
    )
    return frontier, {node.id: node for node in nodes}


class TestEquivalence:
    @pytest.mark.parametrize("query", sorted(PLAY_QUERIES.values()))
    def test_frontier_matches_single_process(self, instance, query):
        frontier, _ = make_frontier(instance)
        try:
            expr = parse(query)
            expected = Evaluator("indexed").evaluate(expr, instance)
            result, stats = frontier.run("play", expr)
            assert list(result) == list(expected)
            assert stats.groups == 2
            assert stats.nodes_used
        finally:
            frontier.close()

    def test_single_group_topology(self, instance):
        frontier, _ = make_frontier(instance, count=1, groups=1, replicas=1)
        try:
            expr = parse("speech dwithin scene")
            expected = Evaluator("indexed").evaluate(expr, instance)
            result, _ = frontier.run("play", expr)
            assert list(result) == list(expected)
        finally:
            frontier.close()


class TestFailover:
    def test_one_dead_replica_is_absorbed(self, instance):
        frontier, nodes = make_frontier(instance)
        try:
            expr = parse("speech dwithin scene")
            expected = Evaluator("indexed").evaluate(expr, instance)
            victim = frontier.replicas_for("play", 0)[0]
            # The same node may be primary for several groups; make every
            # call to it in this run fail.
            victim.backend.fail_requests = 10
            result, stats = frontier.run("play", expr)
            assert list(result) == list(expected)
            assert stats.failovers >= 1
            assert victim.id not in stats.nodes_used
        finally:
            frontier.close()

    def test_all_replicas_dead_raises_unavailable(self, instance):
        frontier, nodes = make_frontier(instance)
        try:
            for node in frontier.replicas_for("play", 0):
                node.backend.fail_requests = 10
            with pytest.raises(BackendUnavailableError) as info:
                frontier.run("play", parse("speech dwithin scene"))
            assert info.value.corpus == "play"
        finally:
            frontier.close()

    def test_first_failed_group_ends_the_scatter(self, instance):
        # Group 0 has one replica and it fails: the query will be
        # evaluated locally, so calling groups 1-3 would be wasted work.
        frontier, nodes = make_frontier(instance, count=4, groups=4, replicas=1)
        try:
            frontier.replicas_for("play", 0)[0].backend.fail_requests = 1
            with pytest.raises(BackendUnavailableError):
                frontier.run("play", parse("speech"))
            assert sum(node.requests for node in nodes.values()) == 0
            assert frontier.last_stats.nodes_used == []
        finally:
            frontier.close()

    def test_breaker_opens_and_recovers(self, instance):
        frontier, nodes = make_frontier(
            instance, breaker_threshold=2, breaker_reset=0.1
        )
        try:
            expr = parse("speech dwithin scene")
            victim = frontier.replicas_for("play", 0)[0]
            victim.backend.fail_requests = 2
            frontier.run("play", expr)
            frontier.run("play", expr)
            assert victim.breaker.state == CircuitBreaker.OPEN
            # While open, the victim is skipped without being called.
            _, stats = frontier.run("play", expr)
            assert victim.id not in stats.nodes_used
            assert stats.breaker_skips >= 1
            # After the reset timeout a probe goes through (the backend
            # is healthy again) and the breaker closes.
            sleep(0.15)
            frontier.run("play", expr)
            sleep(0.15)
            frontier.run("play", expr)
            assert victim.breaker.state == CircuitBreaker.CLOSED
        finally:
            frontier.close()


@pytest.fixture(scope="module")
def generations():
    """Two instances of one corpus, one commit apart: ``(older, newer)``."""
    rng = random.Random(43)
    corpus = Corpus()
    for _ in range(2):
        corpus.add(generate_play(rng, acts=1, scenes_per_act=2))
    older = corpus.engine().instance
    corpus.add(generate_play(rng, acts=1, scenes_per_act=2))
    return older, corpus.engine().instance


class TestGeneration:
    def test_a_read_answers_exactly_its_generation(self, generations):
        # The replica asked first is already one commit past the read's
        # generation; it must fail over, not answer from G+1.
        older, newer = generations
        at = {}
        backends = [
            InProcessBackend(f"b{i}", SliceProvider(lambda name, i=i: at[i]))
            for i in range(2)
        ]
        frontier = FrontierExecutor(
            [BackendNode(b, CircuitBreaker(failure_threshold=1)) for b in backends],
            groups=1, replicas=2,
        )
        try:
            first, second = frontier.replicas_for("play", 0)
            at[int(first.id[1:])] = (newer, 8)
            at[int(second.id[1:])] = (older, 7)
            for query in ("speech", "speech before speech"):
                expr = parse(query)
                expected = Evaluator("indexed").evaluate(expr, older)
                assert list(expected) != list(
                    Evaluator("indexed").evaluate(expr, newer)
                )
                result, stats = frontier.run("play", expr, floor=7)
                assert list(result) == list(expected)
                assert stats.nodes_used and set(stats.nodes_used) == {second.id}
                assert stats.failovers >= 1
            # Past the read's generation is healthy and current: the
            # refusal does not count against the replica's breaker.
            assert first.breaker.state == CircuitBreaker.CLOSED
            at[int(second.id[1:])] = (older, 6)  # behind it: that counts
            with pytest.raises(BackendUnavailableError):
                frontier.run("play", parse("speech"), floor=7)
            assert second.breaker.state == CircuitBreaker.OPEN
        finally:
            frontier.close()

    @pytest.mark.parametrize(
        "other, fallback, degraded",
        [("past", "superseded", False), ("error", "unavailable", True)],
        ids=["past", "error"],
    )
    def test_a_read_every_replica_moved_past_is_superseded(
        self, generations, other, fallback, degraded
    ):
        # A read in flight across a commit finds every replica already
        # past its generation: nothing is unhealthy, so the local
        # fallback answers it as routine.  One plain failure among the
        # refusals keeps it unavailable and degraded.
        older, newer = generations
        backends = [
            InProcessBackend(f"b{i}", SliceProvider(lambda name: (newer, 8)))
            for i in range(2)
        ]
        if other == "error":
            backends[1].fail_requests = 1
        frontier = FrontierExecutor(
            [BackendNode(b, CircuitBreaker(failure_threshold=3)) for b in backends],
            groups=1, replicas=2,
        )
        expr = parse("speech")
        expected = Evaluator("indexed").evaluate(expr, older)
        try:
            result, stats = frontier.query(
                "play", expr, lambda: Evaluator("indexed").evaluate(expr, older),
                floor=7,
            )
        finally:
            frontier.close()
        assert list(result) == list(expected)
        assert (stats.fallback, stats.degraded) == (fallback, degraded)


class TestHedging:
    def test_slow_primary_is_hedged(self, instance):
        frontier, nodes = make_frontier(
            instance, hedge_budget=1.0, hedge_min_seconds=0.02
        )
        try:
            expr = parse("speech dwithin scene")
            expected = Evaluator("indexed").evaluate(expr, instance)
            primary = frontier.replicas_for("play", 0)[0]
            primary.backend.inject_latency = 0.3
            result, stats = frontier.run("play", expr)
            assert list(result) == list(expected)
            assert stats.hedges >= 1
            assert stats.hedge_wins >= 1
        finally:
            frontier.close()

    def test_budget_zero_never_hedges(self, instance):
        frontier, nodes = make_frontier(
            instance, hedge_budget=0.0, hedge_min_seconds=0.02
        )
        try:
            expr = parse("speech dwithin scene")
            primary = frontier.replicas_for("play", 0)[0]
            primary.backend.inject_latency = 0.1
            _, stats = frontier.run("play", expr)
            assert stats.hedges == 0
        finally:
            frontier.close()


class TestIntrospection:
    def test_placement_covers_every_group(self, instance):
        frontier, _ = make_frontier(instance)
        try:
            placement = frontier.placement(["play"])
            assert set(placement["play"]) == {"0", "1"}
            for replicas in placement["play"].values():
                assert len(replicas) == 2
                assert len(set(replicas)) == 2
        finally:
            frontier.close()

    def test_snapshot_shape(self, instance):
        frontier, _ = make_frontier(instance)
        try:
            frontier.run("play", parse("speech dwithin scene"))
            snapshot = frontier.snapshot()
            assert snapshot["groups"] == 2
            assert snapshot["replicas"] == 2
            assert len(snapshot["nodes"]) == 3
            assert all("breaker" in node for node in snapshot["nodes"])
            assert snapshot["hedge"]["primaries"] >= 1
        finally:
            frontier.close()


class TestDeadline:
    def test_expired_deadline_reports_the_callers_budget(self, instance):
        frontier, _ = make_frontier(instance)
        try:
            with pytest.raises(QueryTimeout) as info:
                frontier.run("play", parse("speech dwithin scene"), deadline=1e-9)
        finally:
            frontier.close()
        assert info.value.budget == 1e-9
        assert info.value.elapsed >= 1e-9


class TestLocalFallback:
    def evaluate_locally(self, instance, expr):
        return lambda: Evaluator("indexed").evaluate(expr, instance)

    def test_unavailable_group_is_answered_locally_and_degraded(self, instance):
        frontier, _ = make_frontier(instance)
        try:
            expr = parse("speech dwithin scene")
            for node in frontier.replicas_for("play", 0):
                node.backend.fail_requests = 10
            result, stats = frontier.query(
                "play", expr, self.evaluate_locally(instance, expr)
            )
        finally:
            frontier.close()
        assert list(result) == list(Evaluator().evaluate(expr, instance))
        assert (stats.fallback, stats.degraded) == ("unavailable", True)
        assert "play" in stats.detail

    def test_unsupported_plan_is_answered_locally(self, instance):
        frontier, _ = make_frontier(instance)
        try:
            # No text behind the word index of a slice that only the
            # caller can see: a canned refusal stands in for it.
            def refuse(*args, **kwargs):
                raise BackendUnsupportedError("refused")

            for node in frontier.nodes:
                node.backend.shard_query = refuse
            expr = parse("speech")
            result, stats = frontier.query(
                "play", expr, self.evaluate_locally(instance, expr)
            )
        finally:
            frontier.close()
        assert len(result) == len(instance.region_set("speech"))
        assert (stats.fallback, stats.degraded) == ("unsupported", False)
        assert frontier.last_stats is stats

    def test_known_reason_calls_no_backend(self, instance):
        frontier, nodes = make_frontier(instance)
        try:
            expr = parse("speech")
            _, stats = frontier.query(
                "play", expr, self.evaluate_locally(instance, expr),
                fallback="single_segment",
            )
        finally:
            frontier.close()
        assert stats.fallback == "single_segment"
        assert sum(node.requests for node in nodes.values()) == 0


class TestSpans:
    def traced_frontier(self, instance):
        frontier, nodes = make_frontier(instance)
        frontier.tracer = Tracer(enabled=True)
        return frontier, nodes

    def test_merge_span_is_recorded(self, instance):
        frontier, _ = self.traced_frontier(instance)
        try:
            with frontier.tracer.span("request"):
                result, _ = frontier.run("play", parse("speech dwithin scene"))
            root = frontier.tracer.last_root
        finally:
            frontier.close()
        merges = [span for span in root.walk() if span.name == "shard.merge"]
        assert len(merges) == 1
        assert merges[0].attributes["cardinality"] == len(result)

    def test_rpc_fault_leaves_a_fault_marked_span(self, instance):
        frontier, _ = self.traced_frontier(instance)
        try:
            with injected_faults(FaultSpec("backend.rpc", "error", max_fires=1)):
                with frontier.tracer.span("request"):
                    _, stats = frontier.run("play", parse("speech dwithin scene"))
            root = frontier.tracer.last_root
        finally:
            frontier.close()
        assert stats.failovers == 1
        marked = [
            span for span in root.walk()
            if span.name == "backend.rpc" and span.attributes.get("fault")
        ]
        assert len(marked) == 1
        assert marked[0].attributes["group"] == 0
