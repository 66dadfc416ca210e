"""Executor behavior: cancellation, deadlines, faults, fallbacks, stats."""

import random
import threading

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.engine.corpus import Corpus
from repro.errors import EvaluationError, QueryCancelled, QueryTimeout, ReproError
from repro.faults.registry import FaultSpec, injected_faults
from repro.shard import ShardExecutor
from repro.workloads.corpora import generate_play
from repro.workloads.generators import random_instance


@pytest.fixture(scope="module")
def corpus_instance():
    rng = random.Random(42)
    corpus = Corpus()
    for i in range(5):
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


QUERY = "speech containing (speaker before line)"


class TestCancellation:
    def test_parent_token_reaches_worker_thread_evaluation(self):
        """Regression: the evaluator's deadline/cancel state lives in a
        thread-local, so a token set by the parent thread must still
        abort an evaluation running on a *different* thread — the token
        travels as an argument, not through the thread-local."""
        instance = random_instance(random.Random(0), max_nodes=40)
        token = threading.Event()
        token.set()  # cancelled before the worker even starts
        evaluator = Evaluator("indexed")
        outcome = {}

        def worker():
            try:
                evaluator.evaluate(
                    parse("(R0 before R1) union R2"), instance, cancel=token
                )
                outcome["result"] = "completed"
            except QueryCancelled:
                outcome["result"] = "cancelled"

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert outcome["result"] == "cancelled"

    def test_pre_cancelled_token_aborts_sharded_run(self, corpus_instance):
        token = threading.Event()
        token.set()
        with ShardExecutor(corpus_instance, 4, pool="thread") as executor:
            with pytest.raises(QueryCancelled):
                executor.run(parse(QUERY), cancel=token)
            assert executor.last_stats.nodes_used == []

    def test_cancel_during_run_aborts_shard_tasks(self, corpus_instance):
        """A token set while a sharded run is in flight stops it at the
        next call attempt."""
        token = threading.Event()
        with ShardExecutor(corpus_instance, 4, pool="thread") as executor:
            timer = threading.Timer(0.0, token.set)
            timer.start()
            try:
                with pytest.raises(QueryCancelled):
                    # Repeat to make the race window essentially certain.
                    for _ in range(200):
                        executor.run(parse(QUERY), cancel=token)
                        if token.is_set():
                            raise QueryCancelled()
            finally:
                timer.join()

    def test_zero_deadline_times_out(self, corpus_instance):
        with ShardExecutor(corpus_instance, 4) as executor:
            with pytest.raises(QueryTimeout):
                executor.run(parse(QUERY), deadline=0.0)

    @pytest.mark.parametrize("shards", [1, 4])  # local path, scatter
    def test_expired_deadline_reports_the_callers_budget(
        self, corpus_instance, shards
    ):
        with ShardExecutor(corpus_instance, shards) as executor:
            with pytest.raises(QueryTimeout) as info:
                executor.run(parse(QUERY), deadline=1e-9)
        assert info.value.budget == 1e-9
        assert info.value.elapsed is not None and info.value.elapsed >= 1e-9

    def test_negative_deadline_rejected(self, corpus_instance):
        with ShardExecutor(corpus_instance, 2) as executor:
            with pytest.raises(EvaluationError):
                executor.run(parse(QUERY), deadline=-1.0)


class TestFaults:
    def test_single_failure_is_retried(self, corpus_instance):
        # The failed call fails over to the group's sibling replica.
        expected = Evaluator("indexed").evaluate(parse(QUERY), corpus_instance)
        with injected_faults(
            FaultSpec("backend.rpc", "error", max_fires=1)
        ) as registry:
            with ShardExecutor(corpus_instance, 4) as executor:
                result = executor.run(parse(QUERY))
                stats = executor.last_stats
        assert registry.fires(point="backend.rpc") == 1
        assert list(result) == list(expected)
        assert stats.failovers == 1
        assert stats.fallback is None
        assert not stats.degraded

    def test_double_failure_degrades_to_single_shard(self, corpus_instance):
        expected = Evaluator("indexed").evaluate(parse(QUERY), corpus_instance)
        with injected_faults(
            FaultSpec("backend.rpc", "error", max_fires=2)
        ):
            with ShardExecutor(corpus_instance, 4) as executor:
                result = executor.run(parse(QUERY))
                stats = executor.last_stats
        assert list(result) == list(expected)
        assert stats.fallback == "unavailable"
        assert stats.degraded

    def test_persistent_faults_still_answer(self, corpus_instance):
        # Probability 1.0 on every call: both replicas of group 0 fail,
        # the query degrades — and local evaluation (no backend.rpc
        # point) still returns the right answer.
        expected = Evaluator("indexed").evaluate(parse(QUERY), corpus_instance)
        with injected_faults(FaultSpec("backend.rpc", "error")):
            with ShardExecutor(corpus_instance, 4) as executor:
                result = executor.run(parse(QUERY))
                assert executor.last_stats.degraded
        assert list(result) == list(expected)

    def test_unknown_point_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec("shard.nonsense", "error")


class TestFallbacks:
    def test_single_root_falls_back(self):
        rng = random.Random(7)
        corpus = Corpus()
        corpus.add(
            generate_play(
                rng, acts=1, scenes_per_act=1, speeches_per_scene=2,
                lines_per_speech=2,
            )
        )
        instance = corpus.engine().instance
        with ShardExecutor(instance, 4) as executor:
            result = executor.run(parse("speech containing speaker"))
            assert executor.last_stats.fallback == "single_segment"
        assert len(result) == 2

    def test_label_index_match_points_fall_back(self):
        from repro.workloads.generators import TreeNode, instance_from_trees

        instance = instance_from_trees(
            [
                TreeNode("R0", [TreeNode("R1", labels=frozenset({"x"}))]),
                TreeNode("R0", [TreeNode("R1")]),
            ]
        )
        with ShardExecutor(instance, 2) as executor:
            # Match points need a text-backed index; single-shard raises
            # the same error the caller would see unsharded.
            with pytest.raises(EvaluationError):
                executor.run(parse('R0 containing "x"'))
            assert executor.last_stats.fallback == "unsupported"

    def test_invalid_pool_rejected(self, corpus_instance):
        with pytest.raises(ReproError):
            ShardExecutor(corpus_instance, 2, pool="fibers")


class TestStats:
    def test_phase_accounting(self, corpus_instance):
        with ShardExecutor(corpus_instance, 4) as executor:
            executor.run(parse("(speaker before line) union speech"))
            stats = executor.last_stats
        assert stats.groups == 4
        assert stats.rounds == 1
        # One exchange phase + the final scatter, 4 call timings each.
        assert len(stats.phase_seconds) == 2
        assert all(len(phase) == 4 for phase in stats.phase_seconds)
        assert all(seconds > 0 for phase in stats.phase_seconds for seconds in phase)
        assert stats.critical_path_seconds() >= stats.merge_seconds

    def test_stats_are_per_thread(self, corpus_instance):
        with ShardExecutor(corpus_instance, 2) as executor:
            executor.run(parse("speech"))
            seen = {}

            def other():
                seen["stats"] = executor.last_stats

            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            assert executor.last_stats is not None
            assert seen["stats"] is None


class TestOneScatterGather:
    def test_executor_module_starts_no_thread_or_process(self):
        import ast
        from pathlib import Path

        import repro.shard.executor as module

        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        forbidden = {"concurrent.futures", "threading", "contextvars", "multiprocessing"}
        assert not imported & forbidden

    def test_sharded_engine_query_reaches_the_frontier(self, monkeypatch):
        from repro.backend.frontier import FrontierExecutor
        from repro.engine.session import Engine

        calls = []
        run = FrontierExecutor.run

        def recording_run(self, *args, **kwargs):
            calls.append(args[0])
            return run(self, *args, **kwargs)

        monkeypatch.setattr(FrontierExecutor, "run", recording_run)
        rng = random.Random(3)
        text = "\n".join(generate_play(rng, acts=1) for _ in range(3))
        engine = Engine.from_tagged_text(text)
        with ShardExecutor(engine.instance, 2) as executor:
            result = executor.run("speech containing (speaker before line)")
        assert len(calls) == 1
        assert len(result) == len(
            Engine.from_tagged_text(text).query(
                "speech containing (speaker before line)"
            )
        )
