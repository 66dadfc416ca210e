"""The shard boundary: what crosses from a slice to the frontier's merge.

In-process a ``want="sets"`` answer is the slice result's own endpoint
arrays (:class:`~repro.backend.base.PairColumns`); from a socket it is
the JSON pair list ``/shard/query`` encodes, decoded by the frontier in
one validated pass.  Both must give the single-process answer, neither
may build a ``Region`` on the in-process path, and groups whose
replicas do not wait run on the caller's thread.
"""

import dataclasses
import json
import random
import threading

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.backend.base import BackendResult, ShardBackend, SliceProvider
from repro.backend.frontier import BackendNode, FrontierExecutor
from repro.backend.inprocess import InProcessBackend
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.engine.session import Engine
from repro.errors import BackendUnsupportedError, InvalidRegionError
from repro.faults.retry import CircuitBreaker
from repro.workloads.corpora import generate_play
from repro.workloads.generators import random_text_instance
from tests.properties.test_vm_equivalence import TEXT_QUERIES, random_text_expression

#: The benchmark mix's seven templates.
MIX_QUERIES = (
    "speech containing (speaker before line)",
    "(speech containing line) isect (speech after scene)",
    "line within (speech within (scene within act))",
    "(speech dwithin scene) union (line within speech)",
    'scene containing ("love" within line)',
    '(speech containing line) except (speech containing (line @ "love"))',
    "bi(scene, speaker, line)",
)


class WireBackend(InProcessBackend):
    """An in-process backend answering in the HTTP transport's shape:
    the payload as ``/shard/query`` encodes it, through JSON and back."""

    def shard_query(self, *args, **kwargs):
        result = super().shard_query(*args, **kwargs)
        wire = json.loads(json.dumps([list(entry) for entry in result.payload]))
        return dataclasses.replace(result, payload=wire)


class CannedBackend(ShardBackend):
    """Answers every call with the same wire rows."""

    node_id = "canned"

    def __init__(self, rows):
        self.rows = rows

    def shard_query(self, corpus, group, groups, queries, want, bounds,
                    deadline=None, trace=None, floor=0):
        return BackendResult(payload=[self.rows], generation=1, seconds=0.0)


class ThreadRecordingBackend(InProcessBackend):
    """Notes the thread every call runs on."""

    def __init__(self, node_id, slices, threads):
        super().__init__(node_id, slices)
        self.threads = threads

    def shard_query(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return super().shard_query(*args, **kwargs)


def make_frontier(instance, groups, backend=InProcessBackend, nodes=2, **kwargs):
    provider = SliceProvider(lambda corpus: (instance, 1))
    return FrontierExecutor(
        [
            BackendNode(backend(f"b{i}", provider, **kwargs), CircuitBreaker())
            for i in range(nodes)
        ],
        groups=groups,
    )


@pytest.fixture(scope="module")
def plays():
    rng = random.Random(25)
    text = "\n".join(generate_play(rng, acts=2) for _ in range(4))
    return Engine.from_tagged_text(text).instance


class TestBothCodecs:
    @pytest.mark.parametrize("backend", [InProcessBackend, WireBackend])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_frontier_matches_single_process(self, backend, groups):
        rng = random.Random(groups)
        answered = 0
        for case in range(15):
            instance = random_text_instance(rng)
            frontier = make_frontier(instance, groups, backend)
            exprs = [random_text_expression(rng) for _ in range(4)]
            exprs += [parse(query) for query in TEXT_QUERIES]
            try:
                for expr in exprs:
                    expected = Evaluator("naive").evaluate(expr, instance)
                    try:
                        result, _ = frontier.run("play", expr)
                    except BackendUnsupportedError:
                        continue
                    answered += 1
                    assert result.pairs() == expected.pairs(), (case, expr)
            finally:
                frontier.close()
        assert answered >= 150

    @pytest.mark.parametrize("backend", [InProcessBackend, WireBackend])
    def test_mix_over_plays(self, plays, backend):
        frontier = make_frontier(plays, 2, backend)
        try:
            for query in MIX_QUERIES:
                expected = Evaluator().evaluate(parse(query), plays)
                result, _ = frontier.run("play", parse(query))
                assert result.pairs() == expected.pairs(), query
        finally:
            frontier.close()


class TestWireDecode:
    """Today's acceptance for a JSON pair list, which is what building
    ``RegionSet(Region(int(l), int(r)) for l, r in rows)`` enforced."""

    def decode(self, rows):
        frontier = FrontierExecutor(
            [BackendNode(CannedBackend(rows), CircuitBreaker())], groups=1
        )
        try:
            result, _ = frontier.run("play", parse("speech"))
        finally:
            frontier.close()
        return result

    def test_float_and_str_endpoints_are_coerced(self):
        rows = [[1.0, "4"], ["6", 9.7]]
        assert self.decode(rows).pairs() == [(1, 4), (6, 9)]

    def test_left_after_right_is_rejected(self):
        with pytest.raises(InvalidRegionError):
            self.decode([[0, 3], [5, 2]])

    @pytest.mark.parametrize(
        "rows",
        [
            [[6, 9], [1, 4], [6, 9], [1, 2]],
            [[1, 4], [1, 4]],
            [[5, 9], [5, 7], [0, 20]],
        ],
    )
    def test_unsorted_or_duplicated_rows_are_canonicalised(self, rows):
        result = self.decode(rows)
        old = RegionSet(Region(int(l), int(r)) for l, r in rows)
        assert result == old
        assert list(map(tuple, result.pairs())) == sorted(set(map(tuple, rows)))

    def test_canonical_rows_pass_through(self):
        assert self.decode([[0, 9], [1, 4], [6, 8]]).pairs() == [(0, 9), (1, 4), (6, 8)]


class TestInProcessBoundary:
    def test_no_region_is_built(self, plays, monkeypatch):
        frontier = make_frontier(plays, 2)
        try:
            for query in MIX_QUERIES:  # slices, postings, programs warm up
                frontier.run("play", parse(query))
            built = []
            post_init = Region.__post_init__
            monkeypatch.setattr(
                Region, "__post_init__", lambda r: (built.append(r), post_init(r))
            )
            for query in MIX_QUERIES:
                result, _ = frontier.run("play", parse(query))
                assert result._regions is None, query
                assert result.pairs()
            assert built == []
        finally:
            frontier.close()

    def test_groups_that_do_not_wait_run_on_the_calling_thread(self, plays):
        threads = []
        frontier = make_frontier(
            plays, 2, ThreadRecordingBackend, nodes=3, threads=threads
        )
        try:
            for query in MIX_QUERIES:
                frontier.run("play", parse(query))
        finally:
            frontier.close()
        assert threads and set(threads) == {threading.get_ident()}

    def test_groups_that_wait_go_to_the_pool(self, plays):
        threads = []
        frontier = make_frontier(
            plays, 2, ThreadRecordingBackend, nodes=3, threads=threads
        )
        for node in frontier.nodes:
            node.backend.inject_latency = 0.001
        try:
            frontier.run("play", parse(MIX_QUERIES[0]))
        finally:
            frontier.close()
        assert threading.get_ident() not in threads
