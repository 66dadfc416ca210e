"""Deadline and trace propagation across the HTTP backend hop.

A real ``QueryHTTPServer`` plays the backend; an
:class:`~repro.backend.httpclient.HTTPBackend` calls its
``POST /shard/query``.  The deadline must expire *remotely* (the
backend's cooperative evaluator abort, surfaced as 504 → QueryTimeout),
and the backend's span subtree must come back for adoption."""

import http.client
import json
import statistics
from time import monotonic, perf_counter

import pytest

from repro.backend.httpclient import HTTPBackend
from repro.errors import BackendError, QueryTimeout
from repro.server import CorpusSpec, QueryService, ServerConfig
from repro.server.http import create_server

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=2)

QUERY = 'scene containing (line @ "love")'


@pytest.fixture(scope="module")
def served():
    service = QueryService(
        ServerConfig(
            workers=2,
            queue_depth=8,
            cache_enabled=False,
            corpora=(PLAY,),
            tracing=True,
            trace_sample_rate=1.0,
        )
    )
    server = create_server(service, port=0)
    server.serve_in_background()
    backend = HTTPBackend("bx", "127.0.0.1", server.bound_port)
    yield service, server, backend
    backend.close()
    server.stop()
    service.close()


class TestDeadlinePropagation:
    def test_generous_deadline_succeeds(self, served):
        service, _, backend = served
        engine = service._handle("play").engine
        expected = [[r.left, r.right] for r in engine.query(QUERY)]
        result = backend.shard_query(
            "play", 0, 1, [QUERY], "sets", {}, deadline=10.0
        )
        assert result.payload[0] == expected
        assert result.generation == 1

    def test_expired_deadline_times_out_remotely(self, served):
        _, _, backend = served
        started = monotonic()
        with pytest.raises(QueryTimeout):
            backend.shard_query(
                "play", 0, 1, [QUERY], "sets", {}, deadline=0.0000001
            )
        # The remote abort answers promptly — nothing waits out the
        # socket timeout.
        assert monotonic() - started < 2.0

    def test_malformed_deadline_header_is_ignored(self, served):
        _, server, _ = served
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.bound_port, timeout=10.0
        )
        try:
            connection.request(
                "POST",
                "/shard/query",
                body=json.dumps(
                    {
                        "corpus": "play",
                        "group": 0,
                        "groups": 1,
                        "queries": [QUERY],
                        "want": "sets",
                        "bounds": {},
                    }
                ),
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Deadline": "bogus",
                    "X-Repro-Trace": "{not json",
                },
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 200
        assert body["payload"]


class TestTracePropagation:
    def test_span_subtree_comes_back(self, served):
        _, _, backend = served
        trace = {"trace_id": "deadbeefdeadbeef", "span_id": 7, "sampled": True}
        result = backend.shard_query(
            "play", 0, 2, [QUERY], "sets", {}, trace=trace
        )
        span = result.span
        assert span is not None
        assert span["name"] == "backend.query"
        assert span["attributes"]["group"] == 0
        assert span["attributes"]["groups"] == 2
        assert span["duration"] >= 0.0

    def test_span_adoptable_by_a_frontier_tracer(self, served):
        from repro.obs.trace import span_from_dict

        _, _, backend = served
        trace = {"trace_id": "deadbeefdeadbeef", "span_id": 7, "sampled": True}
        result = backend.shard_query(
            "play", 0, 1, [QUERY], "sets", {}, trace=trace
        )
        rebuilt = span_from_dict(result.span)
        assert rebuilt.name == "backend.query"

    def test_no_trace_still_answers(self, served):
        service, _, backend = served
        engine = service._handle("play").engine
        expected = [[r.left, r.right] for r in engine.query(QUERY)]
        result = backend.shard_query("play", 0, 1, [QUERY], "sets", {})
        assert result.payload[0] == expected


class TestHopLatency:
    def test_shard_hop_is_under_the_delayed_ack_stall(self, served):
        # The hop pays ~40 ms whenever either side lets a small segment
        # wait on the other's delayed ACK.  The server answers in one
        # segment; the request side is stdlib ``http.client``, which
        # sets TCP_NODELAY in ``connect`` — HTTPBackend adds nothing.
        _, _, backend = served
        backend.shard_query("play", 0, 1, ["scene"], "sets", {})  # connect
        seconds = []
        for _ in range(20):
            started = perf_counter()
            backend.shard_query("play", 0, 1, ["scene"], "sets", {})
            seconds.append(perf_counter() - started)
        assert statistics.median(seconds) < 0.010


class TestTransportErrors:
    def test_dead_port_raises_backend_error(self):
        backend = HTTPBackend("bx", "127.0.0.1", 1)  # nothing listens here
        with pytest.raises(BackendError):
            backend.shard_query("play", 0, 1, [QUERY], "sets", {})
