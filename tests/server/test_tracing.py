"""End-to-end request tracing: stitching, sampling, SLO wiring.

Drives the real service (in-process and over HTTP) on a tagged corpus
scattered through a two-group in-process topology — several
concatenated plays, so the partitioner has a forest to cut and one
request genuinely fans out to multiple shard groups.
"""

import http.client
import json
import random
import threading

import pytest

from repro.errors import FaultInjected
from repro.faults.registry import FaultRegistry, FaultSpec, activate, deactivate
from repro.server import CorpusSpec, QueryService, ServerConfig, create_server
from repro.workloads.corpora import generate_play


def multi_play_text(seed=5, plays=4, scale=2):
    rng = random.Random(seed)
    return "\n".join(
        generate_play(
            rng,
            acts=scale,
            scenes_per_act=scale,
            speeches_per_scene=2,
            lines_per_speech=2,
        )
        for _ in range(plays)
    )


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tracing") / "plays.tagged"
    path.write_text(multi_play_text(), encoding="utf-8")
    return path


def make_service(corpus_path, **overrides):
    spec = CorpusSpec(name="plays", kind="tagged", path=str(corpus_path))
    defaults = dict(
        workers=2,
        queue_depth=8,
        corpora=(spec,),
        backend_nodes=2,
        backend_groups=2,
        backend_mode="inprocess",
        tracing=True,
        trace_sample_rate=1.0,
    )
    defaults.update(overrides)
    return QueryService(ServerConfig(**defaults))


@pytest.fixture(scope="module")
def server(corpus_path):
    service = make_service(corpus_path)
    srv = create_server(service, port=0)
    srv.serve_in_background()
    yield srv
    srv.stop()
    service.close()


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.bound_port, timeout=10
    )
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError:
            decoded = raw.decode("utf-8")
        return response.status, decoded
    finally:
        connection.close()


def span_names(node, out=None):
    out = out if out is not None else []
    out.append(node["name"])
    for child in node.get("children", ()):
        span_names(child, out)
    return out


class TestStitchedTrace:
    def test_one_trace_crosses_http_pool_shards_and_merge(self, server):
        status, body = request(
            server,
            "POST",
            "/query",
            {"query": "speech dwithin scene", "use_cache": False},
        )
        assert status == 200
        trace_id = body["trace_id"]
        assert trace_id

        status, tree = request(server, "GET", f"/debug/trace/{trace_id}")
        assert status == 200
        assert tree["trace_id"] == trace_id
        root = tree["root"]
        assert root["name"] == "request"
        assert root["attributes"]["status"] == "200"

        names = span_names(root)
        assert "queue.wait" in names
        assert "shard.merge" in names
        assert any(name.startswith("eval.") for name in names)

        # The scatter really fanned out: >= 2 backend.query spans with
        # distinct group indices, all inside this one request tree.
        groups = {
            span["attributes"]["group"]
            for span in _walk(root)
            if span["name"] == "backend.query"
        }
        assert len(groups) >= 2

    def test_trace_listing_endpoint(self, server):
        request(
            server,
            "POST",
            "/query",
            {"query": "speech dwithin scene", "use_cache": False},
        )
        status, body = request(
            server, "GET", "/debug/traces?sort=slowest&limit=3"
        )
        assert status == 200
        assert body["stats"]["kept"] >= 1
        assert len(body["traces"]) >= 1
        row = body["traces"][0]
        assert set(row) >= {"trace_id", "duration", "reasons", "spans"}

    def test_unknown_trace_404(self, server):
        status, body = request(server, "GET", "/debug/trace/nope")
        assert status == 404
        assert body["code"] == "trace_not_found"

    def test_error_envelope_carries_trace_id(self, server):
        status, body = request(
            server, "POST", "/query", {"query": "speech within within"}
        )
        assert status == 400
        assert body["trace_id"]
        # The failed request's trace is retrievable too (sampled keep).
        status, _ = request(
            server, "GET", f"/debug/trace/{body['trace_id']}"
        )
        assert status == 200

    def test_exemplar_reaches_prometheus_exposition(self, server):
        _, body = request(
            server,
            "POST",
            "/query",
            {"query": "speech dwithin scene", "use_cache": False},
        )
        status, text = request(
            server, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        exemplar_lines = [
            line
            for line in text.splitlines()
            if line.startswith("server_request_seconds_bucket")
            and "# {trace_id=" in line
        ]
        assert exemplar_lines

    def test_slo_endpoint(self, server):
        status, body = request(server, "GET", "/slo")
        assert status == 200
        assert body["tracing"] is True
        assert set(body["objectives"]) == {"availability", "latency"}
        availability = body["objectives"]["availability"]
        assert availability["fast"]["samples"] >= 0
        assert "fast_burn_active" in availability


class TestSampling:
    def test_unsampled_clean_request_is_not_retained(self, corpus_path):
        service = make_service(corpus_path, trace_sample_rate=0.0)
        try:
            response = service.execute(
                "speech dwithin scene", use_cache=False
            )
            trace_id = response["trace_id"]
            assert trace_id  # the id is minted regardless of sampling
            assert service.traces.get(trace_id) is None
            assert service.traces.stats()["dropped"] == 1
        finally:
            service.close()

    def test_sampling_gates_eval_detail_not_skeleton(self, corpus_path):
        service = make_service(
            corpus_path, trace_sample_rate=0.0, trace_slow_seconds=1e-9
        )
        try:
            response = service.execute(
                "speech dwithin scene", use_cache=False
            )
            kept = service.traces.get(response["trace_id"])
            assert kept is not None  # tail-kept as slow
            names = [span.name for span in kept.root.walk()]
            assert "shard.merge" in names  # coarse skeleton survives
            assert names.count("backend.query") >= 2
            assert not any(name.startswith("eval.") for name in names)
        finally:
            service.close()

    def test_querylog_records_trace_id(self, corpus_path):
        service = make_service(corpus_path)
        try:
            response = service.execute(
                "speech dwithin scene", use_cache=False
            )
            assert "fallback" not in response["backend"]
            records = service._handle("plays").engine.query_log.records()
            assert records[-1].trace_id == response["trace_id"]
        finally:
            service.close()


class TestSLOPressure:
    def drive_errors(self, service, n=8):
        registry = FaultRegistry(seed=3)
        registry.arm(
            FaultSpec("evaluator.step", "error", probability=1.0)
        )
        activate(registry)
        try:
            for _ in range(n):
                with pytest.raises(Exception):
                    service.execute("speech dwithin scene", use_cache=False)
        finally:
            deactivate()

    def test_fast_burn_degrades_the_service(self, corpus_path):
        service = make_service(
            corpus_path,
            tracing=False,
            slo_burn_threshold=2.0,
            slo_min_samples=4,
        )
        try:
            assert service.health.state == "healthy"
            self.drive_errors(service)
            assert service.slo.fast_burn_active()["availability"] is True
            snapshot = service.health.snapshot()
            assert "slo:availability" in snapshot["pressure"]
            assert service.health.state in ("degraded", "unhealthy")
        finally:
            service.close()

    def test_shed_on_fast_burn_forces_unhealthy(self, corpus_path):
        service = make_service(
            corpus_path,
            tracing=False,
            slo_burn_threshold=2.0,
            slo_min_samples=4,
            slo_shed_on_fast_burn=True,
            # keep the rate-based classifier out of the way: the
            # pressure alone must force the state.
            health_min_samples=1000,
        )
        try:
            self.drive_errors(service)
            assert service.health.state == "unhealthy"
        finally:
            service.close()

    def test_burn_clears_and_pressure_lifts(self, corpus_path):
        service = make_service(
            corpus_path,
            tracing=False,
            slo_burn_threshold=2.0,
            slo_min_samples=4,
            slo_fast_window=0.2,
            slo_slow_window=0.2,
        )
        try:
            self.drive_errors(service)
            assert service.slo.fast_burn_active()["availability"] is True
            import time

            time.sleep(0.3)  # both windows drain
            service.slo.poll()
            assert service.slo.fast_burn_active()["availability"] is False
            assert "slo:availability" not in service.health.snapshot()["pressure"]
        finally:
            service.close()


class TestConcurrentTraces:
    def test_parallel_requests_get_distinct_complete_traces(self, corpus_path):
        service = make_service(corpus_path, workers=4, queue_depth=16)
        try:
            ids = []
            lock = threading.Lock()

            def run():
                response = service.execute(
                    "speech dwithin scene", use_cache=False
                )
                with lock:
                    ids.append(response["trace_id"])

            threads = [threading.Thread(target=run) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(set(ids)) == 8
            for trace_id in ids:
                kept = service.traces.get(trace_id)
                assert kept is not None
                names = [span.name for span in kept.root.walk()]
                # No cross-request leakage: each tree has exactly one
                # request root and its own merge.
                assert names.count("request") == 1
                assert "shard.merge" in names
        finally:
            service.close()


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)
