"""The HTTP front end, exercised over real sockets on a free port."""

import contextlib
import http.client
import json
import re
import socket
import statistics
from time import perf_counter

import pytest

from repro.errors import ReproError
from repro.obs.metrics import SERVER_REQUESTS_TOTAL
from repro.server import (
    CorpusSpec,
    QueryService,
    ServerConfig,
    create_server,
    render_prometheus,
)
from repro.server.http import _Handler
from tests.server.test_pool import Blocker

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=2)


@pytest.fixture(scope="module")
def server():
    service = QueryService(
        ServerConfig(workers=2, queue_depth=4, corpora=(PLAY,))
    )
    srv = create_server(service, port=0)
    srv.serve_in_background()
    yield srv
    srv.stop()


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
        return response.status, dict(response.getheaders()), decoded
    finally:
        connection.close()


@contextlib.contextmanager
def keep_alive(server):
    """One HTTP/1.1 connection; ``send(method, path, body)`` returns
    ``(status, headers, decoded body)`` and leaves it open."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.bound_port, timeout=10
    )

    def send(method, path, body=None):
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), json.loads(raw)

    try:
        yield send
    finally:
        connection.close()


@contextlib.contextmanager
def saturated(service):
    """Every worker and queue slot (2 + 4) held until exit."""
    blocker = Blocker(service.pool)
    for _ in range(2):
        blocker.start()
    try:
        for _ in range(2):
            assert blocker.running.acquire(timeout=5)
        for _ in range(4):
            blocker.start()
        blocker.wait_waiting(4)
        yield
    finally:
        blocker.finish()


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "healthy"

    def test_post_query(self, server):
        status, _, body = request(
            server, "POST", "/query", {"query": "speech dwithin scene"}
        )
        assert status == 200
        assert body["corpus"] == "play"
        assert body["cardinality"] == len(body["regions"]) > 0

    def test_get_query_matches_post(self, server):
        _, _, posted = request(
            server, "POST", "/query", {"query": "scene within act"}
        )
        status, _, got = request(
            server, "GET", "/query?q=scene%20within%20act"
        )
        assert status == 200
        assert got["regions"] == posted["regions"]

    def test_explain(self, server):
        status, _, body = request(
            server,
            "POST",
            "/explain",
            {"query": "line within speech within scene"},
        )
        assert status == 200
        assert "plan" in body and "regions" not in body

    def test_explain_word_query_over_a_rig_corpus(self, tmp_path):
        # A source corpus carries the Figure 1 RIG, so /explain prunes;
        # its optimized plan must answer as the query does.
        program = tmp_path / "main.pas"
        program.write_text(
            "program Main { var x; proc Alpha { var y; proc Beta { var x; } } }"
        )
        spec = CorpusSpec(name="src", kind="source", path=str(program))
        srv = create_server(QueryService(ServerConfig(corpora=(spec,))), port=0)
        srv.serve_in_background()
        try:
            query = '(Var containing Proc) union ("x" within Var)'
            status, _, explained = request(
                srv, "POST", "/explain", {"query": query}
            )
            assert status == 200, explained
            (line,) = [
                line for line in explained["plan"].splitlines()
                if line.startswith("plan:")
            ]
            optimized = line[len("plan:"):].strip()
            _, _, plain = request(srv, "POST", "/query", {"query": query})
            status, _, pruned = request(
                srv, "POST", "/query", {"query": optimized}
            )
            assert status == 200
            assert plain["cardinality"] > 0
            assert pruned["regions"] == plain["regions"]
        finally:
            srv.stop()

    def test_corpora_listing_and_reload(self, server):
        status, _, body = request(server, "GET", "/corpora")
        assert status == 200
        (info,) = body["corpora"]
        assert info["name"] == "play"
        generation = info["generation"]

        status, _, body = request(server, "POST", "/corpora/play/reload")
        assert status == 200
        assert body["generation"] == generation + 1

    def test_metrics_json_and_prometheus(self, server):
        request(server, "POST", "/query", {"query": "speech dwithin scene"})
        status, _, body = request(server, "GET", "/metrics")
        assert status == 200
        assert "server_requests_total" in body["metrics"]["counters"]

        status, headers, text = request(
            server, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE server_requests_total counter" in text
        assert 'endpoint="query"' in text


class TestErrorMapping:
    def test_400_on_parse_error(self, server):
        status, _, body = request(
            server, "POST", "/query", {"query": "speech within within"}
        )
        assert status == 400
        assert "error" in body

    def test_400_on_missing_query(self, server):
        status, _, _ = request(server, "POST", "/query", {})
        assert status == 400
        status, _, _ = request(server, "GET", "/query")
        assert status == 400

    def test_400_on_bad_json(self, server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.bound_port, timeout=10
        )
        try:
            connection.request(
                "POST",
                "/query",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 400
        finally:
            connection.close()

    def test_404_on_unknown_corpus_and_path(self, server):
        status, _, _ = request(
            server, "POST", "/query", {"query": "speech", "corpus": "nope"}
        )
        assert status == 404
        status, _, _ = request(server, "GET", "/no/such/endpoint")
        assert status == 404

    def test_504_on_timeout(self, server):
        status, _, body = request(
            server,
            "POST",
            "/query",
            {
                "query": "line within speech within scene",
                "deadline": 1e-6,
                "use_cache": False,
            },
        )
        assert status == 504
        assert body["budget"] == pytest.approx(1e-6)

    def test_429_with_retry_after_under_saturation(self, server):
        with saturated(server.service):
            status, headers, body = request(
                server,
                "POST",
                "/query",
                {"query": "speech dwithin scene", "use_cache": False},
            )
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert body["retry_after"] > 0


def _error_classes():
    """Every public error class of the library, base first."""
    classes, stack = [ReproError], [ReproError]
    while stack:
        for cls in stack.pop().__subclasses__():
            if not cls.__name__.startswith("_") and cls not in classes:
                classes.append(cls)
                stack.append(cls)
    return classes


#: Constructor arguments for the classes that take more than a message.
_ERROR_ARGS = {
    "UnknownRegionNameError": ("x",),
    "QueryTimeout": (1.0,),
    "CorpusUnavailableError": ("c",),
    "FaultInjected": ("p",),
    "ReplicaLaggingError": ("c", 1, 2),
    "BackendUnavailableError": ("c", 0),
    "IngestUnreplicatedError": ("c",),
    "UnknownCorpusError": ("x", ()),
}


class TestStatusTable:
    """One table: the status is the exception class's, for the response
    and for the request metrics alike, and the docs print the same."""

    @pytest.fixture(scope="class")
    def raising(self):
        """A server whose next query raises ``holder[0]`` from inside
        ``execute`` (a private server: injected failures feed health)."""
        service = QueryService(ServerConfig(corpora=(PLAY,)))
        holder = [None]

        def _execute(*_args, **_kwargs):
            raise holder[0]

        service._execute = _execute
        srv = create_server(service, port=0)
        srv.serve_in_background()
        yield srv, holder
        srv.stop()

    def answer(self, raising, exc):
        srv, holder = raising
        holder[0] = exc
        counter = srv.service.telemetry.metrics.counter(SERVER_REQUESTS_TOTAL)
        before = counter.snapshot()
        status, _, body = request(srv, "POST", "/query", {"query": "speech"})
        after = counter.snapshot()
        (label,) = [k for k in after if after[k] != before.get(k, 0)]
        return status, body, label

    def test_codes_are_unique(self):
        codes = [cls.code for cls in _error_classes()]
        assert len(set(codes)) == len(codes)
        assert len(codes) > 25  # the walk found the hierarchy

    @pytest.mark.parametrize(
        "cls", _error_classes(), ids=lambda cls: cls.__name__
    )
    def test_response_and_metric_agree_with_the_class(self, raising, cls):
        exc = cls(*_ERROR_ARGS.get(cls.__name__, ("boom",)))
        status, body, label = self.answer(raising, exc)
        assert status == cls.status
        assert body["code"] == cls.code
        assert label == f"endpoint=query,status={cls.status}"

    def test_unexpected_exception_is_500_in_both(self, raising):
        status, body, label = self.answer(raising, RuntimeError("bug"))
        assert status == 500
        assert body["code"] == "internal"
        assert label == "endpoint=query,status=500"

    def test_docs_table_matches(self):
        from pathlib import Path

        text = (
            Path(__file__).resolve().parents[2] / "docs" / "server.md"
        ).read_text(encoding="utf-8")
        table = text[text.index("## Error codes") : text.index("## How a request")]
        documented = {}
        for row in re.findall(r"^\| (`[^|]+) \| (\d+) \|", table, re.M):
            for code in re.findall(r"`(\w+)`", row[0]):
                documented[code] = int(row[1])
        for cls in _error_classes():
            if cls is not ReproError:  # its row is the non-library 500
                assert documented[cls.code] == cls.status, cls.__name__
        assert documented["internal"] == 500
        assert documented["invalid_request"] == 400


class TestBodyFraming:
    """A POST's body is consumed whatever the route does with it, so the
    next request on the connection is parsed from its own first byte."""

    @pytest.mark.parametrize("path, status", [("/nope", 404), ("/corpora/play/reload", 200)])
    def test_unread_body_does_not_desync_keep_alive(self, server, path, status):
        with keep_alive(server) as send:
            first, _, body = send("POST", path, {"query": "speech", "pad": "x" * 64})
            assert first == status
            assert (body.get("code") == "not_found") == (status == 404)
            second, headers, body = send("POST", "/query", {"query": "speech"})
            assert second == 200
            assert headers["Content-Type"] == "application/json"
            assert body["cardinality"] > 0

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_and_closes(self, server, length):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.bound_port, timeout=10
        )
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["code"] == "invalid_request"
            assert "Content-Length" in body["error"]
            # Unframeable: the server hangs up after answering.
            assert connection.sock.recv(1) == b""
        finally:
            connection.close()


class _RecordingWriter:
    """The handler's ``wfile``, logging each ``write`` (= one
    ``sendall`` on the unbuffered socket writer)."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(monkeypatch):
    """Records, for connections accepted while it is active, every
    server-side write and each accepted socket's TCP_NODELAY."""
    log = {"writes": [], "nodelay": []}
    setup = _Handler.setup

    def recording_setup(self):
        setup(self)
        log["nodelay"].append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        self.wfile = _RecordingWriter(self.wfile, log["writes"])

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    return log


class TestLatencyFloor:
    """Headers and body sent apart cost every response the client's
    ~40 ms delayed ACK (Nagle holds the second segment): one write per
    response, on a TCP_NODELAY socket, and a bound that notices."""

    def assert_one_write(self, wire):
        (sent,) = wire["writes"]
        head, _, payload = sent.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 ")
        # … and it is the whole response.
        assert f"Content-Length: {len(payload)}\r\n".encode() in head + b"\r\n"
        wire["writes"].clear()

    def test_one_write_per_response(self, server, wire):
        status, _, _ = request(server, "POST", "/query", {"query": "speech"})
        assert status == 200
        self.assert_one_write(wire)

        status, _, body = request(server, "POST", "/query", {"query": "within"})
        assert status == 400 and body["code"]
        self.assert_one_write(wire)

        status, _, _ = request(server, "POST", "/nope", {"query": "speech"})
        assert status == 404
        self.assert_one_write(wire)

        with saturated(server.service):
            status, headers, _ = request(
                server, "POST", "/query", {"query": "speech", "use_cache": False}
            )
        assert status == 429 and "Retry-After" in headers
        self.assert_one_write(wire)

        status, headers, _ = request(server, "GET", "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        self.assert_one_write(wire)

    def test_accepted_sockets_have_nodelay(self, server, wire):
        request(server, "GET", "/healthz")
        assert wire["nodelay"] and all(wire["nodelay"])

    def test_keep_alive_round_trip_is_under_the_stall(self, server):
        with keep_alive(server) as send:
            send("POST", "/query", {"query": "speech dwithin scene"})  # warm
            seconds = []
            for _ in range(20):
                started = perf_counter()
                status, _, _ = send(
                    "POST", "/query", {"query": "speech dwithin scene"}
                )
                seconds.append(perf_counter() - started)
                assert status == 200
        # The stall is a kernel-deterministic ~40 ms per response; a
        # cached loopback round trip is ~1 ms.
        assert statistics.median(seconds) < 0.010


class TestPrometheusRendering:
    def test_renders_all_instrument_kinds(self):
        snapshot = {
            "metrics": {
                "counters": {
                    "requests_total": {"endpoint=query,status=200": 3.0}
                },
                "gauges": {"inflight": {"": 1.0}},
                "histograms": {
                    "latency": {
                        "": {
                            "count": 2,
                            "sum": 0.3,
                            "buckets": {"0.1": 1, "1.0": 1, "+inf": 0},
                        }
                    }
                },
            }
        }
        text = render_prometheus(snapshot)
        assert (
            'requests_total{endpoint="query",status="200"} 3.0' in text
        )
        assert "inflight 1.0" in text
        # Buckets are cumulative and the +inf bucket equals the count.
        assert 'latency_bucket{le="0.1"} 1' in text
        assert 'latency_bucket{le="1.0"} 2' in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert "latency_sum 0.3" in text
        assert "latency_count 2" in text
