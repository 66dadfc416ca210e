"""The JSON/HTTP front end over :class:`~repro.server.QueryService`.

Stdlib-only: a :class:`http.server.ThreadingHTTPServer` whose handler
threads carry a request end to end — parsing, cache probe, admission,
and, inside the service's admission gate, the evaluation itself.
Endpoints:

====================================  =======================================
``POST /query``                       evaluate; body ``{"query": …,
                                      "corpus": …, "deadline": seconds,
                                      "use_cache": bool}``
``GET /query?q=…&corpus=…``           same, for curl convenience
``POST /explain``                     the optimizer's plan, not executed
``GET /corpora``                      served corpora with generations
``POST /corpora/<name>/reload``       hot-reload one corpus (bumps its
                                      generation, invalidates its cache)
``POST /ingest``                      commit one mutation batch; body
                                      ``{"corpus": …, "ops": [{"op":
                                      "append"|"update"|"delete",
                                      "id": …, "text": …}, …]}`` —
                                      all-or-nothing, WAL'd, publishes
                                      a new generation
``POST /compact``                     merge segments, drop tombstones,
                                      checkpoint + truncate the WAL;
                                      body ``{"corpus": …}``
``GET /healthz``                      liveness + pool/cache/config state
``GET /metrics``                      the shared registry snapshot (JSON);
                                      ``?format=prometheus`` for text
``GET /backends``                     frontier topology: placement,
                                      breakers, latency, subprocesses
``POST /shard/query``                 backend-role RPC: evaluate query
                                      texts against one shard slice;
                                      ``X-Repro-Deadline`` /
                                      ``X-Repro-Trace`` headers carry
                                      the cross-process context; a
                                      ``floor`` body field is the read's
                                      generation (``503
                                      replica_lagging`` at any other)
``POST /replicate/apply``             backend-role RPC: apply one
                                      shipped WAL batch at the
                                      frontier's generation
``POST /replicate/snapshot``          backend-role RPC: replace the
                                      replica wholesale (catch-up /
                                      anti-entropy repair)
``POST /replicate/status``            backend-role RPC: applied
                                      generation + per-group content
                                      checksums for the sweep
====================================  =======================================

Statuses come from the exception: every :class:`~repro.errors.ReproError`
class carries its ``status`` next to its ``code``
(:func:`~repro.errors.http_status`).  ``400`` parse/validation errors
(including rejected ingest batches, ingest-disabled corpora and a
deadline ≤ 0), ``404`` unknown corpus, document, or path, ``409``
duplicate document id or a write to a corpus whose remote backends are
not replicated (``ingest_unreplicated``), ``429`` admission
rejection (with ``Retry-After``), ``503`` load shed, corpus breaker
open, or a shard replica not at the read's generation
(``replica_lagging``; all with ``Retry-After``), ``504`` query deadline
exceeded, ``500`` injected faults and anything unexpected.

Every error envelope carries a stable machine-readable ``code``
(``{"error": …, "code": …}``) from the taxonomy in
:mod:`repro.errors` — documented in ``docs/server.md`` — so clients
branch on codes, not on prose or transport status.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    QueryTimeout,
    ReplicaLaggingError,
    ReproError,
    error_code,
    http_status,
)
from repro.obs.metrics import parse_label_text
from repro.server.service import QueryService

__all__ = ["QueryHTTPServer", "create_server", "render_prometheus"]


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """The registry snapshot in Prometheus text exposition format.

    Real-scraper correct: label values are escaped (backslash, double
    quote, newline), histogram ``_bucket`` series are cumulative and end
    in the ``+Inf`` bucket equal to ``_count``, and buckets carrying an
    exemplar get the OpenMetrics ``# {trace_id="…"} value timestamp``
    suffix linking the aggregate to one kept trace.
    """
    lines: list[str] = []
    metrics = snapshot.get("metrics", snapshot)

    def labelize(text: str, extra: str = "") -> str:
        rendered = ",".join(
            f'{k}="{_escape_label_value(v)}"'
            for k, v in parse_label_text(text)
            if k
        )
        if extra:
            rendered = f"{rendered},{extra}" if rendered else extra
        return "{" + rendered + "}" if rendered else ""

    for name, series in metrics.get("counters", {}).items():
        lines.append(f"# TYPE {name} counter")
        for labels, value in sorted(series.items()):
            lines.append(f"{name}{labelize(labels)} {value}")
    for name, series in metrics.get("gauges", {}).items():
        lines.append(f"# TYPE {name} gauge")
        for labels, value in sorted(series.items()):
            lines.append(f"{name}{labelize(labels)} {value}")
    for name, series in metrics.get("histograms", {}).items():
        lines.append(f"# TYPE {name} histogram")
        for labels, data in sorted(series.items()):
            exemplars = data.get("exemplars", {})
            cumulative = 0
            for bound, count in data["buckets"].items():
                cumulative += count
                le = "+Inf" if bound == "+inf" else bound
                le_label = 'le="%s"' % le
                line = f"{name}_bucket{labelize(labels, le_label)} {cumulative}"
                exemplar = exemplars.get(bound)
                if exemplar is not None:
                    line += (
                        f' # {{trace_id="{exemplar["trace_id"]}"}} '
                        f'{exemplar["value"]} {exemplar["timestamp"]:.3f}'
                    )
                lines.append(line)
            lines.append(f"{name}_sum{labelize(labels)} {data['sum']}")
            lines.append(f"{name}_count{labelize(labels)} {data['count']}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the service; one instance per request."""

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: a reply is never held back
    #: for the peer's (delayed) ACK of an earlier segment.
    disable_nagle_algorithm = True
    server: "QueryHTTPServer"

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        try:
            if url.path == "/healthz":
                health = self.server.service.healthz()
                # Liveness stays 200 while degraded (still serving);
                # only an unhealthy or stopping service answers 503.
                status = (
                    503
                    if health["status"] in ("unhealthy", "shutting-down")
                    else 200
                )
                self._json(status, health)
            elif url.path == "/corpora":
                self._json(200, {"corpora": self.server.service.corpora_info()})
            elif url.path == "/metrics":
                self._metrics(url)
            elif url.path == "/slo":
                self._json(200, self.server.service.slo_snapshot())
            elif url.path == "/debug/traces":
                self._trace_listing(url)
            elif url.path.startswith("/debug/trace/"):
                self._trace_tree(url.path[len("/debug/trace/") :])
            elif url.path == "/backends":
                self._json(200, self.server.service.backends_info())
            elif url.path == "/query":
                self._query_from_params(url)
            else:
                self._json(
                    404,
                    {"error": f"no such endpoint {url.path!r}", "code": "not_found"},
                )
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._error(exc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        try:
            # Consumed before routing: a body left unread (unknown path,
            # /reload) would be parsed as this keep-alive connection's
            # next request line.
            raw = self._read_body()
            if url.path == "/query":
                self._run(self._body(raw), explain_only=False)
            elif url.path == "/ingest":
                self._ingest(self._body(raw))
            elif url.path == "/compact":
                body = self._body(raw)
                self._json(
                    200, self.server.service.compact(body.get("corpus"))
                )
            elif url.path == "/shard/query":
                self._shard_query(self._body(raw))
            elif url.path == "/replicate/apply":
                self._replicate_apply(self._body(raw))
            elif url.path == "/replicate/snapshot":
                self._replicate_snapshot(self._body(raw))
            elif url.path == "/replicate/status":
                body = self._body(raw)
                self._json(
                    200,
                    self.server.service.replicate_status(
                        body.get("corpus"), int(body.get("groups", 1))
                    ),
                )
            elif url.path == "/explain":
                self._run(self._body(raw), explain_only=True)
            elif url.path.startswith("/corpora/") and url.path.endswith(
                "/reload"
            ):
                name = url.path[len("/corpora/") : -len("/reload")]
                self._json(200, self.server.service.reload_corpus(name))
            else:
                self._json(
                    404,
                    {"error": f"no such endpoint {url.path!r}", "code": "not_found"},
                )
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._error(exc)

    # ------------------------------------------------------------------

    def _metrics(self, url) -> None:
        snapshot = self.server.service.metrics_snapshot()
        params = parse_qs(url.query)
        if params.get("format", [""])[0] == "prometheus":
            body = render_prometheus(snapshot).encode("utf-8")
            self._raw(200, body, "text/plain; version=0.0.4")
        else:
            self._json(200, snapshot)

    def _trace_listing(self, url) -> None:
        service = self.server.service
        if service.traces is None:
            self._json(
                404,
                {"error": "tracing is not enabled", "code": "tracing_disabled"},
            )
            return
        params = parse_qs(url.query)
        limit = int(params.get("limit", ["50"])[0])
        sort = params.get("sort", ["recent"])[0]
        self._json(
            200,
            {
                "traces": service.trace_summaries(limit=limit, sort=sort),
                "stats": service.traces.stats(),
            },
        )

    def _trace_tree(self, trace_id: str) -> None:
        service = self.server.service
        if service.traces is None:
            self._json(
                404,
                {"error": "tracing is not enabled", "code": "tracing_disabled"},
            )
            return
        tree = service.trace_tree(trace_id)
        if tree is None:
            self._json(
                404,
                {
                    "error": f"no kept trace {trace_id!r}",
                    "code": "trace_not_found",
                },
            )
            return
        self._json(200, tree)

    def _query_from_params(self, url) -> None:
        params = parse_qs(url.query)

        def first(key: str, default: str | None = None) -> str | None:
            return params.get(key, [default])[0]

        query = first("q") or first("query")
        if not query:
            raise ValueError("missing query parameter 'q'")
        request: dict[str, Any] = {"query": query, "corpus": first("corpus")}
        if first("deadline") is not None:
            request["deadline"] = float(first("deadline"))
        self._run(request, explain_only=False)

    def _read_body(self) -> bytes:
        header = self.headers.get("Content-Length")
        try:
            length = int(header or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True  # the stream cannot be framed
            raise ValueError(f"malformed Content-Length {header!r}")
        return self.rfile.read(length)

    def _body(self, raw: bytes) -> dict[str, Any]:
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    def _run(self, request: dict[str, Any], explain_only: bool) -> None:
        query = request.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ValueError("request needs a non-empty 'query'")
        deadline = request.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
        response = self.server.service.execute(
            query,
            corpus=request.get("corpus"),
            deadline=deadline,
            use_cache=bool(request.get("use_cache", True)),
            explain_only=explain_only,
        )
        self._json(200, response)

    def _ingest(self, body: dict[str, Any]) -> None:
        ops = body.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ValueError("ingest request needs a non-empty 'ops' list")
        response = self.server.service.ingest(body.get("corpus"), ops)
        self._json(200, response)

    def _shard_query(self, body: dict[str, Any]) -> None:
        """The backend half of the frontier's shard RPC."""
        queries = body.get("queries")
        if not isinstance(queries, list) or not all(
            isinstance(q, str) for q in queries
        ):
            raise ValueError("shard request needs a 'queries' list of strings")
        deadline = None
        header = self.headers.get("X-Repro-Deadline")
        if header is not None:
            try:
                deadline = float(header)
            except ValueError:
                deadline = None  # advisory context, never fails the query
        trace = None
        header = self.headers.get("X-Repro-Trace")
        if header is not None:
            try:
                trace = json.loads(header)
            except json.JSONDecodeError:
                trace = None  # a bad trace header never fails the query
        response = self.server.service.shard_query(
            body.get("corpus"),
            int(body.get("group", 0)),
            int(body.get("groups", 1)),
            queries,
            str(body.get("want", "sets")),
            dict(body.get("bounds") or {}),
            deadline=deadline,
            trace=trace,
            floor=int(body.get("floor", 0)),
        )
        self._json(200, response)

    def _replicate_apply(self, body: dict[str, Any]) -> None:
        """The backend half of WAL log shipping (one batch)."""
        ops = body.get("ops")
        if not isinstance(ops, list):
            raise ValueError("replicate request needs an 'ops' list")
        response = self.server.service.replicate_apply(
            body.get("corpus"),
            int(body.get("seq", 0)),
            ops,
            int(body.get("generation", 0)),
            str(body.get("checksum", "")),
        )
        self._json(200, response)

    def _replicate_snapshot(self, body: dict[str, Any]) -> None:
        """The backend half of snapshot catch-up / divergence repair."""
        state = body.get("state")
        if not isinstance(state, dict):
            raise ValueError("replicate request needs a 'state' object")
        response = self.server.service.replicate_snapshot(
            body.get("corpus"), state, int(body.get("generation", 0))
        )
        self._json(200, response)

    # ------------------------------------------------------------------

    def _error(self, exc: Exception) -> None:
        # When tracing is on, the service stamped the exception with its
        # request's trace id — included so a 5xx is joinable against the
        # kept trace at /debug/trace/<id>.
        envelope: dict[str, Any] = {"error": str(exc), "code": error_code(exc)}
        trace_id = getattr(exc, "trace_id", None)
        if trace_id is not None:
            envelope["trace_id"] = trace_id
        if isinstance(exc, ReplicaLaggingError):
            # Lets the frontier's transport rebuild the typed error for
            # its failover machinery.
            envelope.update(
                corpus=exc.corpus, applied=exc.applied, floor=exc.floor
            )
        headers = None
        if isinstance(exc, QueryTimeout):
            envelope["budget"] = exc.budget
        elif isinstance(exc, ReproError):
            # Retryable refusals (overload, shed, breaker open, lagging
            # replica) say when to come back.
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                envelope["retry_after"] = retry_after
                headers = {"Retry-After": f"{retry_after:.3f}"}
        elif not isinstance(exc, ValueError):
            envelope["error"] = f"internal error: {exc!r}"
        self._json(http_status(exc), envelope, extra_headers=headers)

    def _json(
        self,
        status: int,
        payload: dict[str, Any],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._raw(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            extra_headers,
        )

    def _raw(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        # The body leaves in the header block's flush, so a response is
        # one ``sendall``: written apart, the body would wait out the
        # client's delayed ACK of the headers (~40 ms).  An HTTP/0.9
        # request line gets no header block, only the body.
        if self.request_version == "HTTP/0.9":
            self._headers_buffer = [body]
        else:
            self._headers_buffer += (b"\r\n", body)
        self.flush_headers()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class QueryHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`."""

    daemon_threads = True

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        self.service = service
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def bound_port(self) -> int:
        return self.server_address[1]

    def serve_in_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests, benches)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True
        )
        thread.start()
        return thread

    def stop(self) -> None:
        """Shut down the listener, then drain the service's pool."""
        self.shutdown()
        self.server_close()
        self.service.close()


def create_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> QueryHTTPServer:
    """Bind (but do not start) the HTTP server; ``port=0`` picks a free
    port, readable afterwards as ``server.bound_port``."""
    return QueryHTTPServer(service, host=host, port=port, verbose=verbose)
