"""The HTTP transport for shard backends.

Speaks ``POST /shard/query`` to a backend ``repro serve`` process
(:mod:`repro.server.http` serves the other side).  The wire format is
the text protocol of :mod:`repro.backend.base`; two request headers
carry the cross-process context:

* ``X-Repro-Deadline`` — the frontier's *remaining* budget in seconds;
  the backend hands it to its evaluator's cooperative deadline check,
  so a slow slice aborts remotely instead of being abandoned;
* ``X-Repro-Trace`` — the request's
  :class:`~repro.obs.context.TraceContext` as JSON; the backend
  re-activates it (preserving the head-sampling decision) and ships its
  finished span subtree back in the response for the frontier to adopt.

Connections are keep-alive, one per (backend, frontier thread);
anything transport-shaped — refused, reset, half-closed sockets from a
SIGKILL'd process — raises :class:`~repro.errors.BackendError`, the
signal the frontier's breakers and failover consume.  A remote
``query_timeout`` is re-raised as :class:`~repro.errors.QueryTimeout`
(failing over cannot help an expired deadline) and a remote
``backend_unsupported`` as
:class:`~repro.errors.BackendUnsupportedError` (every replica would
refuse identically).
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Mapping, Sequence

from repro.backend.base import BackendResult, ShardBackend
from repro.errors import (
    BackendError,
    BackendUnsupportedError,
    QueryTimeout,
    ReplicaLaggingError,
)

__all__ = ["HTTPBackend"]

#: Socket-level grace on top of the propagated deadline, so the remote
#: cooperative abort (and its 504 response) wins over a client timeout.
_TIMEOUT_GRACE = 2.0

#: Connect/request timeout when the caller sent no deadline.
_DEFAULT_TIMEOUT = 10.0


class HTTPBackend(ShardBackend):
    """See the module docstring."""

    waits = True

    def __init__(self, node_id: str, host: str, port: int):
        self.node_id = node_id
        self.host = host
        self.port = port
        self._local = threading.local()

    # ------------------------------------------------------------------

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout
            )
            self._local.connection = connection
        else:
            # Refresh the per-call timeout on the kept socket too.
            connection.timeout = timeout
            if connection.sock is not None:
                connection.sock.settimeout(timeout)
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    # ------------------------------------------------------------------

    def shard_query(
        self,
        corpus: str,
        group: int,
        groups: int,
        queries: Sequence[str],
        want: str,
        bounds: Mapping[str, int | None],
        deadline: float | None = None,
        trace: Mapping[str, Any] | None = None,
        floor: int = 0,
    ) -> BackendResult:
        body = json.dumps(
            {
                "corpus": corpus,
                "group": group,
                "groups": groups,
                "queries": list(queries),
                "want": want,
                "bounds": dict(bounds),
                "floor": floor,
            }
        )
        headers = {"Content-Type": "application/json"}
        if deadline is not None:
            headers["X-Repro-Deadline"] = f"{deadline:.6f}"
        if trace is not None:
            headers["X-Repro-Trace"] = json.dumps(dict(trace))
        timeout = (
            deadline + _TIMEOUT_GRACE if deadline is not None else _DEFAULT_TIMEOUT
        )
        connection = self._connection(timeout)
        try:
            connection.request("POST", "/shard/query", body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._drop_connection()
            raise BackendError(
                f"backend {self.node_id} ({self.host}:{self.port}): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return self._decode(response.status, payload, deadline)

    def _decode(
        self, status: int, payload: bytes, deadline: float | None
    ) -> BackendResult:
        try:
            data = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._drop_connection()
            raise BackendError(
                f"backend {self.node_id}: unparseable response "
                f"(HTTP {status})"
            ) from exc
        if status == 200:
            return BackendResult(
                payload=data["payload"],
                generation=int(data.get("generation", 0)),
                seconds=float(data.get("seconds", 0.0)),
                node=str(data.get("node", self.node_id)),
                span=data.get("span"),
            )
        code = data.get("code", "")
        message = data.get("error", f"HTTP {status}")
        if status == 504 or code == "query_timeout":
            raise QueryTimeout(deadline if deadline is not None else 0.0)
        if code == "backend_unsupported":
            raise BackendUnsupportedError(message)
        if code == "replica_lagging":
            raise ReplicaLaggingError(
                str(data.get("corpus", "")),
                int(data.get("applied", 0)),
                int(data.get("floor", 0)),
            )
        raise BackendError(
            f"backend {self.node_id}: HTTP {status} {code or '?'}: {message}"
        )

    # ------------------------------------------------------------------
    # Replication RPCs — plain JSON POSTs, no deadline/trace context
    # (shipping is a background activity with its own retry discipline
    # in the coordinator; a failure here is "node lagging", not a
    # request failure).
    # ------------------------------------------------------------------

    def _post_json(
        self, path: str, body: dict[str, Any], timeout: float = _DEFAULT_TIMEOUT
    ) -> dict[str, Any]:
        payload_out = json.dumps(body)
        connection = self._connection(timeout)
        try:
            connection.request(
                "POST",
                path,
                body=payload_out,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._drop_connection()
            raise BackendError(
                f"backend {self.node_id} ({self.host}:{self.port}): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        try:
            data = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._drop_connection()
            raise BackendError(
                f"backend {self.node_id}: unparseable {path} response "
                f"(HTTP {response.status})"
            ) from exc
        if response.status != 200:
            raise BackendError(
                f"backend {self.node_id}: {path} HTTP {response.status} "
                f"{data.get('code', '?')}: {data.get('error', '')}"
            )
        return data

    def replicate_apply(
        self,
        corpus: str,
        seq: int,
        ops: Sequence[Mapping[str, Any]],
        generation: int,
        checksum: str,
    ) -> dict[str, Any]:
        return self._post_json(
            "/replicate/apply",
            {
                "corpus": corpus,
                "seq": seq,
                "ops": [dict(op) for op in ops],
                "generation": generation,
                "checksum": checksum,
            },
        )

    def replicate_snapshot(
        self, corpus: str, state: Mapping[str, Any], generation: int
    ) -> dict[str, Any]:
        return self._post_json(
            "/replicate/snapshot",
            {"corpus": corpus, "state": dict(state), "generation": generation},
        )

    def replicate_status(self, corpus: str, groups: int) -> dict[str, Any]:
        return self._post_json(
            "/replicate/status", {"corpus": corpus, "groups": groups}
        )

    def describe(self) -> dict[str, Any]:
        return {
            "node": self.node_id,
            "transport": "http",
            "address": f"{self.host}:{self.port}",
        }

    def close(self) -> None:
        self._drop_connection()
