"""An open-loop HTTP load generator for the query service.

Replays a query mix against ``POST /query`` at a target QPS and reports
the latency distribution (p50/p95/p99), per-status counts, and dropped
connections.  Open-loop means request start times are fixed on a global
schedule (``start + i/qps``) rather than waiting for responses — the
arrival pattern real traffic has — so a slow server accumulates
concurrent requests instead of silently throttling the generator, and
saturation shows up as 429s/timeouts rather than a lower achieved QPS.

Stdlib-only (:mod:`http.client`); reused keep-alive connections, one per
worker thread.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import Any, Callable, Mapping, Sequence

__all__ = ["LoadResult", "run_load", "percentile"]

#: Longest single backoff honored from a ``Retry-After`` hint (seconds).
_RETRY_AFTER_CAP = 1.0

#: Backoff bounds after a transport-level failure (refused, reset, …):
#: doubles per consecutive failure so a dead server is not hammered at
#: full schedule speed, capped so recovery is noticed quickly.
_TRANSPORT_BACKOFF_BASE = 0.05
_TRANSPORT_BACKOFF_CAP = 0.5


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass
class LoadResult:
    """What one load run measured."""

    target_qps: float
    duration: float  #: wall seconds the run actually took
    sent: int = 0
    dropped: int = 0  #: connection-level failures (refused, reset, timeout)
    #: ``dropped`` broken down as a distinct outcome class: every
    #: transport-level failure also counts here, labelled by exception
    #: kind, so a run against a dying backend shows *how* requests were
    #: lost (``ConnectionRefusedError`` vs ``ConnectionResetError`` vs a
    #: read timeout), not just that they were.
    transport_errors: int = 0
    transport_error_kinds: dict[str, int] = field(default_factory=dict)
    retried: int = 0  #: 429/503 responses retried after their Retry-After
    status_counts: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)  #: seconds, ok only
    cache_hits: int = 0
    #: (latency_seconds, trace_id) per 200 response that carried one.
    trace_samples: list[tuple[float, str]] = field(default_factory=list)
    #: The write stream (``ingest_rate > 0``): ``POST /ingest`` requests
    #: on their own open-loop schedule, measured separately so write
    #: latency never pollutes the query percentiles.
    ingest_rate: float = 0.0
    ingest_sent: int = 0
    ingest_dropped: int = 0
    #: write-side 429/503s retried after their ``Retry-After`` hint —
    #: what a lagging replica's backpressure looks like to the writer.
    ingest_retried: int = 0
    ingest_status_counts: dict[str, int] = field(default_factory=dict)
    ingest_latencies: list[float] = field(default_factory=list)

    @property
    def ingest_ok(self) -> int:
        return self.ingest_status_counts.get("200", 0)

    @property
    def completed(self) -> int:
        return sum(self.status_counts.values())

    @property
    def achieved_qps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    def slowest_traces(self, n: int = 5) -> list[dict[str, Any]]:
        """The trace IDs of the ``n`` slowest traced requests — the
        handles to paste into ``/debug/trace/<id>`` when a run's tail
        looks bad."""
        worst = sorted(self.trace_samples, key=lambda s: -s[0])[: max(0, n)]
        return [
            {"latency_ms": round(latency * 1e3, 3), "trace_id": trace_id}
            for latency, trace_id in worst
        ]

    def summary(self) -> dict[str, Any]:
        ordered = sorted(self.latencies)
        ordered_ingest = sorted(self.ingest_latencies)
        return {
            "target_qps": self.target_qps,
            "achieved_qps": round(self.achieved_qps, 2),
            "duration_seconds": round(self.duration, 3),
            "sent": self.sent,
            "completed": self.completed,
            "dropped": self.dropped,
            "transport_errors": self.transport_errors,
            "transport_error_kinds": dict(
                sorted(self.transport_error_kinds.items())
            ),
            "retried": self.retried,
            "status_counts": dict(sorted(self.status_counts.items())),
            "cache_hits": self.cache_hits,
            "latency_ms": {
                "p50": round(percentile(ordered, 0.50) * 1e3, 3),
                "p95": round(percentile(ordered, 0.95) * 1e3, 3),
                "p99": round(percentile(ordered, 0.99) * 1e3, 3),
                "mean": round(
                    (sum(ordered) / len(ordered) * 1e3) if ordered else 0.0, 3
                ),
            },
            "slowest_traces": self.slowest_traces(),
            **(
                {
                    "ingest": {
                        "target_rate": self.ingest_rate,
                        "sent": self.ingest_sent,
                        "ok": self.ingest_ok,
                        "dropped": self.ingest_dropped,
                        "retried": self.ingest_retried,
                        "status_counts": dict(
                            sorted(self.ingest_status_counts.items())
                        ),
                        # Same quantile set as the read side, kept in a
                        # separate block so write commits (WAL fsync +
                        # replication ship) never blur the read tail.
                        "latency_ms": {
                            "p50": round(
                                percentile(ordered_ingest, 0.50) * 1e3, 3
                            ),
                            "p95": round(
                                percentile(ordered_ingest, 0.95) * 1e3, 3
                            ),
                            "p99": round(
                                percentile(ordered_ingest, 0.99) * 1e3, 3
                            ),
                            "mean": round(
                                (
                                    sum(ordered_ingest)
                                    / len(ordered_ingest)
                                    * 1e3
                                )
                                if ordered_ingest
                                else 0.0,
                                3,
                            ),
                        },
                    }
                }
                if self.ingest_rate > 0
                else {}
            ),
        }

    def format_report(self) -> str:
        s = self.summary()
        lat = s["latency_ms"]
        lines = [
            f"sent {s['sent']} requests in {s['duration_seconds']:.1f}s "
            f"(target {s['target_qps']:g} QPS, achieved {s['achieved_qps']:g})",
            f"statuses: "
            + ", ".join(f"{k}: {v}" for k, v in s["status_counts"].items())
            + f"; retried: {s['retried']}; dropped: {s['dropped']}; "
            f"cache hits: {s['cache_hits']}",
        ]
        if s["transport_errors"]:
            kinds = ", ".join(
                f"{kind}: {count}"
                for kind, count in s["transport_error_kinds"].items()
            )
            lines.append(f"transport errors: {s['transport_errors']} ({kinds})")
        lines += [
            f"latency  p50 {lat['p50']:.1f} ms   p95 {lat['p95']:.1f} ms   "
            f"p99 {lat['p99']:.1f} ms   mean {lat['mean']:.1f} ms",
        ]
        if s["slowest_traces"]:
            lines.append("slowest traces:")
            lines.extend(
                f"  {t['latency_ms']:8.1f} ms  trace {t['trace_id']}"
                for t in s["slowest_traces"]
            )
        ingest = s.get("ingest")
        if ingest:
            wlat = ingest["latency_ms"]
            lines.append(
                f"ingest   sent {ingest['sent']} (target "
                f"{ingest['target_rate']:g}/s), ok {ingest['ok']}, retried "
                f"{ingest['retried']}, dropped {ingest['dropped']}"
            )
            lines.append(
                f"ingest latency  p50 {wlat['p50']:.1f} ms   "
                f"p95 {wlat['p95']:.1f} ms   p99 {wlat['p99']:.1f} ms   "
                f"mean {wlat['mean']:.1f} ms"
            )
        return "\n".join(lines)


#: Vocabulary for generated ingest documents — ordinary words so the
#: appended text exercises the same token paths the seeded plays do.
_INGEST_WORDS = (
    "alarum", "battle", "crown", "daggers", "exeunt", "fortune",
    "ghost", "herald", "kingdom", "midnight", "prophecy", "throne",
)


def _ingest_op(
    rng: random.Random, prefix: str, serial: int, acked: list[str]
) -> dict[str, Any]:
    """The next deterministic write: mostly appends of small play-shaped
    documents, with occasional updates and deletes of already-acked ids
    (so the corpus both grows and churns under load).  ``prefix``
    carries the run's seed so back-to-back runs against one server never
    collide on document ids."""
    roll = rng.random()
    line = " ".join(rng.choice(_INGEST_WORDS) for _ in range(rng.randrange(3, 9)))
    if acked and roll < 0.10:
        return {"op": "delete", "id": acked.pop(rng.randrange(len(acked)))}
    if acked and roll < 0.25:
        doc_id = acked[rng.randrange(len(acked))]
        return {
            "op": "update",
            "id": doc_id,
            "text": f"<speech><speaker>Loadgen</speaker>"
            f"<line>{line}</line></speech>",
        }
    return {
        "op": "append",
        "id": f"{prefix}-{serial}",
        "text": f"<speech><speaker>Loadgen</speaker>"
        f"<line>{line}</line></speech>",
    }


class _Clock:
    """Hands out schedule slots: worker i-th request fires at start+i/qps."""

    def __init__(self, qps: float, deadline_at: float):
        self._interval = 1.0 / qps
        self._start = monotonic()
        self._deadline_at = deadline_at
        self._next = 0
        self._lock = threading.Lock()

    def next_slot(self) -> float | None:
        """The absolute time of the next unclaimed slot, or None when
        the run's duration has elapsed."""
        with self._lock:
            slot = self._start + self._next * self._interval
            if slot >= self._deadline_at:
                return None
            self._next += 1
            return slot


def run_load(
    host: str,
    port: int,
    queries: Mapping[str, str] | Sequence[str],
    corpus: str | None = None,
    qps: float = 20.0,
    duration: float = 3.0,
    concurrency: int = 4,
    use_cache: bool = True,
    timeout: float = 10.0,
    seed: int = 7,
    max_retries: int = 2,
    on_response: Callable[[int, bytes], None] | None = None,
    ingest_rate: float = 0.0,
    on_ingest_response: Callable[[list[dict[str, Any]], int, bytes], None]
    | None = None,
) -> LoadResult:
    """Drive ``host:port`` with ``queries`` at ``qps`` for ``duration``
    seconds using ``concurrency`` keep-alive client threads.

    Queries are drawn from the mix uniformly at random (seeded — two
    runs replay the same request sequence).  Returns a
    :class:`LoadResult`; connection-level failures count as ``dropped``
    and never raise.

    Flow-control responses (``429``/``503``) are retried up to
    ``max_retries`` times, honoring the server's ``Retry-After`` hint
    capped at 1s; each retry counts in ``LoadResult.retried`` and only
    the final status lands in ``status_counts``.  ``on_response``, when
    given, is called with ``(status, body_bytes)`` for every final
    response — the hook the chaos harness uses to verify payloads.

    ``ingest_rate > 0`` adds a write mix: one dedicated writer thread
    POSTs single-op ``/ingest`` batches on its own open-loop schedule
    (same start-time discipline as the query stream, so a slow commit
    path shows up as concurrent writes backing up, not a lower write
    rate).  Writes are deterministic by ``seed`` — mostly appends of
    small play-shaped documents, with occasional updates/deletes of
    already-acknowledged ids.  Write-side ``429``/``503`` responses
    (e.g. ``replica_lagging`` backpressure) are retried with the same
    capped ``Retry-After`` discipline as reads, counted in
    ``LoadResult.ingest_retried``.  ``on_ingest_response(ops, status,
    body)`` sees every final write outcome; write latencies land in
    ``LoadResult.ingest_latencies``, never in the query percentiles.
    """
    if qps <= 0:
        raise ValueError("qps must be positive")
    pool = list(queries.values()) if isinstance(queries, Mapping) else list(queries)
    if not pool:
        raise ValueError("the query mix is empty")
    rng = random.Random(seed)
    # Pre-draw the request sequence so randomness is schedule-independent.
    planned = [pool[rng.randrange(len(pool))] for _ in range(int(qps * duration) + concurrency)]
    result = LoadResult(target_qps=qps, duration=0.0, ingest_rate=ingest_rate)
    result_lock = threading.Lock()
    started = monotonic()
    clock = _Clock(qps, started + duration)
    ingest_clock = (
        _Clock(ingest_rate, started + duration) if ingest_rate > 0 else None
    )

    def ingest_worker() -> None:
        # A single writer keeps the op stream deterministic by seed:
        # delete/update targets depend only on which earlier writes were
        # acknowledged, never on thread interleaving.
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        write_rng = random.Random(seed + 0x1096)
        acked: list[str] = []
        serial = 0
        try:
            while True:
                assert ingest_clock is not None
                slot = ingest_clock.next_slot()
                if slot is None:
                    return
                delay = slot - monotonic()
                if delay > 0:
                    sleep(delay)
                ops = [_ingest_op(write_rng, f"loadgen-{seed}", serial, acked)]
                serial += 1
                body = json.dumps({"corpus": corpus, "ops": ops})
                sent_at = monotonic()
                try:
                    retries_left = max(0, max_retries)
                    while True:
                        connection.request(
                            "POST",
                            "/ingest",
                            body=body,
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        payload = response.read()
                        if response.status in (429, 503) and retries_left > 0:
                            # A replicated server answers 503 with a
                            # Retry-After while replicas are lagging;
                            # honor the hint (capped) like the read side
                            # does instead of dropping the write.
                            hint = response.getheader("Retry-After")
                            try:
                                retry_delay = float(hint) if hint else 0.1
                            except ValueError:
                                retry_delay = 0.1
                            retries_left -= 1
                            with result_lock:
                                result.ingest_retried += 1
                            sleep(
                                max(0.0, min(retry_delay, _RETRY_AFTER_CAP))
                            )
                            continue
                        break
                    latency = monotonic() - sent_at
                    status = str(response.status)
                    with result_lock:
                        result.ingest_sent += 1
                        result.ingest_status_counts[status] = (
                            result.ingest_status_counts.get(status, 0) + 1
                        )
                        if response.status == 200:
                            result.ingest_latencies.append(latency)
                    if response.status == 200 and ops[0]["op"] == "append":
                        acked.append(ops[0]["id"])
                    if on_ingest_response is not None:
                        on_ingest_response(ops, response.status, payload)
                except (OSError, http.client.HTTPException):
                    with result_lock:
                        result.ingest_sent += 1
                        result.ingest_dropped += 1
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
        finally:
            connection.close()

    def worker() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        # Transport-failure cooldown: after a refused/reset connection
        # the worker stops touching the socket until `blocked_until`
        # (capped exponential backoff), fast-failing the requests that
        # come due meanwhile.  The schedule keeps its pace — every slot
        # is still counted — but a dead server sees one reconnect
        # attempt per backoff window instead of the full request rate.
        transport_failures = 0
        blocked_until: float | None = None
        blocked_kind = ""
        try:
            while True:
                slot = clock.next_slot()
                if slot is None:
                    return
                delay = slot - monotonic()
                if delay > 0:
                    sleep(delay)
                if blocked_until is not None:
                    if monotonic() < blocked_until:
                        with result_lock:
                            result.sent += 1
                            result.dropped += 1
                            result.transport_errors += 1
                            result.transport_error_kinds[blocked_kind] = (
                                result.transport_error_kinds.get(blocked_kind, 0)
                                + 1
                            )
                        continue
                    blocked_until = None
                index_query = planned[
                    min(len(planned) - 1, int((slot - started) * qps))
                ]
                body = json.dumps(
                    {
                        "query": index_query,
                        "corpus": corpus,
                        "use_cache": use_cache,
                    }
                )
                sent_at = monotonic()
                try:
                    retries_left = max(0, max_retries)
                    while True:
                        connection.request(
                            "POST",
                            "/query",
                            body=body,
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        payload = response.read()
                        if response.status in (429, 503) and retries_left > 0:
                            # Honor the server's backpressure hint
                            # (capped) instead of giving up immediately.
                            hint = response.getheader("Retry-After")
                            try:
                                delay = float(hint) if hint else 0.1
                            except ValueError:
                                delay = 0.1
                            retries_left -= 1
                            with result_lock:
                                result.retried += 1
                            sleep(max(0.0, min(delay, _RETRY_AFTER_CAP)))
                            continue
                        break
                    latency = monotonic() - sent_at
                    status = str(response.status)
                    hit = False
                    trace_id = None
                    if response.status == 200:
                        try:
                            parsed = json.loads(payload)
                            hit = bool(parsed.get("cached"))
                            trace_id = parsed.get("trace_id")
                        except (json.JSONDecodeError, UnicodeDecodeError):
                            pass
                    transport_failures = 0
                    blocked_until = None
                    with result_lock:
                        result.sent += 1
                        result.status_counts[status] = (
                            result.status_counts.get(status, 0) + 1
                        )
                        if response.status == 200:
                            result.latencies.append(latency)
                            if hit:
                                result.cache_hits += 1
                            if trace_id:
                                result.trace_samples.append((latency, trace_id))
                    if on_response is not None:
                        on_response(response.status, payload)
                except (OSError, http.client.HTTPException) as exc:
                    # A distinct outcome class, not just a drop: refused
                    # and reset connections are what a killed backend
                    # process looks like from out here.
                    kind = type(exc).__name__
                    with result_lock:
                        result.sent += 1
                        result.dropped += 1
                        result.transport_errors += 1
                        result.transport_error_kinds[kind] = (
                            result.transport_error_kinds.get(kind, 0) + 1
                        )
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                    # Arm the cooldown: capped so a respawned server is
                    # noticed within half a second.
                    backoff = min(
                        _TRANSPORT_BACKOFF_CAP,
                        _TRANSPORT_BACKOFF_BASE * 2.0**transport_failures,
                    )
                    transport_failures += 1
                    blocked_kind = kind
                    blocked_until = monotonic() + backoff
        finally:
            connection.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(max(1, concurrency))
    ]
    if ingest_clock is not None:
        threads.append(
            threading.Thread(
                target=ingest_worker, name="loadgen-ingest", daemon=True
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.duration = monotonic() - started
    return result
