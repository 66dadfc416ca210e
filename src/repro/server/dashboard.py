"""``repro top`` — a terminal SLO observatory for a running service.

Polls a live server's ``/metrics`` (JSON), ``/slo``, ``/healthz``, and
``/debug/traces`` endpoints and renders one refreshing frame: request
rate and interpolated latency quantiles over the last interval, cache
hit rate, shard fan-out, per-objective burn rates with their alert
state, and the trace IDs of the slowest kept traces — the handles to
paste into ``/debug/trace/<id>``.

Everything here is pull-based and stateless on the server side: the
dashboard keeps the previous metrics sample and differences cumulative
counters/histograms itself, so any number of ``repro top`` instances
can watch one server.  Frame computation (:func:`compute_frame`) is
pure — tests feed it canned samples; only :func:`run_top` talks HTTP.
"""

from __future__ import annotations

import http.client
import json
import sys
from time import monotonic, sleep
from typing import Any, Callable, Mapping, TextIO

from repro.obs.metrics import parse_label_text

__all__ = [
    "fetch_json",
    "take_sample",
    "compute_frame",
    "render_frame",
    "run_top",
    "bucket_quantile",
]

#: ANSI "clear screen, cursor home" — used only on real terminals.
_CLEAR = "\x1b[2J\x1b[H"


def fetch_json(
    host: str, port: int, path: str, timeout: float = 2.0
) -> Any | None:
    """GET ``path`` and parse the JSON body; ``None`` on any failure.

    The dashboard must keep rendering while the server restarts or
    sheds load, so connection errors and non-JSON bodies degrade to
    missing data rather than raising.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = response.read()
        return json.loads(payload)
    except (OSError, http.client.HTTPException, json.JSONDecodeError):
        return None
    finally:
        connection.close()


def take_sample(host: str, port: int) -> dict[str, Any]:
    """One poll of every endpoint a frame needs, timestamped."""
    return {
        "time": monotonic(),
        "metrics": fetch_json(host, port, "/metrics"),
        "slo": fetch_json(host, port, "/slo"),
        "healthz": fetch_json(host, port, "/healthz"),
        "traces": fetch_json(
            host, port, "/debug/traces?sort=slowest&limit=5"
        ),
    }


# ----------------------------------------------------------------------
# Frame computation (pure)


def _instrument(
    sample: Mapping[str, Any] | None, kind: str, name: str
) -> dict[str, Any]:
    metrics = (sample or {}).get("metrics") or {}
    return (metrics.get("metrics") or {}).get(kind, {}).get(name, {})


def _counter_total(
    sample: Mapping[str, Any] | None,
    name: str,
    where: Callable[[dict[str, str]], bool] | None = None,
) -> float:
    total = 0.0
    for text, value in _instrument(sample, "counters", name).items():
        if where is None or where(dict(parse_label_text(text))):
            total += value
    return total


def _merged_buckets(
    sample: Mapping[str, Any] | None, name: str
) -> dict[str, float]:
    """Sum one histogram's per-bucket counts across all label series."""
    merged: dict[str, float] = {}
    for series in _instrument(sample, "histograms", name).values():
        for bound, count in series.get("buckets", {}).items():
            merged[bound] = merged.get(bound, 0.0) + count
    return merged


def _bucket_delta(
    prev: Mapping[str, float], cur: Mapping[str, float]
) -> dict[str, float]:
    return {
        bound: max(0.0, count - prev.get(bound, 0.0))
        for bound, count in cur.items()
    }


def bucket_quantile(buckets: Mapping[str, float], q: float) -> float:
    """Interpolated quantile from per-bucket (non-cumulative) counts.

    Walks bounds ascending and interpolates linearly inside the bucket
    the target rank falls in — the same estimate Prometheus's
    ``histogram_quantile`` makes.  The ``+inf`` bucket cannot be
    interpolated; it reports its lower bound (the largest finite one).
    """
    finite = sorted(
        (float(bound), count)
        for bound, count in buckets.items()
        if bound not in ("+inf", "+Inf")
    )
    inf_count = sum(
        count for bound, count in buckets.items() if bound in ("+inf", "+Inf")
    )
    total = sum(count for _, count in finite) + inf_count
    if total <= 0:
        return 0.0
    target = q * total
    seen = 0.0
    lower = 0.0
    for bound, count in finite:
        if count > 0 and seen + count >= target:
            fraction = (target - seen) / count
            return lower + (bound - lower) * fraction
        seen += count
        lower = bound
    return lower  # rank landed in +inf: best estimate is the last bound


def compute_frame(
    prev: Mapping[str, Any] | None, cur: Mapping[str, Any]
) -> dict[str, Any]:
    """Difference two samples into one displayable frame.

    With ``prev=None`` (the first poll) rates fall back to cumulative
    since server start, using ``/healthz`` uptime as the interval.
    """
    uptime = ((cur.get("healthz") or {}).get("uptime_seconds")) or 0.0
    interval = (
        cur["time"] - prev["time"] if prev is not None else max(uptime, 1e-9)
    )
    interval = max(interval, 1e-9)

    def delta(name: str, where=None) -> float:
        now = _counter_total(cur, name, where)
        if prev is None:
            return now
        return max(0.0, now - _counter_total(prev, name, where))

    requests = delta("server_requests_total")
    errors = delta(
        "server_requests_total",
        lambda labels: labels.get("status", "").startswith("5"),
    )
    hits = delta("server_cache_hits_total")
    misses = delta("server_cache_misses_total")
    shard_calls = delta("backend_requests_total")
    queries = delta(
        "server_requests_total",
        lambda labels: labels.get("endpoint") == "query",
    )

    cur_buckets = _merged_buckets(cur, "server_request_seconds")
    buckets = (
        _bucket_delta(_merged_buckets(prev, "server_request_seconds"), cur_buckets)
        if prev is not None
        else cur_buckets
    )

    slo_rows = []
    for name, snap in ((cur.get("slo") or {}).get("objectives") or {}).items():
        slo_rows.append(
            {
                "name": name,
                "fast_burn": round(snap["fast"]["burn"], 2),
                "slow_burn": round(snap["slow"]["burn"], 2),
                "threshold": snap["burn_threshold"],
                "active": snap["fast_burn_active"],
            }
        )

    traces = (cur.get("traces") or {}).get("traces") or []
    lookups = hits + misses
    return {
        "interval": round(interval, 3),
        "qps": round(requests / interval, 2),
        "error_rate": round(errors / requests, 4) if requests else 0.0,
        "latency_ms": {
            "p50": round(bucket_quantile(buckets, 0.50) * 1e3, 1),
            "p95": round(bucket_quantile(buckets, 0.95) * 1e3, 1),
            "p99": round(bucket_quantile(buckets, 0.99) * 1e3, 1),
        },
        "cache_hit_rate": round(hits / lookups, 4) if lookups else None,
        "shard_fanout": round(shard_calls / queries, 2) if queries else None,
        "health": ((cur.get("healthz") or {}).get("status")) or "unknown",
        "slo": sorted(slo_rows, key=lambda row: row["name"]),
        "slowest_traces": [
            {
                "trace_id": t.get("trace_id"),
                "duration_ms": round((t.get("duration") or 0.0) * 1e3, 1),
                "endpoint": t.get("endpoint"),
                "status": t.get("status"),
                "reasons": t.get("reasons"),
            }
            for t in traces[:5]
        ],
        "reachable": cur.get("metrics") is not None,
    }


def render_frame(frame: Mapping[str, Any]) -> str:
    """One frame as fixed-width terminal text."""
    if not frame.get("reachable"):
        return "server unreachable — retrying..."
    lat = frame["latency_ms"]
    hit = frame["cache_hit_rate"]
    fanout = frame["shard_fanout"]
    lines = [
        f"health {frame['health']:<10}  qps {frame['qps']:>8.1f}  "
        f"errors {frame['error_rate'] * 100:5.1f}%  "
        f"(last {frame['interval']:.1f}s)",
        f"latency  p50 {lat['p50']:>7.1f} ms   p95 {lat['p95']:>7.1f} ms   "
        f"p99 {lat['p99']:>7.1f} ms",
        f"cache hit {hit * 100:5.1f}%" if hit is not None else "cache hit   n/a",
    ]
    if fanout is not None:
        lines[-1] += f"   shard fan-out {fanout:.1f}x"
    lines.append("")
    lines.append("objective      fast-burn  slow-burn  threshold  alert")
    for row in frame["slo"]:
        alert = "FAST BURN" if row["active"] else "ok"
        lines.append(
            f"{row['name']:<14} {row['fast_burn']:>9.2f}  "
            f"{row['slow_burn']:>9.2f}  {row['threshold']:>9.1f}  {alert}"
        )
    if frame["slowest_traces"]:
        lines.append("")
        lines.append("slowest kept traces (GET /debug/trace/<id>):")
        for t in frame["slowest_traces"]:
            reasons = ",".join(t.get("reasons") or ())
            lines.append(
                f"  {t['duration_ms']:>8.1f} ms  {t['trace_id']}  "
                f"{t.get('endpoint') or '?'} {t.get('status') or '?'}  [{reasons}]"
            )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval: float = 2.0,
    iterations: int | None = None,
    json_output: bool = False,
    stream: TextIO | None = None,
) -> None:
    """Poll and render until interrupted (or ``iterations`` frames).

    ``iterations`` bounds the loop for scripts and CI; ``json_output``
    emits one frame per line as JSON instead of the ANSI dashboard.
    """
    out = stream if stream is not None else sys.stdout
    clear = not json_output and out.isatty()
    prev: dict[str, Any] | None = None
    frames = 0
    try:
        while iterations is None or frames < iterations:
            cur = take_sample(host, port)
            frame = compute_frame(prev, cur)
            if json_output:
                out.write(json.dumps(frame) + "\n")
            else:
                if clear:
                    out.write(_CLEAR)
                out.write(
                    f"repro top — {host}:{port} "
                    f"(refresh {interval:g}s, ctrl-c to quit)\n\n"
                )
                out.write(render_frame(frame) + "\n")
            out.flush()
            prev = cur
            frames += 1
            if iterations is None or frames < iterations:
                sleep(interval)
    except KeyboardInterrupt:
        pass
