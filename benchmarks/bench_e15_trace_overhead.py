"""E15 — overhead of request tracing and SLO accounting on the serve path.

The contract (ISSUE 6, restated per request by ISSUE 24): with tracing
**disabled** — the default ``ServerConfig`` — the full request path
(admission, evaluation, completion accounting) costs at most 10 µs per
request more than a service with the observability machinery stubbed
out entirely.  The implementation meets this by front-loading every
per-request decision: ``_begin_trace`` is one ``None`` check when
tracing is off, SLO recording is two bucket increments with burn gauges
deferred to scrape time, and a request evaluates on the thread that
carries its context, so there is nothing to propagate.  The bound is
absolute because what it bounds is: the accounting costs the same few
microseconds whatever the request around it costs, so a ratio moves
when the *request* gets cheaper (it read 1.002 while a request paid a
thread hand-off, 1.02 once it did not — same accounting).

``bench_e15_overhead_bound`` re-measures the claim (min-of-N
interleaved timing against a stubbed twin of the same service) and
asserts the bound, then writes the full ladder — stubbed, disabled,
tracing at 0%, tracing at 100% sampling — to ``BENCH_e15.json``.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.server import CorpusSpec, QueryService, ServerConfig

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=4)

#: Moderately heavy queries, cache off — evaluation dominates, as it
#: does for any real request, so the bound measures relative overhead
#: of the bookkeeping around it.
QUERIES = [
    "speech containing (speaker before line)",
    "(speech dwithin scene) union (line within speech)",
    "scene containing (speech containing line)",
]


class _NullSLO:
    """The observatory's interface with every verb stubbed out."""

    monitors: dict = {}

    def record(self, endpoint, status, seconds):
        pass

    def poll(self):
        pass

    def fast_burn_active(self):
        return {}

    def snapshot(self):
        return {}


def _make_service(tracing=False, sample_rate=0.1):
    return QueryService(
        ServerConfig(
            workers=2,
            queue_depth=8,
            cache_enabled=False,
            corpora=(PLAY,),
            tracing=tracing,
            trace_sample_rate=sample_rate,
        )
    )


def _make_stubbed_baseline():
    """The same service with its per-request observability gone: no
    SLO accounting (with tracing off, that is all there is)."""
    service = _make_service()
    service.slo = _NullSLO()
    return service


def _workload(service):
    for query in QUERIES:
        service.execute(query, use_cache=False)


def _best_of(service, rounds: int, iterations: int) -> float:
    """Min-of-N with the garbage collector pinned during the timed
    region: a cycle collection landing inside one service's round (and
    not another's) otherwise dominates the <1% signal on small boxes."""
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            for _ in range(iterations):
                _workload(service)
            best = min(best, time.perf_counter() - started)
        finally:
            gc.enable()
    return best


# ----------------------------------------------------------------------
# The ladder, for the comparison chart.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def services():
    built = {
        "stubbed": _make_stubbed_baseline(),
        "disabled": _make_service(),
        "tracing_0pct": _make_service(tracing=True, sample_rate=0.0),
        "tracing_100pct": _make_service(tracing=True, sample_rate=1.0),
    }
    for service in built.values():
        _workload(service)  # warm corpus, caches, bytecode
    yield built
    for service in built.values():
        service.close()


@pytest.mark.benchmark(group="e15-trace-overhead")
def bench_e15_stubbed_baseline(benchmark, services):
    benchmark(_workload, services["stubbed"])


@pytest.mark.benchmark(group="e15-trace-overhead")
def bench_e15_tracing_disabled(benchmark, services):
    benchmark(_workload, services["disabled"])


@pytest.mark.benchmark(group="e15-trace-overhead")
def bench_e15_tracing_sampled_0pct(benchmark, services):
    benchmark(_workload, services["tracing_0pct"])


@pytest.mark.benchmark(group="e15-trace-overhead")
def bench_e15_tracing_sampled_100pct(benchmark, services):
    benchmark(_workload, services["tracing_100pct"])


# ----------------------------------------------------------------------
# The acceptance assertion + JSON artifact.
# ----------------------------------------------------------------------


def bench_e15_overhead_bound():
    """Tracing-disabled request overhead stays within 10 µs a request.

    Interleaved min-of-N timing: the minimum over many rounds is stable
    against scheduler noise, and interleaving the services keeps
    thermal/frequency drift from biasing either side.  The services are
    built fresh here (not shared with the ladder above) so the
    pytest-benchmark runs cannot skew this measurement's heap or SLO
    window state.
    """
    fresh = {
        "stubbed": _make_stubbed_baseline(),
        "disabled": _make_service(),
        "tracing_0pct": _make_service(tracing=True, sample_rate=0.0),
        "tracing_100pct": _make_service(tracing=True, sample_rate=1.0),
    }
    try:
        for service in fresh.values():
            for _ in range(3):
                _workload(service)  # warm corpus, caches, bytecode
        rounds, iterations = 15, 4
        best = {name: float("inf") for name in fresh}
        for _ in range(rounds):
            for name, service in fresh.items():
                best[name] = min(best[name], _best_of(service, 1, iterations))
    finally:
        for service in fresh.values():
            service.close()

    baseline = best["stubbed"]
    ratios = {name: seconds / baseline for name, seconds in best.items()}
    requests = iterations * len(QUERIES)
    overhead_us = {
        name: (seconds - baseline) / requests * 1e6
        for name, seconds in best.items()
    }
    report = {
        "experiment": "e15-trace-overhead",
        "queries": QUERIES,
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "iterations_per_round": iterations,
        "best_seconds": best,
        "ratio_vs_stubbed": ratios,
        "overhead_us_per_request": overhead_us,
        "disabled_overhead_bound_us": 10.0,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_e15.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    assert overhead_us["disabled"] <= 10.0, (
        f"the tracing-disabled request path costs "
        f"{overhead_us['disabled']:.1f} us per request over the stubbed "
        f"baseline ({ratios['disabled']:.4f}x; bound: 10 us)"
    )
