"""E15 — overhead of request tracing and SLO accounting on the serve path.

The contract (ISSUE 6, restated per request by ISSUE 24): with tracing
**disabled** — the default ``ServerConfig`` — the full request path
(admission, evaluation, completion accounting) costs at most 10 µs per
request more than a service with the observability machinery stubbed
out entirely.  The implementation meets this by front-loading every
per-request decision: ``_begin_trace`` is one ``None`` check when
tracing is off, SLO recording is two bucket increments, and a request
evaluates on the thread that carries its context, so there is nothing
to propagate.  The bound is
absolute because what it bounds is: the accounting costs the same few
microseconds whatever the request around it costs, so a ratio moves
when the *request* gets cheaper (it read 1.002 while a request paid a
thread hand-off, 1.02 once it did not — same accounting).

``bench_e15_overhead_bound`` re-measures the claim against the same
service with its epilogue stubbed and asserts the bound, then writes
the full ladder — stubbed, disabled, tracing at 0%, tracing at 100%
sampling — to ``BENCH_e15.json``.  Because the bound is absolute, the requests are
cheap ones (tens of µs): the noise of a timing grows with what it
times, and a difference of two timings of millisecond-long requests
carried more noise than the 10 µs it was asked to resolve.  Each round
times every service once, in alternating order, and the overhead is the
median over rounds of the per-request difference from the stubbed
service, so a round that a collection or the scheduler disturbed does
not decide the result.
"""

import gc
import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.server import CorpusSpec, QueryService, ServerConfig

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=4)

#: Cheap queries, cache off: each still takes the whole request path
#: (admission, plan lookup, evaluation, completion accounting), and a
#: cheap request keeps the timing noise below the absolute bound.
QUERIES = [
    "act",
    "scene within act",
    "speaker within speech",
]


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


def _stubbed_complete(service):
    """``service``'s request epilogue with its observability gone: it
    records the two request metrics and nothing else — no trace to
    finish, no SLO accounting.  Whatever else
    ``QueryService._complete`` does is what the bound measures."""

    def complete(endpoint, status, started, trace, error):
        service._requests.inc(endpoint=endpoint, status=status)
        service._request_seconds.observe(
            time.perf_counter() - started, exemplar=None, endpoint=endpoint
        )

    return complete


def _make_stubbed_baseline():
    """A service whose epilogue is :func:`_stubbed_complete`."""
    service = _make_service()
    service._complete = _stubbed_complete(service)
    return service


def _workload(service):
    for query in QUERIES:
        service.execute(query, use_cache=False)


def _per_request(service, iterations: int) -> float:
    """Seconds per request over ``iterations`` passes of the workload,
    with the garbage collector pinned during the timed region: a cycle
    collection landing inside one service's timing (and not another's)
    otherwise dominates the signal on small boxes."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(iterations):
            _workload(service)
        return (time.perf_counter() - started) / (iterations * len(QUERIES))
    finally:
        gc.enable()


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

    Paired rounds: each round times every service once, the order
    reversed every other round so drift biases neither side, and a
    service's overhead is the median over rounds of its per-request time
    minus the stubbed one's in the same round.  The stubbed service is
    the disabled one with its epilogue swapped for the round, so the
    pair differs in the epilogue alone, not in which corpus, caches or
    heap layout it reads.  The services are built fresh here (not shared
    with the ladder above) so the pytest-benchmark runs cannot skew this
    measurement's heap or SLO window state.
    """
    disabled = _make_service()
    fresh = {
        "stubbed": disabled,
        "disabled": disabled,
        "tracing_0pct": _make_service(tracing=True, sample_rate=0.0),
        "tracing_100pct": _make_service(tracing=True, sample_rate=1.0),
    }
    stub = _stubbed_complete(disabled)
    try:
        for service in fresh.values():
            for _ in range(3):
                _workload(service)  # warm corpus, caches, bytecode
        rounds, iterations = 81, 10
        samples: dict[str, list[float]] = {name: [] for name in fresh}
        order = list(fresh)
        for _ in range(rounds):
            for name in order:
                if name == "stubbed":
                    disabled._complete = stub
                try:
                    samples[name].append(_per_request(fresh[name], iterations))
                finally:
                    disabled.__dict__.pop("_complete", None)
            order.reverse()
    finally:
        for service in {id(s): s for s in fresh.values()}.values():
            service.close()

    baseline = samples["stubbed"]
    overhead_us = {
        name: statistics.median(
            (seconds - base) * 1e6 for seconds, base in zip(times, baseline)
        )
        for name, times in samples.items()
    }
    median_us = {
        name: statistics.median(times) * 1e6 for name, times in samples.items()
    }
    ratios = {name: us / median_us["stubbed"] for name, us in median_us.items()}
    report = {
        "experiment": "e15-trace-overhead",
        "queries": QUERIES,
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "iterations_per_round": iterations,
        "median_us_per_request": median_us,
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
