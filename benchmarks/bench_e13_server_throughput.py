"""E13 — serving-layer throughput: result cache and zero-drop load.

Two acceptance claims for the ``repro.server`` subsystem (ISSUE 3):

1. **Cache speedup** — the region algebra is side-effect-free, so a
   result is a pure function of (corpus generation, normalized plan);
   replaying a realistic query mix against :class:`QueryService` with
   the LRU result cache on must beat the cache-disabled service by at
   least 2x (``bench_e13_cache_speedup_bound`` measures min-of-N
   interleaved and asserts the bound; measured ratios are ~20x, the
   residual cost being parse + normalization on the request path).
2. **No shed load below saturation** — the open-loop load generator
   driving the HTTP front end at a QPS the admission gate comfortably
   admits must see zero dropped connections and zero 429s
   (``bench_e13_zero_drops_below_saturation``).

The ``benchmark``-fixture functions chart the cached/uncached pair; the
bound functions are plain asserts so the whole file also runs (and
gates) under ``pytest --benchmark-disable``.
"""

from time import perf_counter

import pytest

from repro.server import (
    CorpusSpec,
    QueryService,
    ServerConfig,
    create_server,
    run_load,
)
from repro.workloads import PLAY_QUERIES

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=5)
MIX = tuple(PLAY_QUERIES.values())


@pytest.fixture(scope="module")
def service():
    svc = QueryService(
        ServerConfig(workers=4, queue_depth=16, corpora=(PLAY,))
    )
    yield svc
    svc.close()


def _replay(service, use_cache: bool, repeats: int = 10) -> None:
    for _ in range(repeats):
        for query in MIX:
            service.execute(query, use_cache=use_cache)


# ----------------------------------------------------------------------
# The ladder, for the comparison chart.
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="e13-server-throughput")
def bench_e13_mix_uncached(benchmark, service):
    _replay(service, use_cache=False, repeats=1)  # warm
    benchmark(_replay, service, False)


@pytest.mark.benchmark(group="e13-server-throughput")
def bench_e13_mix_cached(benchmark, service):
    _replay(service, use_cache=True, repeats=1)  # populate
    benchmark(_replay, service, True)


# ----------------------------------------------------------------------
# The acceptance assertions.
# ----------------------------------------------------------------------


def bench_e13_cache_speedup_bound(service):
    """Cached replay of the play mix is at least 2x the uncached rate.

    Interleaved min-of-N keeps scheduler noise and frequency drift from
    biasing either side (same protocol as E12).
    """
    _replay(service, use_cache=False, repeats=1)
    _replay(service, use_cache=True, repeats=1)  # populate the cache

    rounds = 5
    uncached_best = cached_best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        _replay(service, use_cache=False)
        uncached_best = min(uncached_best, perf_counter() - started)
        started = perf_counter()
        _replay(service, use_cache=True)
        cached_best = min(cached_best, perf_counter() - started)

    speedup = uncached_best / cached_best
    assert speedup >= 2.0, (
        f"cached replay is only {speedup:.2f}x the uncached replay "
        f"(bound: 2x; uncached {uncached_best:.4f}s, "
        f"cached {cached_best:.4f}s)"
    )


def bench_e13_zero_drops_below_saturation():
    """At a comfortably sub-saturation QPS the server sheds nothing:
    every request connects and answers 200."""
    service = QueryService(
        ServerConfig(workers=4, queue_depth=16, corpora=(PLAY,))
    )
    server = create_server(service, port=0)
    server.serve_in_background()
    try:
        result = run_load(
            "127.0.0.1",
            server.bound_port,
            MIX,
            qps=40.0,
            duration=2.0,
            concurrency=4,
        )
        assert result.sent > 0
        assert result.dropped == 0, (
            f"{result.dropped} dropped connections below saturation:\n"
            f"{result.format_report()}"
        )
        assert result.status_counts == {"200": result.sent}, (
            f"non-200 responses below saturation: {result.status_counts}"
        )
    finally:
        server.stop()
