"""E16 — backend topology: hedged-request tail latency and kill/respawn
availability.

Two halves, both written to ``BENCH_e16.json``:

* **Hedging** — an in-process 3-node / 2-group / 2-replica topology
  where the primary node has a seeded 2% chance of a 50 ms stall —
  genuine tail latency, not uniform slowness: the hedge trigger is the
  node's own windowed p95, so a stall frequent enough to *become* the
  p95 would raise the trigger and disarm hedging.
  The same seeded query sequence runs with the hedge budget off and on;
  hedging must cut p99 while staying inside its request-volume budget.
* **Kill/respawn availability** — one abbreviated run of the
  backend-kill chaos harness (real ``repro serve`` subprocesses, a
  SIGKILL mid-load): availability during the kill window and the
  supervisor's respawn count, re-asserting the harness's invariants as
  a benchmark artifact.

The bound function is a plain assert so the file also runs (and gates)
under ``pytest --benchmark-disable``.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from time import perf_counter, sleep

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.backend.base import SliceProvider
from repro.backend.frontier import BackendNode, FrontierExecutor
from repro.backend.inprocess import InProcessBackend
from repro.engine.corpus import Corpus
from repro.faults.retry import CircuitBreaker
from repro.server.loadgen import percentile
from repro.workloads.corpora import generate_play

QUERY = "speech dwithin scene"
WARMUP_QUERIES = 30  #: fills the latency window that arms the trigger
MEASURED_QUERIES = 120
SLOW_RATE = 0.02
SLOW_SECONDS = 0.05
HEDGE_BUDGET = 0.5


class TailLatencyBackend(InProcessBackend):
    """An in-process backend with a seeded probabilistic stall — the
    'sometimes slow replica' hedging exists for.  It sleeps through
    ``slow_rate``, not ``inject_latency``, so it says itself that it
    waits: the frontier hedges only transports that do."""

    waits = True

    def __init__(self, node_id, slices, rng):
        super().__init__(node_id, slices)
        self.rng = rng
        self.slow_rate = 0.0
        self.slow_seconds = 0.0

    def shard_query(self, *args, **kwargs):
        if self.slow_rate and self.rng.random() < self.slow_rate:
            sleep(self.slow_seconds)
        return super().shard_query(*args, **kwargs)


@pytest.fixture(scope="module")
def instance():
    rng = random.Random(2026)
    corpus = Corpus()
    for _ in range(4):
        corpus.add(
            generate_play(
                rng,
                acts=2,
                scenes_per_act=2,
                speeches_per_scene=4,
                lines_per_speech=3,
            )
        )
    return corpus.engine().instance


def _make_frontier(instance, hedge_budget: float, seed: int):
    provider = SliceProvider(lambda name: (instance, 1))
    rng = random.Random(seed)
    backends = [
        TailLatencyBackend(f"b{i}", provider, rng) for i in range(3)
    ]
    nodes = [
        BackendNode(
            backend,
            CircuitBreaker(failure_threshold=5, reset_timeout=1.0),
        )
        for backend in backends
    ]
    frontier = FrontierExecutor(
        nodes,
        groups=2,
        replicas=2,
        hedge_budget=hedge_budget,
        hedge_min_seconds=0.01,
        hedge_quantile=0.95,
    )
    # The tail stall goes on the node the ring made primary — the node
    # hedges race against.
    primary = frontier.replicas_for("play", 0)[0]
    primary.backend.slow_rate = SLOW_RATE
    primary.backend.slow_seconds = SLOW_SECONDS
    return frontier


def _measure(instance, hedge_budget: float, seed: int) -> dict:
    frontier = _make_frontier(instance, hedge_budget, seed)
    expr = parse(QUERY)
    try:
        for _ in range(WARMUP_QUERIES):
            frontier.run("play", expr)
        latencies = []
        hedges = hedge_wins = 0
        for _ in range(MEASURED_QUERIES):
            started = perf_counter()
            _, stats = frontier.run("play", expr)
            latencies.append(perf_counter() - started)
            hedges += stats.hedges
            hedge_wins += stats.hedge_wins
        budget = frontier._budget.snapshot()
        result = list(frontier.run("play", expr)[0])
    finally:
        frontier.close()
    ordered = sorted(latencies)
    return {
        "hedge_budget": hedge_budget,
        "queries": MEASURED_QUERIES,
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "hedges": hedges,
        "hedge_wins": hedge_wins,
        "primaries": budget["primaries"],
        "result": result,
    }


# ----------------------------------------------------------------------
# Latency chart.
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="e16-backend-failover")
@pytest.mark.parametrize("hedge_budget", [0.0, HEDGE_BUDGET])
def bench_e16_query_latency(benchmark, instance, hedge_budget):
    frontier = _make_frontier(instance, hedge_budget, seed=7)
    expr = parse(QUERY)
    try:
        frontier.run("play", expr)  # warm
        benchmark(frontier.run, "play", expr)
    finally:
        frontier.close()


# ----------------------------------------------------------------------
# The acceptance assertion + JSON artifact.
# ----------------------------------------------------------------------


def bench_e16_failover_bound(instance):
    from repro.faults.chaos import ChaosConfig, run_chaos

    unhedged = _measure(instance, hedge_budget=0.0, seed=7)
    hedged = _measure(instance, hedge_budget=HEDGE_BUDGET, seed=7)

    # Same topology, same seeded stalls, same answer.
    expected = [
        (r.left, r.right)
        for r in Evaluator("indexed").evaluate(parse(QUERY), instance)
    ]
    for row in (unhedged, hedged):
        assert [(r.left, r.right) for r in row.pop("result")] == expected

    chaos = run_chaos(
        ChaosConfig(
            mode="backend-kill",
            seed=0,
            qps=30.0,
            warmup_seconds=0.5,
            fault_seconds=2.5,
            recovery_seconds=1.5,
            breaker_reset=0.5,
            respawn_delay=0.3,
        )
    )

    report = {
        "experiment": "e16-backend-failover",
        "query": QUERY,
        "corpus_regions": len(instance),
        "cpu_count": os.cpu_count(),
        "tail": {
            "slow_rate": SLOW_RATE,
            "slow_ms": SLOW_SECONDS * 1e3,
        },
        "hedging": {"without": unhedged, "with": hedged},
        "kill_respawn": {
            "ok": chaos.ok,
            "violations": chaos.violations,
            "killed_node": chaos.killed_node,
            "kill_availability": chaos.kill_availability,
            "respawns": chaos.respawns,
            "failovers": chaos.failovers,
            "responses": chaos.responses,
        },
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_e16.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    # Hedging must actually fire, win, and stay inside its budget …
    assert hedged["hedges"] >= 1, hedged
    assert hedged["hedge_wins"] >= 1, hedged
    assert hedged["hedges"] <= HEDGE_BUDGET * hedged["primaries"] + 1, hedged
    assert unhedged["hedges"] == 0, unhedged
    # … and buy a real p99 improvement against the tail stall.
    assert hedged["p99_ms"] <= 0.7 * unhedged["p99_ms"], (
        f"hedging bought no tail improvement: p99 "
        f"{unhedged['p99_ms']:.1f} ms -> {hedged['p99_ms']:.1f} ms"
    )
    # The kill/respawn half re-asserts the chaos invariants.
    assert chaos.ok, chaos.violations
    assert chaos.kill_availability >= 0.9, chaos.kill_availability
    assert chaos.respawns >= 1
