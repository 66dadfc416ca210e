"""E14 — sharded scatter-gather scaling (single-query latency).

One query against a large multi-play corpus, evaluated with the
:mod:`repro.shard` executor at shard counts 1/2/4/8.  Two metrics per
shard count, both written to ``BENCH_e14.json``:

* **wall seconds** — end-to-end time of one sharded query.  Every group
  runs on the calling thread (in-process backends do not wait), so wall
  time is the sum of the groups' work plus dispatch and merge; it is
  reported for honesty, not asserted.
* **critical-path seconds** — per-phase maxima of per-group call times
  (``FrontierStats.critical_path_seconds``; the calls never interleave,
  so each is that group's own work) plus merge time: the wall time of
  a machine with one core per shard — a model, not a measurement — with
  the merge overhead reported alongside.

Neither is asserted.  The >= 1.8x critical-path bound this file used to
carry was dropped while ``merge_region_sets`` still built ``Region``
objects and was most of the critical path; since the merge concatenates
endpoint arrays the model clears it again (see EXPERIMENTS.md E14).  The
gated numbers for the sharded path are ``serve_sharded/queries_per_s``
and ``shard.executor.overhead_ratio`` in ``bench/``.

The ``benchmark``-fixture functions chart the per-shard-count latency;
the report function is plain timing code so the file also runs under
``pytest --benchmark-disable``.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from time import perf_counter

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.shard import ShardExecutor
from repro.workloads.corpora import generate_play

SHARD_COUNTS = (1, 2, 4, 8)
QUERY = "speech containing (speaker before line)"
ROUNDS = 3  #: min-of-N per configuration


def _corpus_text() -> str:
    rng = random.Random(2026)
    return "\n".join(
        generate_play(
            rng,
            acts=3,
            scenes_per_act=3,
            speeches_per_scene=6,
            lines_per_speech=3,
        )
        for _ in range(16)
    )


@pytest.fixture(scope="module")
def instance():
    from repro.engine.session import Engine

    return Engine.from_tagged_text(_corpus_text()).instance


@pytest.fixture(scope="module")
def expr():
    return parse(QUERY)


def _baseline_seconds(instance, expr) -> float:
    evaluator = Evaluator("indexed")
    evaluator.evaluate(expr, instance)  # warm caches
    best = float("inf")
    for _ in range(ROUNDS):
        started = perf_counter()
        evaluator.evaluate(expr, instance)
        best = min(best, perf_counter() - started)
    return best


def _sharded_measurements(instance, expr, shards: int) -> dict:
    """Min-of-N wall time and critical path of the sharded executor."""
    wall = critical = float("inf")
    merge = 0.0
    with ShardExecutor(instance, shards) as executor:
        executor.run(expr)  # warm slices and compiled programs
        for _ in range(ROUNDS):
            started = perf_counter()
            executor.run(expr)
            elapsed = perf_counter() - started
            wall = min(wall, elapsed)
            stats = executor.last_stats
            # A one-segment partition evaluates locally and records no
            # phases; its critical path IS the run time.
            path = stats.critical_path_seconds() or elapsed
            if path < critical:
                critical, merge = path, stats.merge_seconds
        segments = len(executor.partition)
    return {
        "shards": shards,
        "segments": segments,
        "wall_seconds": wall,
        "critical_path_seconds": critical,
        "merge_seconds": merge,
    }


# ----------------------------------------------------------------------
# The ladder, for the comparison chart.
# ----------------------------------------------------------------------


@pytest.mark.benchmark(group="e14-shard-scaling")
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def bench_e14_latency(benchmark, instance, expr, shards):
    with ShardExecutor(instance, shards) as executor:
        executor.run(expr)  # warm
        benchmark(executor.run, expr)


# ----------------------------------------------------------------------
# The JSON artifact.
# ----------------------------------------------------------------------


def bench_e14_scaling_report(instance, expr):
    baseline = _baseline_seconds(instance, expr)
    rows = [
        _sharded_measurements(instance, expr, shards)
        for shards in SHARD_COUNTS
    ]
    for row in rows:
        row["wall_speedup"] = baseline / row["wall_seconds"]
        row["critical_path_speedup"] = baseline / row["critical_path_seconds"]
        row["merge_share"] = row["merge_seconds"] / row["critical_path_seconds"]
    report = {
        "experiment": "e14-shard-scaling",
        "query": QUERY,
        "corpus_regions": len(instance),
        "cpu_count": os.cpu_count(),
        "baseline_seconds": baseline,
        "rounds": ROUNDS,
        "results": rows,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_e14.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    # Sharded evaluation must return the same answer it is being timed on.
    expected = Evaluator("indexed").evaluate(expr, instance)
    with ShardExecutor(instance, 4) as executor:
        assert list(executor.run(expr)) == list(expected)
