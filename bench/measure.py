"""The untraced pass: set-ups, the closed loop, the end-to-end metrics.

One client thread sends the next request only when the previous one
has answered (a closed loop with no think time).  The unit of timing —
the *repetition* — is a cycle: ``cycle_blocks`` whole ``mix16`` blocks
and, on the write workload, the commit batch that follows them.  Every
cycle does the same work, so cycle times are repeated measurements of
one quantity, and the timing metrics are computed over the fastest
quarter of them: interference on a shared box only ever slows a cycle
down, and on this sandbox it comes in bursts that last seconds, so the
fast cycles are the ones nobody disturbed.  Replies are kept until the
cycle's clocks have stopped and only then checked against the oracle,
so checking costs the program nothing.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Iterator, Sequence

from repro import Engine

from bench import stats
from bench.fixtures import Fixture
from bench.oracle import answer_of, expected_answers
from bench.spec import QUERIES
from bench.workloads import WORKLOAD_CLASSES, IngestMixed, Workload

QUIET_SHARE = 0.25  #: the share of cycles, fastest first, that is reported
#: A run whose median cycle is this much slower than its quiet quarter
#: had a noisy neighbour; it is flagged, never hidden.
NOISY_SPREAD = 0.15


@dataclass
class Cycle:
    wall: float = 0.0
    cpu: float = 0.0
    reads: list[tuple[float, str]] = field(default_factory=list)  #: (s, template)
    commits: list[float] = field(default_factory=list)  #: s
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_cycle(
    ctx: Workload, schedule: Iterator[list[str]], oracle: dict[str, tuple[int, str]]
) -> Cycle:
    """Run and time one cycle, then check its replies."""
    templates = [t for _ in range(ctx.cycle_blocks) for t in next(schedule)]
    ops = ctx.next_ops()
    cycle = Cycle(attempted=len(templates) + (ops is not None))
    replies: list[Any] = []
    cpu_started = process_time()
    started = perf_counter()
    for template in templates:
        sent = perf_counter()
        try:
            reply = ctx.read(template)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            reply = exc
        cycle.reads.append((perf_counter() - sent, template))
        replies.append(reply)
    if ops is not None:
        try:
            _, seconds = ctx.commit(ops)
            cycle.commits.append(seconds)
        except Exception as exc:  # noqa: BLE001
            cycle.failures.append(f"commit: {exc!r}")
    cycle.wall = perf_counter() - started
    cycle.cpu = process_time() - cpu_started
    for template, reply in zip(templates, replies):
        problem = check_reply(ctx, template, reply, oracle)
        if problem is not None:
            cycle.failures.append(problem)
    ctx.maintain()
    return cycle


def check_reply(
    ctx: Workload, template: str, reply: Any, oracle: dict[str, tuple[int, str]]
) -> str | None:
    """``None`` for a correct reply, else what is wrong with it."""
    if isinstance(reply, Exception):
        return f"{template}: raised {reply!r}"
    try:
        answer = answer_of(ctx.pairs(reply))
    except Exception as exc:  # noqa: BLE001 - a malformed reply is a failure
        return f"{template}: {exc!r}"
    expected = oracle.get(template)
    if expected is not None and answer != expected:
        return f"{template}: answered {answer}, oracle says {expected}"
    if answer[0] == 0:
        return f"{template}: empty answer"
    return None


def run_cycles(
    ctx: Workload, schedule: Iterator[list[str]], oracle: dict, seconds: float
) -> list[Cycle]:
    """Whole cycles until ``seconds`` of timed work have accumulated."""
    cycles = [run_cycle(ctx, schedule, oracle)]
    spent = cycles[0].wall
    while spent < seconds:
        cycles.append(run_cycle(ctx, schedule, oracle))
        spent += cycles[-1].wall
    return cycles


def set_up(fx: Fixture, schedule: Iterator[list[str]]) -> tuple[Workload, float, Cycle]:
    """One fresh set-up: construct the workload, run one warm cycle.
    The time is what a fresh process would spend before its first
    steady-state request (fixture generation is not in it)."""
    gc.collect()  # so no set-up pays for the previous one's garbage
    started = perf_counter()
    ctx = WORKLOAD_CLASSES[fx.workload](fx)
    built = perf_counter() - started
    warm = run_cycle(ctx, schedule, fx.oracle)
    return ctx, built + warm.wall, warm


def pooled(cycles: Sequence[Cycle]) -> dict[str, float]:
    """The timing metrics over ``cycles`` taken together."""
    reads = [s * 1e3 for c in cycles for s, _ in c.reads]
    commits = [s * 1e3 for c in cycles for s in c.commits]
    wall = sum(c.wall for c in cycles)
    out = {
        "queries_per_s": len(reads) / wall,
        "query_p50_ms": stats.p50(reads),
        "query_p90_ms": stats.p90(reads),
        "cpu_ms_per_query": sum(c.cpu for c in cycles) * 1e3 / (len(reads) + len(commits)),
    }
    if commits:
        out["ingest.commits_per_s"] = len(commits) / wall
        out["ingest.commit_p50_ms"] = stats.p50(commits)
        out["ingest.commit_p90_ms"] = stats.p90(commits)
    return out


def summarize(cycles: Sequence[Cycle]) -> dict[str, Any]:
    """The quiet quarter's metrics, with every cycle's beside them."""
    fastest = sorted(cycles, key=lambda c: c.wall)
    quiet = fastest[: math.ceil(len(cycles) * QUIET_SHARE)]
    quiet_wall = statistics.fmean(c.wall for c in quiet)
    spread = (statistics.median(c.wall for c in cycles) - quiet_wall) / quiet_wall
    reads = [(s * 1e3, t) for c in quiet for s, t in c.reads]
    every = sorted(s * 1e3 for c in cycles for s, _ in c.reads)
    return {
        "quiet": pooled(quiet),
        "all": pooled(cycles),
        "repetitions": len(cycles),
        "quiet_repetitions": len(quiet),
        "rep_spread": spread,
        "noisy": spread > NOISY_SPREAD,
        "samples": len(reads),
        "query_p99_ms": every[int(0.99 * len(every))],
        "p50_band": stats.band_members(reads, 0.45, 0.55),
        "p90_band": stats.band_members(reads, 0.85, 0.95),
        "cycles": [
            {"wall": c.wall, "cpu": c.cpu, "reads": c.reads, "commits": c.commits}
            for c in cycles
        ],
    }


def final_check(ctx: Workload, fx: Fixture) -> tuple[Cycle, int, int]:
    """After the last cycle: on the write workload, what the service now
    serves against Definition 2.3 on a corpus re-parsed from the
    acknowledged operations alone.  Returns the check as a cycle plus
    the final corpus's (index bytes, text bytes)."""
    cycle = Cycle()
    if not isinstance(ctx, IngestMixed):
        return cycle, fx.index_path.stat().st_size, fx.text_bytes
    text = ctx.combined_text()
    rebuilt = Engine.from_tagged_text(text)
    oracle = expected_answers(rebuilt.instance)
    for template in QUERIES:
        cycle.attempted += 1
        try:
            reply = ctx.read(template)
        except Exception as exc:  # noqa: BLE001
            reply = exc
        problem = check_reply(ctx, template, reply, oracle)
        if problem is not None:
            cycle.failures.append(f"final {problem}")
    path = fx.directory / "final.index.json"
    rebuilt.save(path)
    return cycle, path.stat().st_size, len(text.encode("utf-8"))


def measure(fx: Fixture, seconds: float) -> dict[str, Any]:
    """The whole untraced pass for one workload; returns the run record
    (``metrics`` holds every end-to-end value)."""
    schedule = stats.blocks(fx.seed)
    # The first set-up is the one measured on, so the timed cycles and
    # the peak memory are those of a process that set up exactly once.
    ctx, first_setup, warm = set_up(fx, schedule)
    setups, checked = [first_setup], [warm]
    try:
        # Everything allocated so far is long-lived; freezing it keeps the
        # collector from re-walking the corpus in the middle of a cycle.
        gc.collect()
        gc.freeze()
        checked += run_cycles(ctx, schedule, fx.oracle, ctx.warmup_seconds)
        cycles = run_cycles(ctx, schedule, fx.oracle, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.unfreeze()
        last, index_bytes, text_bytes = final_check(ctx, fx)
        extras = {}
        if isinstance(ctx, IngestMixed):
            extras = {
                "ingest.wal_bytes_per_ingested_byte": ctx.logged_bytes / ctx.ingested_bytes,
                "commits": ctx.commits,
                "compactions": len(ctx.compact_seconds),
            }
    finally:
        ctx.close()
    del ctx
    # More fresh set-ups, for ``setup_s`` only: five at least, and cheap
    # ones keep going while the budget lasts — the minimum of many
    # one-sidedly disturbed samples is steadier than that of few.
    sizes = fx.sizes
    while len(setups) < sizes.setups or (
        sum(setups) < sizes.setup_budget_s and len(setups) < 12
    ):
        again, seconds_taken, warm = set_up(fx, schedule)
        again.close()
        del again
        setups.append(seconds_taken)
        checked.append(warm)
    checked += [*cycles, last]
    summary = summarize(cycles)
    quiet = summary["quiet"]
    metrics = {
        "setup_s": min(setups),
        "queries_per_s": quiet["queries_per_s"],
        "query_p50_ms": quiet["query_p50_ms"],
        "query_p90_ms": quiet["query_p90_ms"],
        "peak_rss_mb": peak_rss_mb,
        "index_bytes_per_text_byte": index_bytes / text_bytes,
    }
    failures = [f for c in checked for f in c.failures]
    return {
        "metrics": metrics,
        "attempted": sum(c.attempted for c in checked),
        "failed": len(failures),
        "failures": failures[:10],
        "setups": setups,
        "index_bytes": index_bytes,
        "text_bytes": text_bytes,
        **extras,
        **summary,
    }
