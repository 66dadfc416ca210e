"""Scatter-gather execution of queries over a sharded instance.

One :class:`ShardExecutor` owns the partition of an instance and a
worker pool, and runs each query in at most ``rounds + 1`` parallel
phases:

1. **Route** — match-point patterns are evaluated once on the
   coordinator and their occurrences routed to the segment owning
   their left endpoint (an occurrence spanning a cut forces a safe
   fallback to single-shard evaluation);
2. **Exchange** (once per round of the plan) — every shard evaluates
   the rewritten right operands of that round's ``<``/``>`` nodes and
   returns two scalars per operand (max left endpoint, min right
   endpoint); the coordinator folds them into global bounds;
3. **Final scatter** — every shard evaluates the fully rewritten
   expression against its segment;
4. **Merge** — per-shard results reassemble with the order-preserving
   k-way merge.

Pools: ``"thread"`` (default) runs tasks on a
:class:`~concurrent.futures.ThreadPoolExecutor` with tracing context
propagated into each task; ``"process"`` ships picklable segment
instances to a :class:`~concurrent.futures.ProcessPoolExecutor` once
per worker (cancel tokens cannot cross the process boundary, so only
deadlines bound in-flight process tasks); ``"serial"`` runs tasks
inline, which the scaling benchmark uses to time per-shard work
without pool interleaving.

Failure policy (fault point ``shard.task``): a failed shard task is
retried once; a second failure degrades the whole query to plain
single-shard evaluation on the coordinator.  Deadline and cancel
tokens propagate into every task, and the first task to time out or
observe a cancel trips an internal event that aborts its siblings.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Any

from repro.algebra import ast as A
from repro.algebra.evaluator import CancelToken, Evaluator
from repro.algebra.parser import parse
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.errors import (
    EvaluationError,
    FaultInjected,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.faults import registry as _faults
from repro.obs import context as _trace_context
from repro.obs.trace import maybe_span
from repro.shard.merge import merge_region_sets
from repro.shard.partition import Partition, partition_instance
from repro.shard.planner import ShardPlan, classify
from repro.shard.rewrite import rewrite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

__all__ = ["ShardExecutor", "ShardRunStats", "POOL_KINDS"]

POOL_KINDS = ("thread", "process", "serial")


@dataclass
class ShardRunStats:
    """Timing and outcome accounting for one :meth:`ShardExecutor.run`."""

    shards: int
    rounds: int = 0
    #: one inner list per parallel phase; entry ``i`` is shard ``i``'s
    #: task seconds (exchange rounds first, final scatter last)
    phase_seconds: list[list[float]] = field(default_factory=list)
    merge_seconds: float = 0.0
    retries: int = 0
    degraded: bool = False
    fallback: str | None = None  #: why the run went single-shard, if it did

    def critical_path_seconds(self) -> float:
        """Per-phase maxima plus merge: the wall time a machine with one
        core per shard would need (the scaling benchmark's metric)."""
        return (
            sum(max(phase) for phase in self.phase_seconds if phase)
            + self.merge_seconds
        )


class _CombinedToken:
    """External cancel token OR'd with the run's internal abort event."""

    __slots__ = ("external", "internal")

    def __init__(self, external: CancelToken | None):
        self.external = external
        self.internal = threading.Event()

    def is_set(self) -> bool:
        return self.internal.is_set() or (
            self.external is not None and self.external.is_set()
        )


class _Degrade(ReproError):
    """Internal: a shard failed twice; fall back to single-shard."""

    def __init__(self, phase: str, shard: int):
        self.phase = phase
        self.shard = shard
        super().__init__(f"shard {shard} failed twice in phase {phase!r}")


def _remaining(deadline_at: float | None, budget: float | None) -> float | None:
    if deadline_at is None:
        return None
    remaining = deadline_at - monotonic()
    if remaining <= 0:
        raise QueryTimeout(budget or 0.0, elapsed=(budget or 0.0) - remaining)
    return remaining


# ----------------------------------------------------------------------
# Process-pool worker side.  Segments ship once per worker (initializer),
# then tasks reference them by index; results travel back as pickled
# RegionSets or scalar pairs.
# ----------------------------------------------------------------------

_PROCESS_SEGMENTS: tuple[Instance, ...] | None = None
_PROCESS_EVALUATOR: Evaluator | None = None


def _process_init(segments: tuple[Instance, ...]) -> None:
    global _PROCESS_SEGMENTS, _PROCESS_EVALUATOR
    _PROCESS_SEGMENTS = segments
    _PROCESS_EVALUATOR = Evaluator()


def _evaluate_all(
    evaluator: Evaluator,
    exprs: list[A.Expr],
    instance: Instance,
    want: str,
    deadline_at: float | None,
    budget: float | None,
    cancel: CancelToken | None = None,
) -> list[Any]:
    """One shard task's payload: each rewritten expression's result set,
    or just its two exchange scalars when ``want == "exchange"``."""
    out: list[Any] = []
    for expr in exprs:
        result = evaluator.evaluate(
            expr, instance, deadline=_remaining(deadline_at, budget), cancel=cancel
        )
        out.append(result.extremes() if want == "exchange" else result)
    return out


def _process_task(
    index: int,
    exprs: list[A.Expr],
    want: str,
    deadline: float | None,
    trace: dict[str, Any] | None = None,
) -> tuple[float, list[Any], dict[str, Any] | None]:
    """One shard's work inside a worker process.

    ``trace`` is the coordinator's :class:`TraceContext` as a dict (the
    context variable itself cannot cross the pickle boundary).  When
    present, the worker re-activates it — so the head-sampling decision
    still gates ``eval.*`` detail — runs under a process-local tracer,
    and ships the finished ``shard.task`` subtree back as the third
    element for the coordinator to re-parent with :meth:`Tracer.adopt`.
    """
    assert _PROCESS_SEGMENTS is not None and _PROCESS_EVALUATOR is not None
    instance = _PROCESS_SEGMENTS[index]
    deadline_at = monotonic() + deadline if deadline is not None else None
    if trace is None:
        started = perf_counter()
        out = _evaluate_all(
            _PROCESS_EVALUATOR, exprs, instance, want, deadline_at, deadline
        )
        return (perf_counter() - started, out, None)

    from repro.obs.trace import Tracer, span_to_dict

    tracer = Tracer(enabled=True)
    evaluator = Evaluator(tracer=tracer)
    token = _trace_context.activate(
        _trace_context.TraceContext.from_dict(trace)
    )
    try:
        with tracer.span("shard.task", shard=index) as span:
            started = perf_counter()
            out = _evaluate_all(
                evaluator, exprs, instance, want, deadline_at, deadline
            )
            seconds = perf_counter() - started
        return (seconds, out, span_to_dict(span))
    finally:
        _trace_context.restore(token)


class ShardExecutor:
    """Parallel scatter-gather evaluation over a partitioned instance."""

    def __init__(
        self,
        instance: Instance,
        shards: int,
        pool: str = "thread",
        max_workers: int | None = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if pool not in POOL_KINDS:
            raise ReproError(
                f"unknown shard pool {pool!r} (available: {', '.join(POOL_KINDS)})"
            )
        self.partition: Partition = partition_instance(instance, shards)
        self.pool_kind = pool
        self.tracer = tracer
        self.metrics = metrics
        self._instance = instance
        self._evaluator = Evaluator(tracer=tracer, metrics=metrics)
        self._max_workers = max_workers or max(len(self.partition), 1)
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._local = threading.local()
        self._tasks_total = self._task_hist = self._merge_hist = None
        self._retries_total = self._degraded_total = self._fallback_total = None
        if metrics is not None:
            from repro.obs.metrics import (
                SHARD_DEGRADED_TOTAL,
                SHARD_FALLBACK_TOTAL,
                SHARD_MERGE_SECONDS,
                SHARD_TASK_RETRIES_TOTAL,
                SHARD_TASK_SECONDS,
                SHARD_TASKS_TOTAL,
            )

            self._tasks_total = metrics.counter(SHARD_TASKS_TOTAL)
            self._task_hist = metrics.histogram(SHARD_TASK_SECONDS)
            self._merge_hist = metrics.histogram(SHARD_MERGE_SECONDS)
            self._retries_total = metrics.counter(SHARD_TASK_RETRIES_TOTAL)
            self._degraded_total = metrics.counter(SHARD_DEGRADED_TOTAL)
            self._fallback_total = metrics.counter(SHARD_FALLBACK_TOTAL)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                if self.pool_kind == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self._max_workers,
                        thread_name_prefix="repro-shard",
                    )
                else:
                    segments = tuple(
                        segment.instance for segment in self.partition.segments
                    )
                    self._pool = ProcessPoolExecutor(
                        max_workers=self._max_workers,
                        initializer=_process_init,
                        initargs=(segments,),
                    )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def last_stats(self) -> ShardRunStats | None:
        """This thread's most recent :meth:`run` accounting."""
        return getattr(self._local, "stats", None)

    # ------------------------------------------------------------------
    # The query path.
    # ------------------------------------------------------------------

    def run(
        self,
        expr: A.Expr | str,
        deadline: float | None = None,
        cancel: CancelToken | None = None,
    ) -> RegionSet:
        """Evaluate ``expr`` across all shards; same result as
        :meth:`Evaluator.evaluate` on the whole instance."""
        if isinstance(expr, str):
            expr = parse(expr)
        if deadline is not None and deadline < 0:
            raise EvaluationError("deadline must be non-negative")
        deadline_at = monotonic() + deadline if deadline is not None else None
        stats = ShardRunStats(shards=len(self.partition))
        self._local.stats = stats
        with maybe_span(
            self.tracer, "shard.query", shards=len(self.partition), pool=self.pool_kind
        ) as root:
            result = self._run(expr, deadline, deadline_at, cancel, stats, root)
            if root is not None:
                root.set("cardinality", len(result))
                if stats.fallback:
                    root.set("fallback", stats.fallback)
                if stats.degraded:
                    root.set("degraded", True)
        return result

    def _run(self, expr, budget, deadline_at, cancel, stats, root) -> RegionSet:
        if len(self.partition) <= 1:
            stats.fallback = "single_segment"
            if self._fallback_total is not None:
                self._fallback_total.inc(reason="single_segment")
            return self._single_shard(expr, budget, deadline_at, cancel)
        plan = classify(expr)
        stats.rounds = plan.rounds
        if root is not None:
            root.set("rounds", plan.rounds)
        points, reason = self._route_points(plan)
        if reason is not None:
            stats.fallback = reason
            if self._fallback_total is not None:
                self._fallback_total.inc(reason=reason)
            return self._single_shard(expr, budget, deadline_at, cancel)
        token = _CombinedToken(cancel)
        bounds: dict[A.Expr, int | None] = {}
        try:
            for round_no in range(1, plan.rounds + 1):
                nodes = plan.nodes_in_round(round_no)
                rights = list(dict.fromkeys(b.node.right for b in nodes))
                shard_exprs = [
                    [rewrite(right, bounds, points[i]) for right in rights]
                    for i in range(len(self.partition))
                ]
                per_shard = self._run_phase(
                    f"exchange{round_no}",
                    shard_exprs,
                    "exchange",
                    budget,
                    deadline_at,
                    token,
                    stats,
                )
                for j, right in enumerate(rights):
                    max_left: int | None = None
                    min_right: int | None = None
                    for shard_out in per_shard:
                        ml, mr = shard_out[j]
                        if ml is not None and (max_left is None or ml > max_left):
                            max_left = ml
                        if mr is not None and (min_right is None or mr < min_right):
                            min_right = mr
                    for b in nodes:
                        if b.node.right == right:
                            bounds[b.node] = (
                                max_left
                                if isinstance(b.node, A.Preceding)
                                else min_right
                            )
            final_exprs = [
                [rewrite(expr, bounds, points[i])]
                for i in range(len(self.partition))
            ]
            per_shard = self._run_phase(
                "final", final_exprs, "sets", budget, deadline_at, token, stats
            )
        except _Degrade:
            token.internal.set()  # stop whatever siblings are still running
            stats.degraded = True
            if self._degraded_total is not None:
                self._degraded_total.inc()
            return self._single_shard(expr, budget, deadline_at, cancel)
        merge_started = perf_counter()
        result = merge_region_sets([out[0] for out in per_shard])
        stats.merge_seconds = perf_counter() - merge_started
        if self._merge_hist is not None:
            self._merge_hist.observe(stats.merge_seconds)
        if self.tracer is not None and self.tracer.enabled:
            # Timed around the call rather than with an open span so the
            # merge itself runs unobserved; backdated under shard.query.
            self.tracer.record_span(
                "shard.merge",
                stats.merge_seconds,
                shards=len(per_shard),
                cardinality=len(result),
            )
        return result

    def _single_shard(self, expr, budget, deadline_at, cancel) -> RegionSet:
        return self._evaluator.evaluate(
            expr,
            self._instance,
            deadline=_remaining(deadline_at, budget),
            cancel=cancel,
        )

    def _route_points(
        self, plan: ShardPlan
    ) -> tuple[list[dict[str, RegionSet]], str | None]:
        """Per-shard match-point assignments, or a fallback reason."""
        segments = self.partition.segments
        routed: list[dict[str, RegionSet]] = [{} for _ in segments]
        if not plan.patterns:
            return routed, None
        word_index = self._instance.word_index
        if not isinstance(word_index, TextWordIndex):
            # Single-shard evaluation raises the same "needs a
            # text-backed word index" error the caller would see anyway.
            return routed, "label_index"
        for pattern in plan.patterns:
            points = word_index.match_points(pattern)
            for segment, shares in zip(segments, routed):
                share = segment.route(points)
                if share is None:
                    return routed, "spanning_match_point"
                shares[pattern] = share
        return routed, None

    # ------------------------------------------------------------------
    # Phase execution (scatter + gather with retry/degrade).
    # ------------------------------------------------------------------

    def _run_phase(
        self, phase, shard_exprs, want, budget, deadline_at, token, stats
    ) -> list[list[Any]]:
        k = len(self.partition)
        timings = [0.0] * k
        stats.phase_seconds.append(timings)
        if self.pool_kind == "process":
            return self._gather_process(
                phase, shard_exprs, want, budget, deadline_at, token, stats, timings
            )

        evaluator = self._evaluator
        segments = self.partition.segments

        def task(i: int) -> tuple[float, list[Any]]:
            # The fault point fires *inside* the span so an injected
            # fault leaves a fault-marked shard.task span in the trace —
            # the invariant the chaos harness audits.
            with maybe_span(
                self.tracer, "shard.task", shard=i, phase=phase
            ) as span:
                try:
                    if _faults._active is not None:
                        _faults._active.fire("shard.task")
                    started = perf_counter()
                    out = _evaluate_all(
                        evaluator,
                        shard_exprs[i],
                        segments[i].instance,
                        want,
                        deadline_at,
                        budget,
                        token,
                    )
                    return (perf_counter() - started, out)
                except FaultInjected:
                    if span is not None:
                        span.set("fault", True)
                    raise
                except (QueryCancelled, QueryTimeout):
                    raise
                except Exception as exc:
                    if span is not None:
                        span.set("error", type(exc).__name__)
                    raise

        if self.pool_kind == "serial":
            return [
                self._settle_inline(task, i, phase, stats, timings) for i in range(k)
            ]
        pool = self._ensure_pool()
        futures = []
        for i in range(k):
            ctx = contextvars.copy_context()
            futures.append(pool.submit(ctx.run, task, i))
        outs: list[list[Any]] = []
        error: BaseException | None = None
        for i, future in enumerate(futures):
            if error is not None:
                future.cancel()
                continue
            try:
                seconds, payload = future.result()
            except (QueryCancelled, QueryTimeout) as exc:
                token.internal.set()
                error = exc
                continue
            except Exception:
                try:
                    seconds, payload = self._retry(task, i, phase, stats)
                except (QueryCancelled, QueryTimeout) as exc:
                    token.internal.set()
                    error = exc
                    continue
                except Exception as exc:
                    token.internal.set()
                    raise _Degrade(phase, i) from exc
            timings[i] = seconds
            self._observe_task(phase, seconds)
            outs.append(payload)
        if error is not None:
            raise error
        return outs

    def _settle_inline(self, task, i, phase, stats, timings) -> list[Any]:
        try:
            seconds, payload = task(i)
        except (QueryCancelled, QueryTimeout):
            raise
        except Exception:
            try:
                seconds, payload = self._retry(task, i, phase, stats)
            except (QueryCancelled, QueryTimeout):
                raise
            except Exception as exc:
                raise _Degrade(phase, i) from exc
        timings[i] = seconds
        self._observe_task(phase, seconds)
        return payload

    def _retry(self, task, i, phase, stats) -> tuple[float, list[Any]]:
        """Re-run shard ``i``'s task once, inline on the coordinator."""
        stats.retries += 1
        if self._retries_total is not None:
            self._retries_total.inc(phase=phase)
        return task(i)

    def _observe_task(self, phase: str, seconds: float) -> None:
        if self._tasks_total is not None:
            self._tasks_total.inc(phase=phase)
        if self._task_hist is not None:
            self._task_hist.observe(seconds)

    def _gather_process(
        self, phase, shard_exprs, want, budget, deadline_at, token, stats, timings
    ) -> list[list[Any]]:
        """Process-pool variant: fault point and deadline accounting run
        coordinator-side; cancel tokens cannot reach in-flight workers,
        so cancellation is only observed between tasks."""
        k = len(self.partition)
        pool = self._ensure_pool()
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        trace_arg: dict[str, Any] | None = None
        if tracing:
            context = _trace_context.current()
            trace_arg = (
                context.to_dict()
                if context is not None
                else {"trace_id": "", "sampled": True}
            )

        def submit(i: int):
            if token.is_set():
                raise QueryCancelled()
            if _faults._active is not None:
                try:
                    _faults._active.fire("shard.task")
                except FaultInjected:
                    if tracing:
                        # The fault struck before the task left the
                        # coordinator; synthesize the fault-marked span
                        # the worker never got to record.
                        tracer.record_span(
                            "shard.task", 0.0, shard=i, phase=phase, fault=True
                        )
                    raise
            return pool.submit(
                _process_task,
                i,
                shard_exprs[i],
                want,
                _remaining(deadline_at, budget),
                trace_arg,
            )

        outs: list[list[Any]] = []
        futures = []
        for i in range(k):
            try:
                futures.append(submit(i))
            except (QueryCancelled, QueryTimeout):
                raise
            except Exception:
                try:
                    stats.retries += 1
                    if self._retries_total is not None:
                        self._retries_total.inc(phase=phase)
                    futures.append(submit(i))
                except (QueryCancelled, QueryTimeout):
                    raise
                except Exception as exc:
                    raise _Degrade(phase, i) from exc
        for i, future in enumerate(futures):
            try:
                seconds, payload, span_dump = future.result()
            except (QueryCancelled, QueryTimeout):
                raise
            except Exception:
                try:
                    seconds, payload, span_dump = self._retry_process(
                        submit, i, phase, stats
                    )
                except (QueryCancelled, QueryTimeout):
                    raise
                except Exception as exc:
                    raise _Degrade(phase, i) from exc
            timings[i] = seconds
            self._observe_task(phase, seconds)
            outs.append(payload)
            if tracing and span_dump is not None:
                # Re-parent the worker's shipped subtree under the
                # coordinator's current span so the stitched trace
                # crosses the process boundary.
                adopted = tracer.adopt(span_dump)
                if adopted is not None:
                    adopted.set("phase", phase)
            if token.is_set():
                raise QueryCancelled()
        return outs

    def _retry_process(
        self, submit, i, phase, stats
    ) -> tuple[float, list[Any], dict[str, Any] | None]:
        stats.retries += 1
        if self._retries_total is not None:
            self._retries_total.inc(phase=phase)
        return submit(i).result()
