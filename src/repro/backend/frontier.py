"""The frontier: scatter sub-plans to backends, survive their deaths.

:class:`FrontierExecutor` is the one scatter-gather body: exchange
rounds folding two scalars per ordering node, then a final scatter and
an order-preserving k-way merge.  :class:`~repro.shard.ShardExecutor`
runs it over one in-process backend per piece, the query service over
its configured topology — the only way a service scatters.  Each shard
group's task goes to a **backend node** chosen by consistent hashing,
with three layers of robustness per call:

1. **Per-backend circuit breakers** — a node that keeps failing stops
   being asked (its breaker opens), is re-probed on a timer, and its
   replicas absorb the traffic meanwhile;
2. **Replica failover** — each ``(corpus, group)`` maps to ``R``
   distinct nodes in ring order; a failed or breaker-open replica
   means trying the next, and only when *every* replica of some group
   is gone does the frontier raise
   :class:`~repro.errors.BackendUnavailableError`;
3. **Hedged requests** — when the primary replica has not answered
   within its own recent latency quantile, the same call is issued to
   the next replica and the first answer wins.  Hedges are metered by
   a budget (a fraction of primary calls) so tail tolerance cannot
   double the request volume.

:meth:`FrontierExecutor.query` is the one fallback decision: a plan no
slice can answer soundly (``unsupported``), a group whose replicas have
all committed past the read's generation (``superseded``), or a group
with no replica left (``unavailable``, marked degraded) is evaluated
locally instead — complete and correct, just not distributed.

Pools and hedges are for transports that wait
(:attr:`~repro.backend.base.ShardBackend.waits`).  A group none of
whose replicas waits — an in-process backend — is served on the calling
thread by the same failover loop, with the same fault point, breakers,
deadline and floor: under the GIL a pool thread or a hedge evaluating
the same slice would only compete for the one lock.  A ``want="sets"``
answer crosses as two int arrays in-process and as a JSON pair list
from a socket; neither becomes a ``Region`` on the way to the merge.

Deadlines and trace context propagate into every call; backend span
subtrees are adopted under the frontier's current span, so one stitched
trace crosses the process hop.  The ``backend.rpc`` fault point fires
frontier-side per call attempt, covering both transports, and a fired
fault leaves a fault-marked ``backend.rpc`` span.  A cancel token is
checked before every call attempt; a call already in flight is bounded
by the deadline only (a token cannot cross a process boundary, and
in-process backends keep that contract).
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Any, Callable, Mapping, Sequence

from repro.algebra import ast as A
from repro.algebra.evaluator import CancelToken
from repro.algebra.printer import to_text
from repro.backend.base import PairColumns, ShardBackend
from repro.backend.ring import HashRing
from repro.core.regionset import RegionSet
from repro.errors import (
    BackendError,
    BackendUnavailableError,
    BackendUnsupportedError,
    FaultInjected,
    InvalidRegionError,
    QueryCancelled,
    QueryTimeout,
    ReplicaLaggingError,
)
from repro.faults import registry as _faults
from repro.faults.retry import CircuitBreaker
from repro.obs import context as _trace_context
from repro.obs.trace import maybe_span
from repro.shard.merge import merge_region_sets
from repro.shard.planner import classify, fold_extremes, resolve_bounds

__all__ = ["BackendNode", "FrontierExecutor", "FrontierStats"]

#: Latency samples kept per node for the hedge-trigger quantile.
_LATENCY_WINDOW = 64


def _past(refusal: Any) -> bool:
    """Whether a refusal came from a replica already past the read's
    generation: healthy and current, only newer than the read."""
    return (
        isinstance(refusal, ReplicaLaggingError)
        and refusal.applied > refusal.floor
    )


def _record_refusal(node: "BackendNode", exc: BackendError) -> None:
    """A failed call on ``node``'s breaker.  A replica already past the
    read's generation does not count."""
    if _past(exc):
        node.breaker.record_success()
    else:
        node.breaker.record_failure()


def _region_set(entry: Any) -> RegionSet:
    """One group's ``want="sets"`` answer as a :class:`RegionSet`.

    In-process it is the slice result's own arrays, wrapped without a
    copy.  Off the wire it is a JSON pair list, decoded in one pass under
    the rules a :class:`~repro.core.region.Region` enforces: endpoints
    coerced with ``int``, ``left > right`` rejected; rows are sorted and
    deduplicated only when they are not already strictly ascending.
    """
    if isinstance(entry, PairColumns):
        return RegionSet._from_arrays(entry.lefts, entry.rights)
    pairs: list[tuple[int, int]] = []
    for left, right in entry:
        left, right = int(left), int(right)
        if left > right:
            raise InvalidRegionError(
                f"region left endpoint {left} exceeds right endpoint {right}"
            )
        pairs.append((left, right))
    if any(a >= b for a, b in zip(pairs, pairs[1:])):
        pairs = sorted(set(pairs))
    return RegionSet._from_arrays([l for l, _ in pairs], [r for _, r in pairs])


class BackendNode:
    """One backend plus its frontier-side health state."""

    def __init__(self, backend: ShardBackend, breaker: CircuitBreaker):
        self.backend = backend
        self.id = backend.node_id
        self.breaker = breaker
        self._lock = threading.Lock()
        self._latencies: list[float] = []
        self._next = 0
        self.requests = 0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.requests += 1
            if len(self._latencies) < _LATENCY_WINDOW:
                self._latencies.append(seconds)
            else:
                self._latencies[self._next] = seconds
                self._next = (self._next + 1) % _LATENCY_WINDOW
    def latency_quantile(self, fraction: float) -> float | None:
        """The windowed latency quantile, or ``None`` with no samples."""
        with self._lock:
            if not self._latencies:
                return None
            ordered = sorted(self._latencies)
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            samples = sorted(self._latencies)
            requests = self.requests
        quantile = lambda f: (  # noqa: E731 - tiny local helper
            round(samples[min(len(samples) - 1, round(f * (len(samples) - 1)))] * 1e3, 3)
            if samples
            else None
        )
        return {
            **self.backend.describe(),
            "breaker": self.breaker.snapshot(),
            "requests": requests,
            "latency_ms": {"p50": quantile(0.50), "p95": quantile(0.95)},
        }


@dataclass
class FrontierStats:
    """Accounting for one :meth:`FrontierExecutor.run` or ``query``."""

    groups: int
    rounds: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    breaker_skips: int = 0
    nodes_used: list[str] = field(default_factory=list)
    #: one inner list per scatter phase (exchange rounds first, final
    #: scatter last); entry ``g`` is group ``g``'s answering call seconds
    phase_seconds: list[list[float]] = field(default_factory=list)
    merge_seconds: float = 0.0
    fallback: str | None = None  #: why the query was evaluated locally
    degraded: bool = False  #: the fallback was forced by dead replicas
    detail: str = ""  #: the error behind ``fallback``

    def critical_path_seconds(self) -> float:
        """Per-phase maxima plus merge: the wall time a machine with one
        core per group would need (the scaling benchmark's metric)."""
        return (
            sum(max(phase) for phase in self.phase_seconds if phase)
            + self.merge_seconds
        )


@dataclass
class _Phase:
    """What every call of one scatter phase shares."""

    corpus: str
    texts: list[str]
    want: str
    bounds: dict[str, int | None]
    deadline_at: float | None
    budget: float | None
    trace: dict[str, Any] | None
    floor: int
    cancel: CancelToken | None
    stats: FrontierStats
    seconds: list[float]

    def timeout(self) -> QueryTimeout:
        """The caller's budget and the time spent since the run began."""
        return QueryTimeout(
            self.budget, elapsed=self.budget - (self.deadline_at - monotonic())
        )


class _HedgeBudget:
    """Token meter: hedges may not exceed ``budget`` × primary calls."""

    def __init__(self, budget: float):
        self.budget = budget
        self._lock = threading.Lock()
        self._primaries = 0
        self._hedges = 0

    def record_primary(self) -> None:
        with self._lock:
            self._primaries += 1

    def take(self) -> bool:
        if self.budget <= 0:
            return False
        with self._lock:
            if self._hedges + 1 <= self.budget * max(1, self._primaries):
                self._hedges += 1
                return True
            return False

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"primaries": self._primaries, "hedges": self._hedges}


class FrontierExecutor:
    """See the module docstring."""

    def __init__(
        self,
        nodes: Sequence[BackendNode],
        groups: int,
        replicas: int = 1,
        hedge_quantile: float = 0.95,
        hedge_min_seconds: float = 0.05,
        hedge_budget: float = 0.1,
        metrics: Any = None,
        tracer: Any = None,
    ):
        if groups < 1:
            raise ValueError("the frontier needs at least one shard group")
        if not nodes:
            raise ValueError("the frontier needs at least one backend node")
        self.nodes = list(nodes)
        self.groups = groups
        self.replicas = min(max(1, replicas), len(self.nodes))
        self.hedge_quantile = hedge_quantile
        self.hedge_min_seconds = hedge_min_seconds
        self._budget = _HedgeBudget(hedge_budget)
        self.tracer = tracer
        self._local = threading.local()
        self._by_id = {node.id: node for node in self.nodes}
        self._ring = HashRing([node.id for node in self.nodes])
        # Group fan-out and hedged calls run on separate pools so a
        # hedge can never deadlock behind the group tasks that need it.
        # Neither starts a thread until a transport that waits needs it.
        self._group_pool = ThreadPoolExecutor(
            max_workers=max(2, groups), thread_name_prefix="repro-frontier"
        )
        self._call_pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * groups + 2), thread_name_prefix="repro-hedge"
        )
        self._requests = self._rpc_seconds = self._fallbacks = None
        self._failovers = self._hedges = self._hedge_wins = None
        if metrics is not None:
            from repro.obs.metrics import (
                BACKEND_FAILOVERS_TOTAL,
                BACKEND_HEDGE_WINS_TOTAL,
                BACKEND_HEDGES_TOTAL,
                BACKEND_REQUESTS_TOTAL,
                BACKEND_RPC_SECONDS,
                FRONTIER_FALLBACK_TOTAL,
            )

            self._requests = metrics.counter(
                BACKEND_REQUESTS_TOTAL, help="backend RPCs by node and outcome"
            )
            self._rpc_seconds = metrics.histogram(BACKEND_RPC_SECONDS)
            self._failovers = metrics.counter(BACKEND_FAILOVERS_TOTAL)
            self._hedges = metrics.counter(BACKEND_HEDGES_TOTAL)
            self._hedge_wins = metrics.counter(BACKEND_HEDGE_WINS_TOTAL)
            self._fallbacks = metrics.counter(
                FRONTIER_FALLBACK_TOTAL,
                help="frontier queries answered by local evaluation, by reason",
            )

    # ------------------------------------------------------------------

    def close(self) -> None:
        self._group_pool.shutdown(wait=False, cancel_futures=True)
        self._call_pool.shutdown(wait=False, cancel_futures=True)
        for node in self.nodes:
            node.backend.close()

    @property
    def last_stats(self) -> FrontierStats | None:
        """This thread's most recent :meth:`run` or :meth:`query` stats."""
        return getattr(self._local, "stats", None)

    def replicas_for(self, corpus: str, group: int) -> list[BackendNode]:
        """The ring-ordered replica set serving ``(corpus, group)``."""
        ids = self._ring.nodes_for(f"{corpus}|{group}", self.replicas)
        return [self._by_id[node_id] for node_id in ids]

    def placement(self, corpora: Sequence[str]) -> dict[str, dict[str, list[str]]]:
        return {
            corpus: {
                str(group): [n.id for n in self.replicas_for(corpus, group)]
                for group in range(self.groups)
            }
            for corpus in corpora
        }

    def snapshot(self) -> dict[str, Any]:
        return {
            "groups": self.groups,
            "replicas": self.replicas,
            "hedge": {
                "quantile": self.hedge_quantile,
                "min_seconds": self.hedge_min_seconds,
                "budget": self._budget.budget,
                **self._budget.snapshot(),
            },
            "nodes": [node.snapshot() for node in self.nodes],
        }

    # ------------------------------------------------------------------
    # The query path.
    # ------------------------------------------------------------------

    def query(
        self,
        corpus: str,
        expr: A.Expr,
        evaluate_locally: Callable[[], RegionSet],
        deadline: float | None = None,
        floor: int = 0,
        cancel: CancelToken | None = None,
        fallback: str | None = None,
    ) -> tuple[RegionSet, FrontierStats]:
        """:meth:`run`, or ``evaluate_locally()`` where the frontier
        cannot answer: the one place that decides.

        ``unsupported`` (some slice cannot evaluate the plan soundly —
        e.g. a word occurrence spans a cut) and ``superseded`` (every
        replica of some group refused as already past the read's
        generation) are routine; ``unavailable`` (some group lost every
        replica) also sets ``stats.degraded``.
        A caller that already knows the query must run locally passes
        its reason as ``fallback`` and no backend is called.  Either way
        the reason lands in ``stats.fallback`` and in
        ``frontier_fallback_total{reason}``.
        """
        if fallback is None:
            try:
                with maybe_span(
                    self.tracer, "shard.query", mode="backend", groups=self.groups
                ):
                    return self.run(corpus, expr, deadline, floor, cancel)
            except (BackendUnsupportedError, BackendUnavailableError) as exc:
                stats = self._local.stats
                if isinstance(exc, BackendUnsupportedError):
                    fallback = "unsupported"
                elif exc.superseded:
                    fallback = "superseded"
                else:
                    fallback = "unavailable"
                    stats.degraded = True
                stats.detail = str(exc)
        else:
            stats = FrontierStats(groups=self.groups)
            self._local.stats = stats
        stats.fallback = fallback
        if self._fallbacks is not None:
            self._fallbacks.inc(reason=fallback)
        return evaluate_locally(), stats

    def run(
        self,
        corpus: str,
        expr: A.Expr,
        deadline: float | None = None,
        floor: int = 0,
        cancel: CancelToken | None = None,
    ) -> tuple[RegionSet, FrontierStats]:
        """Evaluate ``expr`` over all shard groups of ``corpus``.

        Same result as single-process evaluation.  A non-zero ``floor``
        stamps every backend call, exchange and ``sets`` phases alike,
        with the read's generation (see
        :meth:`~repro.backend.base.ShardBackend.shard_query`); a replica
        at any other generation fails over like any other backend
        failure, so the merged answer is that one generation's.  Raises
        :class:`~repro.errors.BackendUnsupportedError` (caller must
        evaluate locally), :class:`~repro.errors.BackendUnavailableError`
        (caller should evaluate locally and mark the response degraded),
        :class:`~repro.errors.QueryTimeout` (with ``deadline`` as the
        budget) or :class:`~repro.errors.QueryCancelled`.
        """
        stats = FrontierStats(groups=self.groups)
        self._local.stats = stats
        deadline_at = monotonic() + deadline if deadline is not None else None
        trace = _trace_context.current()
        trace_dict = trace.to_dict() if trace is not None else None
        plan = classify(expr)
        stats.rounds = plan.rounds

        def scatter(
            exprs: list[A.Expr], want: str, bounds: Mapping[A.Expr, int | None]
        ) -> list[list[Any]]:
            seconds = [0.0] * self.groups
            stats.phase_seconds.append(seconds)
            phase = _Phase(
                corpus, [to_text(e) for e in exprs], want,
                {to_text(node): value for node, value in bounds.items()},
                deadline_at, deadline, trace_dict, floor, cancel, stats, seconds,
            )
            return self._scatter(phase)

        def exchange(
            rights: list[A.Expr], bounds: Mapping[A.Expr, int | None]
        ) -> list[tuple[int | None, int | None]]:
            per_group = scatter(rights, "exchange", bounds)
            return [
                fold_extremes(p[j] for p in per_group)
                for j in range(len(rights))
            ]

        per_group = scatter([expr], "sets", resolve_bounds(plan, exchange))
        started = perf_counter()
        merged = merge_region_sets([_region_set(payload[0]) for payload in per_group])
        stats.merge_seconds = perf_counter() - started
        if self.tracer is not None and self.tracer.enabled:
            # Timed around the call rather than with an open span so the
            # merge itself runs unobserved; backdated under shard.query.
            self.tracer.record_span(
                "shard.merge",
                stats.merge_seconds,
                shards=self.groups,
                cardinality=len(merged),
            )
        return merged, stats

    # ------------------------------------------------------------------

    def _scatter(self, phase: _Phase) -> list[list[Any]]:
        """One phase: every group's payload, in group order.  Groups with
        a replica that waits run on the group pool, side by side; the
        rest run here, on the calling thread, while those wait.  The
        first error ends the phase: no further group is called here, and
        pool groups still running settle their own breakers."""
        futures: dict[int, Future] = {}
        if self.groups > 1:
            for group in range(self.groups):
                if self._waits(self.replicas_for(phase.corpus, group)):
                    futures[group] = self._group_pool.submit(
                        contextvars.copy_context().run,
                        self._call_group, phase, group,
                    )
        outs: list[list[Any]] = []
        try:
            for group in range(self.groups):
                future = futures.get(group)
                outs.append(
                    future.result()
                    if future is not None
                    else self._call_group(phase, group)
                )
        except BaseException:
            for future in futures.values():
                future.cancel()
            raise
        return outs

    @staticmethod
    def _waits(order: Sequence[BackendNode]) -> bool:
        return any(node.backend.waits for node in order)

    def _call_group(self, phase: _Phase, group: int) -> list[Any]:
        """One group's payload: a hedged first wave when a replica waits,
        then sequential failover over the untried replicas."""
        order = self.replicas_for(phase.corpus, group)
        tried: set[str] = set()
        # (node id, its error or why it was skipped), per replica
        attempts: list[tuple[str, Any]] = []
        node = self._next_replica(order, tried, attempts, phase.stats)
        if node is not None:
            self._budget.record_primary()
            if self._waits(order):
                payload = self._hedged_call(node, order, tried, attempts, phase, group)
                if payload is not None:
                    return payload
                node = self._next_replica(order, tried, attempts, phase.stats)
        while node is not None:
            tried.add(node.id)
            try:
                payload = self._invoke(node, phase, group)
                node.breaker.record_success()
                return payload
            except BackendError as exc:
                self._failed(node, exc, phase, attempts)
            node = self._next_replica(order, tried, attempts, phase.stats)
        raise BackendUnavailableError(
            phase.corpus,
            group,
            [f"{node_id}: {why}" for node_id, why in attempts],
            superseded=all(_past(why) for _, why in attempts),
        )

    def _next_replica(self, order, tried, attempts, stats) -> BackendNode | None:
        """The next untried replica whose breaker admits a call.

        ``allow()`` is consulted immediately before use — a half-open
        breaker's single probe slot must go to a call that actually
        happens."""
        for node in order:
            if node.id in tried:
                continue
            if node.breaker.allow():
                return node
            tried.add(node.id)
            stats.breaker_skips += 1
            attempts.append((node.id, "breaker open"))
        return None

    def _failed(self, node, exc, phase, attempts) -> None:
        _record_refusal(node, exc)
        if self._failovers is not None:
            self._failovers.inc(corpus=phase.corpus)
        phase.stats.failovers += 1
        attempts.append((node.id, exc))

    def _hedged_call(
        self, primary, order, tried, attempts, phase: _Phase, group: int
    ) -> list[Any] | None:
        """First wave: primary, plus one hedge if it dawdles.  Returns
        the winning payload, or ``None`` when the whole wave failed
        (sequential failover then continues over untried replicas)."""
        tried.add(primary.id)
        stats = phase.stats
        futures: dict[Future, BackendNode] = {
            self._call_pool.submit(
                contextvars.copy_context().run, self._invoke, primary, phase, group
            ): primary
        }
        hedge_node: BackendNode | None = None
        delay = self._hedge_delay(primary, phase.deadline_at)
        if delay is not None:
            done, _ = wait(set(futures), timeout=delay)
            if not done:
                hedge_node = self._next_replica(order, tried, attempts, stats)
                if hedge_node is not None and self._budget.take():
                    tried.add(hedge_node.id)
                    stats.hedges += 1
                    if self._hedges is not None:
                        self._hedges.inc(corpus=phase.corpus)
                    futures[
                        self._call_pool.submit(
                            contextvars.copy_context().run,
                            self._invoke, hedge_node, phase, group,
                        )
                    ] = hedge_node
                elif hedge_node is not None:
                    # Candidate consulted but not called: give back its
                    # untried status so failover can still use it.
                    tried.discard(hedge_node.id)
                    hedge_node = None
        pending = set(futures)
        winner: list[Any] | None = None
        while pending and winner is None:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                node = futures[future]
                try:
                    payload = future.result()
                except BackendError as exc:
                    self._failed(node, exc, phase, attempts)
                    continue
                except BaseException:
                    self._absorb_losers(pending, futures)
                    raise
                node.breaker.record_success()
                if winner is None:
                    winner = payload
                    if node is hedge_node:
                        stats.hedge_wins += 1
                        if self._hedge_wins is not None:
                            self._hedge_wins.inc(corpus=phase.corpus)
        self._absorb_losers(pending, futures)
        return winner

    def _absorb_losers(self, pending, futures) -> None:
        """Record late outcomes of abandoned calls on their breakers."""
        for future in pending:
            node = futures[future]

            def settle(f: Future, node: BackendNode = node) -> None:
                exc = f.exception()
                if exc is None:
                    node.breaker.record_success()
                elif isinstance(exc, BackendError):
                    _record_refusal(node, exc)

            future.add_done_callback(settle)

    def _hedge_delay(self, node: BackendNode, deadline_at) -> float | None:
        """How long to give the primary before hedging (None = never)."""
        if self._budget.budget <= 0 or len(self.nodes) < 2:
            return None
        quantile = node.latency_quantile(self.hedge_quantile)
        delay = max(self.hedge_min_seconds, quantile or 0.0)
        if deadline_at is not None:
            remaining = deadline_at - monotonic()
            if remaining <= 0:
                return None
            delay = min(delay, remaining)
        return delay

    # ------------------------------------------------------------------

    def _invoke(self, node: BackendNode, phase: _Phase, group: int) -> list[Any]:
        """One attempt against one node: cancel check, fault point,
        deadline math, latency/metric accounting, and trace adoption."""
        if phase.cancel is not None and phase.cancel.is_set():
            raise QueryCancelled()
        if _faults._active is not None:
            try:
                _faults._active.fire("backend.rpc")
            except FaultInjected as exc:
                if self._requests is not None:
                    self._requests.inc(node=node.id, outcome="fault")
                if self.tracer is not None and self.tracer.enabled:
                    # The call never left: record the fault-marked span
                    # the backend never got to open.
                    self.tracer.record_span(
                        "backend.rpc", 0.0, node=node.id, group=group, fault=True
                    )
                raise BackendError(f"backend {node.id}: {exc}") from exc
        remaining: float | None = None
        if phase.deadline_at is not None:
            remaining = phase.deadline_at - monotonic()
            if remaining <= 0:
                raise phase.timeout()
        started = perf_counter()
        try:
            result = node.backend.shard_query(
                phase.corpus, group, self.groups, phase.texts, phase.want,
                phase.bounds, deadline=remaining, trace=phase.trace,
                floor=phase.floor,
            )
        except BackendError as exc:
            if self._requests is not None:
                outcome = (
                    "lagging" if isinstance(exc, ReplicaLaggingError) else "error"
                )
                self._requests.inc(node=node.id, outcome=outcome)
            raise
        except QueryTimeout:
            if phase.deadline_at is None:
                raise
            raise phase.timeout() from None
        seconds = perf_counter() - started
        node.observe(seconds)
        phase.seconds[group] = seconds
        phase.stats.nodes_used.append(node.id)
        if self._requests is not None:
            self._requests.inc(node=node.id, outcome="ok")
        if self._rpc_seconds is not None:
            self._rpc_seconds.observe(seconds)
        if (
            result.span is not None
            and self.tracer is not None
            and getattr(self.tracer, "enabled", False)
        ):
            adopted = self.tracer.adopt(result.span)
            if adopted is not None:
                adopted.set("node", node.id)
        return result.payload
