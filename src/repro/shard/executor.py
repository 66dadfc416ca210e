"""``Engine(shards=K)``'s scatter-gather: a frontier over K in-process
backends.

:class:`ShardExecutor` owns the partition of one instance (cut once, at
construction) and runs every query through the one scatter-gather body,
:class:`~repro.backend.frontier.FrontierExecutor`: one
:class:`~repro.backend.inprocess.InProcessBackend` per segment, every
group on the calling thread, each ``<``/``>`` resolved by one exchanged
scalar per cut, the per-group answers k-way merged.

Failure policy is the frontier's: with two or more segments every group
has two replicas, so a failed call (fault point ``backend.rpc``) fails
over to the sibling node; a group with no replica left, or a plan no
slice can answer soundly (a match point spanning a cut, a label-only
word index), is evaluated locally on the whole instance, as is every
query over a one-segment partition.  ``last_stats.fallback`` says which
(``unavailable``, ``unsupported`` or ``single_segment``).

Deadlines and cancel tokens: the deadline bounds every call, in flight
or not, and an expired one raises :class:`~repro.errors.QueryTimeout`
carrying the caller's budget; the cancel token is checked before every
call attempt and by the local fallback, not inside a slice already
evaluating.
"""

from __future__ import annotations

from time import monotonic
from typing import TYPE_CHECKING, Any

from repro.algebra import ast as A
from repro.algebra.evaluator import CancelToken, Evaluator
from repro.algebra.parser import parse
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.errors import EvaluationError, QueryTimeout, ReproError
from repro.shard.partition import Partition, partition_instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.frontier import FrontierStats
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

__all__ = ["ShardExecutor"]

#: The corpus name the executor's own slice provider serves.
_CORPUS = "engine"


class ShardExecutor:
    """Scatter-gather evaluation over a partitioned instance.

    ``pool`` accepts only ``"thread"``: the name survives for callers
    that still spell it; there is no pool behind it.
    """

    def __init__(
        self,
        instance: Instance,
        shards: int,
        pool: str = "thread",
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        # repro.backend builds on repro.shard, so it is imported here.
        from repro.backend.base import SliceProvider
        from repro.backend.frontier import BackendNode, FrontierExecutor
        from repro.backend.inprocess import InProcessBackend
        from repro.faults.retry import CircuitBreaker

        if pool != "thread":
            raise ReproError(f"unknown shard pool {pool!r} (available: thread)")
        self.partition: Partition = partition_instance(instance, shards)
        self._instance = instance
        self._evaluator = Evaluator(tracer=tracer, metrics=metrics)
        slices = SliceProvider(
            lambda corpus: (instance, 0), tracer=tracer, metrics=metrics
        )
        slices.install(_CORPUS, 0, self.partition)
        groups = len(self.partition)
        self._frontier = FrontierExecutor(
            [
                BackendNode(InProcessBackend(f"shard{i}", slices), CircuitBreaker())
                for i in range(groups)
            ],
            groups=groups,
            replicas=2,
            metrics=metrics,
            tracer=tracer,
        )

    def close(self) -> None:
        self._frontier.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def last_stats(self) -> "FrontierStats | None":
        """This thread's most recent :meth:`run` accounting."""
        return self._frontier.last_stats

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
        started = monotonic()

        def evaluate_locally() -> RegionSet:
            try:
                remaining = None
                if deadline is not None:
                    remaining = deadline - (monotonic() - started)
                    if remaining <= 0:
                        raise QueryTimeout(deadline)
                return self._evaluator.evaluate(
                    expr, self._instance, deadline=remaining, cancel=cancel
                )
            except QueryTimeout:
                # The caller's budget, whichever part of the run spent it.
                raise QueryTimeout(deadline, elapsed=monotonic() - started) from None

        result, _ = self._frontier.query(
            _CORPUS,
            expr,
            evaluate_locally,
            deadline=deadline,
            cancel=cancel,
            fallback="single_segment" if len(self.partition) <= 1 else None,
        )
        return result
