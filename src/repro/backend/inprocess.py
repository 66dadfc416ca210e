"""Shard backends living in the frontier's own process.

Each :class:`InProcessBackend` is one logical node of a topology — the
service's in-process mode, or one segment of a
:class:`~repro.shard.ShardExecutor` — serving any ``(corpus, group)``
slice from a shared :class:`SliceProvider`.  In a service, that
provider cuts the slice from the snapshot the request captured, so an
in-process group never answers from a newer generation than the
request's own.
The frontier treats it like a remote backend — breakers, failover,
deadlines and the ``backend.rpc`` fault point all apply — which is what
makes single-process deployments and the test suite exercise the same
code paths as the subprocess topology.  It does not wait (see
:attr:`~repro.backend.base.ShardBackend.waits`), so its groups run on
the frontier's calling thread, unhedged, unless ``inject_latency``
makes it sleep.

Two plain attributes exist purely as fault hooks for tests, benches,
and chaos scenarios (real injected faults use the ``backend.rpc``
registry point, which fires frontier-side for every transport):

* ``inject_latency`` — seconds slept before evaluating, the "slow
  replica" hedging is tested against;
* ``fail_requests`` — the next N calls raise
  :class:`~repro.errors.BackendError`, a dead-replica stand-in.
"""

from __future__ import annotations

from time import sleep
from typing import Any, Mapping, Sequence

from repro.backend.base import BackendResult, ShardBackend, SliceProvider
from repro.errors import BackendError

__all__ = ["InProcessBackend"]


class InProcessBackend(ShardBackend):
    """See the module docstring."""

    def __init__(self, node_id: str, slices: SliceProvider):
        self.node_id = node_id
        self._slices = slices
        self.inject_latency = 0.0
        self.fail_requests = 0

    @property
    def waits(self) -> bool:
        """Only while ``inject_latency`` makes a call sleep: evaluating a
        slice is CPU work, which runs on the frontier's calling thread."""
        return self.inject_latency > 0

    def shard_query(
        self,
        corpus: str,
        group: int,
        groups: int,
        queries: Sequence[str],
        want: str,
        bounds: Mapping[str, int | None],
        deadline: float | None = None,
        trace: Mapping[str, Any] | None = None,
        floor: int = 0,
    ) -> BackendResult:
        if self.fail_requests > 0:
            self.fail_requests -= 1
            raise BackendError(f"backend {self.node_id}: injected failure")
        if self.inject_latency > 0:
            sleep(self.inject_latency)
        # The ``backend.query`` span lands directly in the frontier's
        # tracer (same process, contextvars carried the parent in), so
        # it is not shipped back for adoption as a subprocess's is.  A
        # lagging slice cannot happen in a healthy in-process topology
        # (slices come from the request's own snapshot) — but the
        # contract is uniform, so tests can drive that path here too.
        result, _span = self._slices.shard_query(
            self.node_id,
            corpus,
            group,
            groups,
            queries,
            want,
            bounds,
            deadline=deadline,
            floor=floor,
        )
        return result

    # ------------------------------------------------------------------
    # Replication: an in-process node reads the frontier's own corpus
    # snapshots, so every committed batch is visible the moment it is
    # installed — shipping is acknowledged as already-applied.
    # ------------------------------------------------------------------

    def replicate_apply(
        self,
        corpus: str,
        seq: int,
        ops: Sequence[Mapping[str, Any]],
        generation: int,
        checksum: str,
    ) -> dict[str, Any]:
        return {"corpus": corpus, "applied": generation, "status": "applied"}

    def replicate_snapshot(
        self, corpus: str, state: Mapping[str, Any], generation: int
    ) -> dict[str, Any]:
        return {"corpus": corpus, "applied": generation, "status": "applied"}

    def replicate_status(self, corpus: str, groups: int) -> dict[str, Any]:
        applied, checksums = self._slices.group_checksums(corpus, groups)
        return {"corpus": corpus, "applied": applied, "checksums": checksums}

    def describe(self) -> dict[str, Any]:
        return {"node": self.node_id, "transport": "inprocess"}
