"""Multi-process shard backends behind a frontier.

This package holds the one scatter-gather executor and the shard
groups it scatters to, as independent **backends** — in the frontier's
own process or in others, so the serving layer survives the death of a
whole evaluation process:

* :mod:`repro.backend.base` — the transport-agnostic
  :class:`ShardBackend` interface, plus the slice machinery both
  implementations share: a backend serves group ``g`` of a corpus
  partitioned into ``G`` groups, evaluating rewritten sub-plans (the
  same text-protocol exchange rounds the in-process executor runs)
  against its restricted sub-instance;
* :mod:`repro.backend.inprocess` — backends as plain objects in the
  frontier's process (behind :class:`~repro.shard.ShardExecutor`, the
  service's in-process mode, and the test/bench harness for failover
  and hedging);
* :mod:`repro.backend.httpclient` — backends as separate ``repro
  serve`` subprocesses spoken to over ``POST /shard/query`` with
  deadline and trace context propagated in headers;
* :mod:`repro.backend.ring` — consistent-hash placement of
  ``(corpus, group)`` onto R of N backend nodes;
* :mod:`repro.backend.frontier` — the one scatter-gather executor,
  with per-backend circuit breakers, replica failover, hedged requests,
  and the local-fallback decision;
* :mod:`repro.backend.supervisor` — subprocess lifecycle: spawn, watch,
  respawn after a crash (and SIGKILL on demand, for the chaos harness);
* :mod:`repro.backend.replication` — WAL log shipping of committed
  ingest batches to every backend replica, exact-generation reads,
  snapshot repair for nodes off the frontier's generation, and the
  periodic anti-entropy checksum sweep.

``docs/server.md`` ("Topology & failover") is the operator guide;
``docs/robustness.md`` documents the backend-kill chaos mode.
"""

from repro.backend.base import (
    BackendResult,
    ShardBackend,
    SliceProvider,
    evaluate_slice,
    slice_checksum,
)
from repro.backend.frontier import BackendNode, FrontierExecutor, FrontierStats
from repro.backend.httpclient import HTTPBackend
from repro.backend.inprocess import InProcessBackend
from repro.backend.replication import ReplicationCoordinator
from repro.backend.ring import HashRing
from repro.backend.supervisor import BackendSupervisor

__all__ = [
    "BackendNode",
    "BackendResult",
    "BackendSupervisor",
    "FrontierExecutor",
    "FrontierStats",
    "HTTPBackend",
    "HashRing",
    "InProcessBackend",
    "ReplicationCoordinator",
    "ShardBackend",
    "SliceProvider",
    "evaluate_slice",
    "slice_checksum",
]
