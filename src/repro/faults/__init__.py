"""Fault injection and resilience machinery (see ``docs/robustness.md``).

On the serving path:

* :mod:`repro.faults.registry` — a deterministic, seedable registry of
  named fault points sprinkled through storage, the evaluator, the
  VM, the service cache, backend calls and replication.  Inactive (the
  production state) every point is one ``is None`` check.
* :mod:`repro.faults.retry` — bounded exponential-backoff retry and a
  circuit breaker, used by the service around corpus (re)loads and by
  the frontier per backend node.

Behind ``repro chaos`` (imported on demand, never by the service):

* :mod:`repro.faults.scenario` — the chaos scenario engine: a run is
  phases × fault schedule × workload × oracle × invariants, with one
  collector verifying every ``200`` against the paper's oracles (the
  fault-free baseline and Thm 4.4's reduced instance, or a mirror of the
  acknowledged writes rebuilt from scratch).
* :mod:`repro.faults.chaos` — the four modes (``service``,
  ``backend-kill``, ``ingest``, ``replication``) declared over it, and
  :func:`~repro.faults.chaos.run_chaos`.
"""

from repro.faults.registry import (
    FAULT_MODES,
    FAULT_POINTS,
    FaultRegistry,
    FaultSpec,
    activate,
    active,
    deactivate,
    fire,
    injected_faults,
)
from repro.faults.retry import CircuitBreaker, RetryPolicy, retry_call

__all__ = [
    "FAULT_MODES",
    "FAULT_POINTS",
    "FaultRegistry",
    "FaultSpec",
    "activate",
    "active",
    "deactivate",
    "fire",
    "injected_faults",
    "CircuitBreaker",
    "RetryPolicy",
    "retry_call",
]
