"""Fault injection and resilience machinery (see ``docs/robustness.md``).

Three pieces:

* :mod:`repro.faults.registry` — a deterministic, seedable registry of
  named fault points sprinkled through storage, the evaluator, the
  admission gate, and the service cache.  Inactive (the production state)
  every point is one ``is None`` check.
* :mod:`repro.faults.retry` — bounded exponential-backoff retry and a
  per-corpus circuit breaker, used by the service around corpus
  (re)loads and job dispatch.
* :mod:`repro.faults.chaos` — the ``repro chaos`` harness: drive the
  load generator against a fault-injected service and check the
  invariants the paper's deletion/reduction theorems make checkable
  (no corrupted responses, bounded error rate, full recovery).
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
