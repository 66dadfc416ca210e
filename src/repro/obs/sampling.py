"""Trace retention policy: head sampling plus a tail-keep ring.

Tracing every request at full operator detail is unaffordable at
serving volume, but dropping traces uniformly at random loses exactly
the ones worth reading — the slow tail, the errors, the requests a
fault-injection campaign touched.  This module implements the standard
two-sided compromise:

* **Head sampling** (:class:`HeadSampler`) decides *at request start*,
  deterministically from the trace id, whether the request records
  per-operator ``eval.*`` detail.  The decision is made before any work
  happens, so the whole distributed trace — across thread and process
  pools — agrees on it without coordination.
* **Tail keeping** (:class:`TraceStore`) decides *at request end* what
  to retain.  Head-sampled traces go to one bounded ring; traces that
  turned out slow, errored, or fault-marked are *always* kept in a
  separate ring, so a burst of ordinary sampled traffic can never evict
  the interesting tail.

Every finished request trace is offered to the store; the keep decision
and its reasons come back so the caller can attach an exemplar to the
latency histogram only when the trace is actually retrievable.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.obs.trace import Span, span_to_dict

__all__ = [
    "HeadSampler",
    "KeptTrace",
    "TraceStore",
    "KEEP_SAMPLED",
    "KEEP_SLOW",
    "KEEP_ERROR",
    "KEEP_FAULT",
]

#: Keep reasons, in the order they appear in ``KeptTrace.reasons``.
KEEP_ERROR = "error"  #: request finished with a 5xx status
KEEP_SLOW = "slow"  #: duration crossed the slow threshold
KEEP_FAULT = "fault"  #: some span carries a ``fault`` attribute
KEEP_SAMPLED = "sampled"  #: head-sampling said yes at request start


class HeadSampler:
    """A deterministic per-trace coin flip.

    The first eight hex digits of the trace id are read as a uniform
    32-bit draw; a trace is sampled when that draw falls below ``rate``.
    Determinism matters: every participant in the trace — coordinator
    threads, shard processes — recomputes or inherits the same decision,
    and replaying a trace id in a test reproduces it exactly.
    """

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate

    def sample(self, trace_id: str) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        try:
            draw = int(trace_id[:8], 16)
        except ValueError:
            return False
        return draw / 0x100000000 < self.rate


@dataclass
class KeptTrace:
    """One retained request trace plus the metadata the UIs sort by."""

    trace_id: str
    root: Span
    reasons: tuple[str, ...]
    duration: float
    endpoint: str
    status: str
    fault_spans: int
    finished_at: float = field(default_factory=time.time)

    def to_summary(self) -> dict[str, Any]:
        """The listing row (``/debug/traces``, dashboards)."""
        return {
            "trace_id": self.trace_id,
            "reasons": list(self.reasons),
            "duration": self.duration,
            "endpoint": self.endpoint,
            "status": self.status,
            "fault_spans": self.fault_spans,
            "finished_at": self.finished_at,
            "spans": sum(1 for _ in self.root.walk()),
        }

    def to_dict(self) -> dict[str, Any]:
        """The full stitched tree (``/debug/trace/<id>``)."""
        return {**self.to_summary(), "root": span_to_dict(self.root)}


class TraceStore:
    """Bounded retention for finished request traces.

    Two rings, both insertion-ordered and evicting oldest-first:
    ``sampled`` holds traces kept only because head sampling said so;
    ``tail`` holds traces kept for cause (slow, error, fault).  A trace
    with both a tail reason and the sampled flag lands in the tail ring —
    cause-kept traces must survive sampled churn, and sizing the tail
    ring is how an operator bounds worst-case memory during incidents.
    """

    def __init__(
        self,
        capacity: int = 256,
        tail_capacity: int = 256,
        slow_threshold: float = 0.25,
    ):
        if capacity < 1 or tail_capacity < 1:
            raise ValueError("trace store capacities must be >= 1")
        self.capacity = capacity
        self.tail_capacity = tail_capacity
        self.slow_threshold = slow_threshold
        self._sampled: OrderedDict[str, KeptTrace] = OrderedDict()
        self._tail: OrderedDict[str, KeptTrace] = OrderedDict()
        self._lock = threading.Lock()
        self.kept = 0
        self.dropped = 0
        self.evicted = 0

    # ------------------------------------------------------------------

    def offer(
        self,
        trace_id: str,
        root: Span,
        *,
        sampled: bool,
        endpoint: str = "query",
        status: str = "200",
        error: bool = False,
    ) -> tuple[str, ...]:
        """Decide retention for one finished request trace.

        Returns the keep reasons (empty tuple means dropped).  ``error``
        is the caller's verdict on the request outcome; slow and fault
        reasons are derived from the span tree itself.
        """
        duration = root.duration
        fault_spans = sum(
            1 for span in root.walk() if span.attributes.get("fault")
        )
        reasons: list[str] = []
        if error:
            reasons.append(KEEP_ERROR)
        if duration >= self.slow_threshold:
            reasons.append(KEEP_SLOW)
        if fault_spans:
            reasons.append(KEEP_FAULT)
        tail = bool(reasons)
        if sampled:
            reasons.append(KEEP_SAMPLED)
        if not reasons:
            self.dropped += 1
            return ()

        kept = KeptTrace(
            trace_id=trace_id,
            root=root,
            reasons=tuple(reasons),
            duration=duration,
            endpoint=endpoint,
            status=status,
            fault_spans=fault_spans,
        )
        with self._lock:
            ring, limit = (
                (self._tail, self.tail_capacity)
                if tail
                else (self._sampled, self.capacity)
            )
            ring[trace_id] = kept
            while len(ring) > limit:
                ring.popitem(last=False)
                self.evicted += 1
        self.kept += 1
        return kept.reasons

    # ------------------------------------------------------------------

    def get(self, trace_id: str) -> KeptTrace | None:
        with self._lock:
            return self._tail.get(trace_id) or self._sampled.get(trace_id)

    def all(self) -> list[KeptTrace]:
        """Every retained trace, newest first."""
        with self._lock:
            traces = list(self._tail.values()) + list(self._sampled.values())
        traces.sort(key=lambda t: t.finished_at, reverse=True)
        return traces

    def slowest(self, n: int = 5) -> list[KeptTrace]:
        """The ``n`` longest retained traces, slowest first."""
        traces = self.all()
        traces.sort(key=lambda t: t.duration, reverse=True)
        return traces[:n]

    def summaries(
        self, limit: int = 50, sort: str = "recent"
    ) -> list[dict[str, Any]]:
        traces = self.slowest(limit) if sort == "slowest" else self.all()[:limit]
        return [trace.to_summary() for trace in traces]

    def fault_marked(self) -> list[KeptTrace]:
        """Retained traces containing at least one fault-marked span."""
        return [trace for trace in self.all() if trace.fault_spans]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            sampled, tail = len(self._sampled), len(self._tail)
        return {
            "sampled_ring": sampled,
            "tail_ring": tail,
            "kept": self.kept,
            "dropped": self.dropped,
            "evicted": self.evicted,
        }

    def clear(self) -> None:
        with self._lock:
            self._sampled.clear()
            self._tail.clear()
