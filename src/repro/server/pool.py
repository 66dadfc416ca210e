"""Admission control: a gate each request passes on its own thread.

The HTTP server is already thread-per-connection and deadlines are
cooperative, so a request needs no second thread to evaluate on — it
needs a *bound*.  A request that finds every place taken is rejected on
the spot (``429`` and a ``Retry-After`` estimate from observed service
times), so saturation sheds load early instead of slowing every request.
"""

from __future__ import annotations

import threading
from time import monotonic, perf_counter
from typing import Any, Callable

from repro.errors import QueryTimeout, ServerOverloadedError

__all__ = ["AdmissionGate"]


class AdmissionGate:
    """At most ``workers`` requests run at once (run slots) and at most
    ``queue_depth`` more wait for a slot.
    """

    def __init__(self, workers: int = 4, queue_depth: int = 16):
        if workers < 1:
            raise ValueError("admission gate needs at least one run slot")
        if queue_depth < 0:
            raise ValueError("queue depth cannot be negative")
        self.workers = workers
        self.queue_depth = queue_depth
        self._admission = threading.Semaphore(workers + queue_depth)
        self._slots = threading.Semaphore(workers)
        self._lock = threading.Lock()
        self._closed = False
        self._waiting = self._inflight = 0
        self._completed = self._rejected = 0
        # EWMA of service time, seeding the Retry-After estimate.
        self._ewma_seconds = 0.05

    def run(self, fn: Callable[[float], Any], budget: float) -> Any:
        """Call ``fn(queued_seconds)`` on this thread, holding a run slot.

        Raises :class:`ServerOverloadedError` without waiting when all
        ``workers + queue_depth`` places are taken, and
        :class:`QueryTimeout` when no slot frees up within ``budget``
        seconds.  ``queued_seconds`` is the time spent waiting for the
        slot, for ``fn`` to charge against the same budget.
        """
        if self._closed:
            raise ServerOverloadedError("admission gate is closed", retry_after=1.0)
        if not self._admission.acquire(blocking=False):
            with self._lock:
                self._rejected += 1
                # The backlog ahead of a new arrival over the drain
                # rate, floored at 100ms.
                backlog = self._waiting + self.workers
                retry_after = max(0.1, backlog * self._ewma_seconds / self.workers)
            raise ServerOverloadedError(
                f"query queue is full ({self.queue_depth} waiting, "
                f"{self.workers} running)",
                retry_after=round(retry_after, 3),
            )
        try:
            admitted_at = monotonic()
            if not self._slots.acquire(blocking=False):
                self._note_waiting(1)
                acquired = self._slots.acquire(timeout=budget)
                self._note_waiting(-1)
                if not acquired:
                    raise QueryTimeout(budget)
            try:
                return self._run_in_slot(fn, monotonic() - admitted_at)
            finally:
                self._slots.release()
        finally:
            self._admission.release()

    def _run_in_slot(self, fn: Callable[[float], Any], queued: float) -> Any:
        with self._lock:
            self._inflight += 1
        started = perf_counter()
        try:
            return fn(queued)
        finally:
            elapsed = perf_counter() - started
            with self._lock:
                self._inflight -= 1
                self._completed += 1
                self._ewma_seconds += 0.2 * (elapsed - self._ewma_seconds)

    def _note_waiting(self, delta: int) -> None:
        with self._lock:
            self._waiting += delta

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "waiting": self._waiting,
                "inflight": self._inflight,
                "completed": self._completed,
                "rejected": self._rejected,
                "ewma_seconds": self._ewma_seconds,
            }

    def close(self) -> None:
        """Stop admitting, then wait (at most ten seconds) for every
        admitted request to leave."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = monotonic() + 10.0
        for _ in range(self.workers + self.queue_depth):
            if not self._admission.acquire(timeout=max(0.0, deadline - monotonic())):
                break
