"""The background segment compactor.

A single daemon thread that periodically asks for compaction
*candidates* — corpora with live state (ingest-enabled ones and
replicas) whose small-segment count crossed the size-tier trigger, or
that carry tombstones — and compacts **at
most one corpus per tick** (the rate limit: compaction holds the
corpus's writer lock and burns CPU re-checkpointing, so it must trickle
rather than storm).  When the :class:`~repro.server.health.HealthMonitor`
reports anything other than ``healthy`` the tick yields entirely:
query load and recovery always win over maintenance.

The compactor never touches corpus state itself — it only calls back
into the service, which owns the per-corpus locking, the WAL
checkpoint, and the metrics.  That keeps this module free of any
ordering assumptions and makes :meth:`run_once` trivially testable.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["BackgroundCompactor"]


class BackgroundCompactor:
    """Drive ``compact(name)`` over ``candidates()`` on a timer."""

    def __init__(
        self,
        candidates: Callable[[], list[str]],
        compact: Callable[[str], object],
        *,
        interval: float = 5.0,
        health: object | None = None,
    ):
        if interval <= 0:
            raise ValueError("compaction interval must be positive")
        self._candidates = candidates
        self._compact = compact
        self._interval = interval
        self._health = health
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0
        self.yields = 0
        self.runs = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-compactor", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.run_once()
            except Exception:  # pragma: no cover - defensive
                # Maintenance must never take the server down; a failed
                # compaction leaves the corpus exactly as it was and the
                # next tick tries again.
                pass

    # ------------------------------------------------------------------

    def run_once(self) -> str | None:
        """One tick: yield under load pressure, else compact the first
        candidate.  Returns the compacted corpus name, or ``None``."""
        self.ticks += 1
        health = self._health
        if health is not None and getattr(health, "state", "healthy") != "healthy":
            self.yields += 1
            return None
        candidates = self._candidates()
        if not candidates:
            return None
        name = candidates[0]
        self._compact(name)
        self.runs += 1
        return name
