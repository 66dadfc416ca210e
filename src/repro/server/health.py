"""The service's healthy / degraded / unhealthy state machine.

:class:`HealthMonitor` watches the *worker-path* outcome of every query
— success, timeout, injected fault, worker crash — over a sliding time
window and classifies the service:

* **healthy** — error rate below ``degraded_threshold``;
* **degraded** — error rate above it, or external pressure (an open
  corpus circuit breaker).  The service keeps answering but turns on
  its degraded behaviour: a cache miss may be served a stale entry;
* **unhealthy** — error rate above ``unhealthy_threshold``.  The
  service sheds load (``503`` + ``Retry-After``) except for a trickle
  of probe requests, so it can observe recovery without being buried.

Only worker-path failures count: client mistakes (parse errors, unknown
corpora), admission rejections, and the sheds the monitor itself causes
are excluded — otherwise shedding would keep the error rate high and
the service could never climb back out (the classic health-check death
spiral).

Clock-injectable, and the window is the SLO monitors' bucketed
:class:`~repro.obs.slo.SlidingWindow` (so health can take up to one
bucket, 1/60 of the window, longer than ``window_seconds`` to heal, and
its memory does not grow with the request rate); the service mirrors
state into ``server_health_state`` / ``server_health_transitions_total``
and keeps the transition history that the chaos harness asserts on
(healthy → degraded → healthy across a fault burst).
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Any, Callable

from repro.obs.slo import SlidingWindow

__all__ = ["HealthMonitor", "HEALTHY", "DEGRADED", "UNHEALTHY"]

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

#: Gauge encoding for ``server_health_state``.
STATE_VALUES = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}


class HealthMonitor:
    """Sliding-window error-rate classifier (see module docstring).

    ``min_samples`` outcomes must be in the window before the monitor
    will leave ``healthy`` — a single early failure is not an outage.
    When unhealthy, :meth:`should_shed` lets every ``probe_interval``-th
    request through as a probe.
    """

    def __init__(
        self,
        window_seconds: float = 10.0,
        degraded_threshold: float = 0.10,
        unhealthy_threshold: float = 0.50,
        min_samples: int = 10,
        probe_interval: int = 10,
        clock: Callable[[], float] = monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        if not (0.0 < degraded_threshold <= unhealthy_threshold <= 1.0):
            raise ValueError(
                "thresholds must satisfy 0 < degraded <= unhealthy <= 1"
            )
        if window_seconds <= 0:
            raise ValueError("window must be positive seconds")
        self.window_seconds = window_seconds
        self.degraded_threshold = degraded_threshold
        self.unhealthy_threshold = unhealthy_threshold
        self.min_samples = max(1, min_samples)
        self.probe_interval = max(2, probe_interval)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        #: worker-path outcomes, failed ones counted as bad.
        self._window = SlidingWindow(window_seconds)
        self._state = HEALTHY
        #: active pressure sources -> the state they force (at minimum).
        self._pressure: dict[str, str] = {}
        self._requests_seen = 0
        self._transitions: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------

    def record_success(self) -> None:
        self._record(False)

    def record_failure(self) -> None:
        self._record(True)

    def _record(self, failed: bool) -> None:
        with self._lock:
            self._window.add(self._clock(), failed)
            self._reclassify()

    def set_pressure(
        self, source: str, active: bool, severity: str = DEGRADED
    ) -> None:
        """External degradation pressure — e.g. ``breaker:<corpus>``
        while that corpus's circuit breaker is open, or ``slo:<name>``
        while an SLO fast-burn alert fires.  Any active source forces
        the state to at least its ``severity`` (``DEGRADED`` by
        default; ``UNHEALTHY`` additionally sheds load)."""
        if severity not in (DEGRADED, UNHEALTHY):
            raise ValueError(f"pressure severity must be degraded/unhealthy, got {severity!r}")
        with self._lock:
            if active:
                self._pressure[source] = severity
            else:
                self._pressure.pop(source, None)
            self._reclassify()

    # ------------------------------------------------------------------

    def _reclassify(self) -> None:
        now = self._clock()
        rate, samples = self._window.rate(now)
        forced = UNHEALTHY if UNHEALTHY in self._pressure.values() else None
        if forced == UNHEALTHY or (
            samples >= self.min_samples and rate >= self.unhealthy_threshold
        ):
            new = UNHEALTHY
        elif (
            samples >= self.min_samples and rate >= self.degraded_threshold
        ) or self._pressure:
            new = DEGRADED
        else:
            new = HEALTHY
        if new != self._state:
            old, self._state = self._state, new
            self._transitions.append((now, old, new))
            if self._on_transition is not None:
                self._on_transition(old, new)

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._reclassify()  # time passing alone can heal the window
            return self._state

    def should_shed(self) -> bool:
        """Called once per incoming query.  ``True`` = reject with 503.

        Only sheds while unhealthy, and even then lets every
        ``probe_interval``-th request through so recovery is observable.
        """
        with self._lock:
            self._reclassify()
            if self._state != UNHEALTHY:
                return False
            self._requests_seen += 1
            return self._requests_seen % self.probe_interval != 0

    def transitions(self) -> list[tuple[float, str, str]]:
        """(timestamp, old, new) history, oldest first."""
        with self._lock:
            return list(self._transitions)

    def states_seen(self) -> list[str]:
        """The sequence of states the monitor has been in, in order."""
        with self._lock:
            return [HEALTHY] + [new for _, _, new in self._transitions]

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            self._reclassify()
            now = self._clock()
            rate, samples = self._window.rate(now)
            return {
                "state": self._state,
                "error_rate": round(rate, 4),
                "window_samples": samples,
                "window_seconds": self.window_seconds,
                "pressure": sorted(self._pressure),
                "transitions": len(self._transitions),
            }
