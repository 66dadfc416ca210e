"""Service-level objectives and multi-window burn-rate monitoring.

`/metrics` says what the service *is doing*; this module says whether
that is *good enough*.  An :class:`SLObjective` declares a target over a
service-level indicator — availability (the fraction of counted
requests that do not fail server-side) or latency (the fraction of
successful requests under a threshold).  The gap between the objective
and 1.0 is the **error budget**; the **burn rate** is how fast current
traffic is spending it:

    burn = bad_fraction / (1 - objective)

Burn 1.0 spends exactly the budget over the SLO period; burn 10 spends
it ten times too fast.  Following the standard multi-window rule, a
:class:`BurnRateMonitor` raises its *fast-burn* signal only when **both**
a short window (sensitive, noisy) and a long window (stable, slow to
clear) exceed the burn threshold with enough samples — the long window
suppresses blips, the short window makes recovery prompt.

The :class:`SLOObservatory` owns one monitor per objective, classifies
each finished request into good/bad per SLI, and reports through two
channels: a JSON snapshot for the ``/slo`` endpoint and ``repro top``,
and an ``on_burn_change`` callback the query service wires to
:meth:`HealthMonitor.set_pressure` so a fast burn degrades (or, if
configured, sheds) the service before the budget is gone.

The per-request cost is deliberately tiny — two bucket increments and
O(1) window arithmetic, in memory that does not grow with the request
rate (:class:`SlidingWindow`) — because :mod:`bench_e15` holds the whole
request path to <1% overhead with tracing disabled.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Any, Callable

__all__ = [
    "SLObjective",
    "SlidingWindow",
    "BurnRateMonitor",
    "SLOObservatory",
]


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective over a service-level indicator."""

    name: str
    sli: str  #: "availability" or "latency"
    objective: float  #: target good fraction, e.g. 0.99
    latency_threshold: float | None = None  #: seconds; latency SLI only

    def __post_init__(self) -> None:
        if self.sli not in ("availability", "latency"):
            raise ValueError(f"unknown SLI kind {self.sli!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective for {self.name!r} must be in (0, 1), "
                f"got {self.objective}"
            )
        if self.sli == "latency" and (
            self.latency_threshold is None or self.latency_threshold <= 0
        ):
            raise ValueError(
                f"latency objective {self.name!r} needs a positive threshold"
            )

    @property
    def budget(self) -> float:
        """The tolerated bad fraction, ``1 - objective``."""
        return 1.0 - self.objective

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "sli": self.sli,
            "objective": self.objective,
            "latency_threshold": self.latency_threshold,
        }


#: Buckets per window.  A window of ``seconds`` resolves time to
#: ``seconds / WINDOW_BUCKETS`` (1 s, 5 s and 1/6 s for the default 60 s,
#: 300 s and 10 s windows), and retains at most one bucket more.
WINDOW_BUCKETS = 60


class SlidingWindow:
    """A sliding time window of good/bad events with O(1) rates.

    Events are counted into ``[bucket_index, count, bad]`` time buckets,
    oldest first, so memory is bounded by ``WINDOW_BUCKETS + 1`` however
    fast events arrive.  A bucket stays while any instant of it is inside
    the window: every event younger than ``seconds`` is counted, and an
    event can outlive ``seconds`` by at most one bucket width.  Running
    totals make the bad-rate a division, not a scan.
    """

    __slots__ = ("seconds", "_width", "_buckets", "_count", "_bad")

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._width = seconds / WINDOW_BUCKETS
        self._buckets: deque[list[float]] = deque()
        self._count = 0
        self._bad = 0

    def add(self, now: float, bad: bool) -> None:
        index = now // self._width
        buckets = self._buckets
        # ``<``, not ``!=``: callers read the clock before taking their
        # lock, so ``now`` can step back by a race's width; such an event
        # joins the newest bucket and the deque stays sorted.
        if not buckets or buckets[-1][0] < index:
            self._expire(index)  # only a new bucket can push one out
            buckets.append([index, 0, 0])
        newest = buckets[-1]
        newest[1] += 1
        newest[2] += bad
        self._count += 1
        self._bad += bad

    def _expire(self, index: float) -> None:
        """Drop the buckets wholly older than the window ending in
        bucket ``index``."""
        horizon = index - WINDOW_BUCKETS
        buckets = self._buckets
        while buckets and buckets[0][0] < horizon:
            _, count, bad = buckets.popleft()
            self._count -= count
            self._bad -= bad

    def rate(self, now: float) -> tuple[float, int]:
        """``(bad_fraction, sample_count)`` over the live window."""
        self._expire(now // self._width)
        if self._count == 0:
            return 0.0, 0
        return self._bad / self._count, self._count


class BurnRateMonitor:
    """Multi-window burn-rate detection for one objective.

    ``record(bad)`` feeds both windows and re-evaluates the fast-burn
    condition; transitions fire ``on_change(active)`` outside the lock.
    The activation count survives deactivation — chaos invariants assert
    on it rather than racing the live flag.
    """

    def __init__(
        self,
        objective: SLObjective,
        fast_window: float = 60.0,
        slow_window: float = 300.0,
        burn_threshold: float = 10.0,
        min_samples: int = 10,
        clock: Callable[[], float] = monotonic,
        on_change: Callable[[bool], None] | None = None,
    ):
        if not 0 < fast_window <= slow_window:
            raise ValueError("need 0 < fast_window <= slow_window")
        if burn_threshold <= 0:
            raise ValueError("burn threshold must be positive")
        self.objective = objective
        self.burn_threshold = burn_threshold
        self.min_samples = min_samples
        self._fast = SlidingWindow(fast_window)
        self._slow = SlidingWindow(slow_window)
        self._clock = clock
        self._on_change = on_change
        self._lock = threading.Lock()
        self._active = False
        self.activations = 0
        self.events = 0
        self.bad_events = 0

    # ------------------------------------------------------------------

    def record(self, bad: bool) -> None:
        now = self._clock()
        fired: bool | None = None
        with self._lock:
            self._fast.add(now, bad)
            self._slow.add(now, bad)
            self.events += 1
            if bad:
                self.bad_events += 1
            fired = self._reevaluate(now)
        if fired is not None and self._on_change is not None:
            self._on_change(fired)

    def _reevaluate(self, now: float) -> bool | None:
        """Recompute the fast-burn flag; returns the new state on a
        transition, ``None`` when unchanged.  Caller holds the lock."""
        fast_rate, fast_n = self._fast.rate(now)
        slow_rate, slow_n = self._slow.rate(now)
        budget = self.objective.budget
        active = (
            fast_n >= self.min_samples
            and slow_n >= self.min_samples
            and fast_rate / budget >= self.burn_threshold
            and slow_rate / budget >= self.burn_threshold
        )
        if active == self._active:
            return None
        self._active = active
        if active:
            self.activations += 1
        return active

    def poll(self) -> None:
        """Re-evaluate without a new event (windows decay over time, and
        the flag should clear even if traffic stops)."""
        now = self._clock()
        fired: bool | None = None
        with self._lock:
            fired = self._reevaluate(now)
        if fired is not None and self._on_change is not None:
            self._on_change(fired)

    # ------------------------------------------------------------------

    @property
    def fast_burn_active(self) -> bool:
        return self._active

    def burn_rates(self) -> tuple[float, float]:
        """Current ``(fast, slow)`` burn rates."""
        now = self._clock()
        with self._lock:
            fast_rate, _ = self._fast.rate(now)
            slow_rate, _ = self._slow.rate(now)
        budget = self.objective.budget
        return fast_rate / budget, slow_rate / budget

    def snapshot(self) -> dict[str, Any]:
        now = self._clock()
        with self._lock:
            fast_rate, fast_n = self._fast.rate(now)
            slow_rate, slow_n = self._slow.rate(now)
            active = self._active
            activations = self.activations
            events, bad_events = self.events, self.bad_events
        budget = self.objective.budget
        return {
            "objective": self.objective.to_dict(),
            "budget": budget,
            "burn_threshold": self.burn_threshold,
            "fast": {
                "window_seconds": self._fast.seconds,
                "bad_rate": fast_rate,
                "burn": fast_rate / budget,
                "samples": fast_n,
            },
            "slow": {
                "window_seconds": self._slow.seconds,
                "bad_rate": slow_rate,
                "burn": slow_rate / budget,
                "samples": slow_n,
            },
            "fast_burn_active": active,
            "activations": activations,
            "events": events,
            "bad_events": bad_events,
        }


#: Availability SLI: statuses that count, and the bad subset.  Load-shed
#: and admission rejections (429/503) are the service *protecting* its
#: objective, and client errors are not the server's fault — counting
#: either as bad would let a shed spiral or an abusive client burn the
#: budget and deepen the degradation they caused.
_AVAILABILITY_COUNTED = frozenset({"200", "500", "504"})
_AVAILABILITY_BAD = frozenset({"500", "504"})


class SLOObservatory:
    """All of a service's objectives, fed once per finished request."""

    def __init__(
        self,
        objectives: tuple[SLObjective, ...],
        fast_window: float = 60.0,
        slow_window: float = 300.0,
        burn_threshold: float = 10.0,
        min_samples: int = 10,
        clock: Callable[[], float] = monotonic,
        on_burn_change: Callable[[str, bool], None] | None = None,
    ):
        self.objectives = objectives
        self.monitors: dict[str, BurnRateMonitor] = {}
        for objective in objectives:
            name = objective.name
            callback = None
            if on_burn_change is not None:
                callback = (
                    lambda active, _name=name: on_burn_change(_name, active)
                )
            self.monitors[name] = BurnRateMonitor(
                objective,
                fast_window=fast_window,
                slow_window=slow_window,
                burn_threshold=burn_threshold,
                min_samples=min_samples,
                clock=clock,
                on_change=callback,
            )

    @classmethod
    def from_config(
        cls,
        config: Any,
        on_burn_change: Callable[[str, bool], None] | None = None,
    ) -> "SLOObservatory":
        """Build the standard two objectives from a ``ServerConfig``."""
        objectives = (
            SLObjective(
                name="availability",
                sli="availability",
                objective=config.slo_availability_objective,
            ),
            SLObjective(
                name="latency",
                sli="latency",
                objective=0.95,
                latency_threshold=config.slo_latency_threshold,
            ),
        )
        return cls(
            objectives,
            fast_window=config.slo_fast_window,
            slow_window=config.slo_slow_window,
            burn_threshold=config.slo_burn_threshold,
            min_samples=config.slo_min_samples,
            on_burn_change=on_burn_change,
        )

    # ------------------------------------------------------------------

    def record(self, endpoint: str, status: str, seconds: float) -> None:
        """Classify one finished request against every objective."""
        for objective in self.objectives:
            if objective.sli == "availability":
                if status not in _AVAILABILITY_COUNTED:
                    continue
                bad = status in _AVAILABILITY_BAD
            else:  # latency: only successes tell us anything about speed
                if status != "200":
                    continue
                bad = seconds > objective.latency_threshold
            self.monitors[objective.name].record(bad)

    def poll(self) -> None:
        """Decay-only re-evaluation of every monitor (health probes,
        scrapes — lets fast-burn clear when traffic stops)."""
        for monitor in self.monitors.values():
            monitor.poll()

    def fast_burn_active(self) -> dict[str, bool]:
        return {
            name: monitor.fast_burn_active
            for name, monitor in self.monitors.items()
        }

    def snapshot(self) -> dict[str, Any]:
        """Every monitor's state, polled first so a quiet spell decays."""
        out: dict[str, Any] = {}
        for name, monitor in self.monitors.items():
            monitor.poll()
            out[name] = monitor.snapshot()
        return out
