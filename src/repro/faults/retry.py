"""Retry with exponential backoff + jitter, and a circuit breaker.

The two small pieces of resilience machinery the serving layer leans on
(``docs/robustness.md``):

* :func:`retry_call` — bounded attempts, exponential backoff with
  multiplicative jitter, a hard cap per delay, and an overall *sleep
  budget* so a retry loop can never hold a request hostage;
* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine, one per served corpus, so a corpus whose storage keeps
  failing stops being hammered and is re-probed on a timer.

Both are dependency-free and clock-injectable for deterministic tests.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from time import monotonic, sleep as _sleep
from typing import Any, Callable, Iterable

__all__ = ["RetryPolicy", "retry_call", "CircuitBreaker"]

_RNG = random.Random(0x5EED)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: attempts, backoff shape, and a sleep budget.

    The delay before retry ``i`` (0-based) is
    ``min(max_delay, base_delay * multiplier**i)`` scaled by a uniform
    jitter factor in ``[1 - jitter, 1 + jitter]``.  ``budget`` caps the
    *total* seconds slept across all retries; a delay that would exceed
    it aborts the loop early (the last error propagates).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    budget: float | None = 10.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays cannot be negative")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, retry_index: int, rng: random.Random | None = None) -> float:
        raw = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        if self.jitter:
            rng = rng if rng is not None else _RNG
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


def retry_call(
    fn: Callable[[], Any],
    *,
    policy: RetryPolicy | None = None,
    retry_on: Iterable[type[BaseException]] = (Exception,),
    op: str = "",
    rng: random.Random | None = None,
    sleep: Callable[[float], None] = _sleep,
) -> Any:
    """Call ``fn`` until it succeeds or the policy is exhausted.

    Only exceptions in ``retry_on`` are retried; anything else
    propagates immediately.  Once the policy gives up, the last
    exception is re-raised.
    """
    policy = policy if policy is not None else RetryPolicy()
    retry_on = tuple(retry_on)
    slept = 0.0
    last: BaseException | None = None
    for attempt in range(policy.attempts):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt + 1 >= policy.attempts:
                break
            delay = policy.delay(attempt, rng)
            if policy.budget is not None and slept + delay > policy.budget:
                break
            sleep(delay)
            slept += delay
    assert last is not None  # the loop either returned or set ``last``
    raise last


class CircuitBreaker:
    """Closed → open → half-open, driven by consecutive failures.

    * **closed** — everything flows; ``failure_threshold`` consecutive
      :meth:`record_failure` calls trip it open.
    * **open** — :meth:`allow` answers ``False`` until
      ``reset_timeout`` seconds pass, then the breaker half-opens.
    * **half-open** — exactly one caller gets ``True`` (the probe);
      its :meth:`record_success` closes the breaker, its
      :meth:`record_failure` re-opens it (restarting the timer).
      Concurrent callers fast-fail (``allow() == False``) while the
      probe is in flight.  A probe whose caller never reports back
      (crashed, abandoned, lost) would otherwise wedge the breaker in
      half-open forever, so an unreported probe expires after
      ``reset_timeout`` and the next :meth:`allow` hands out a fresh
      one.

    ``on_transition(old, new)`` fires under the lock whenever the state
    changes — the service turns a breaker that is not closed into
    health pressure.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 10.0,
        clock: Callable[[], float] = monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("reset timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_taken = False
        self._probe_started: float | None = None
        self._trips = 0

    # ------------------------------------------------------------------

    def _transition(self, new: str) -> None:
        old, self._state = self._state, new
        if new == self.OPEN:
            self._opened_at = self._clock()
            self._trips += 1
        if new == self.HALF_OPEN:
            self._probe_taken = False
            self._probe_started = None
        if old != new and self._on_transition is not None:
            self._on_transition(old, new)

    def allow(self) -> bool:
        """May a protected call proceed right now?"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                assert self._opened_at is not None
                if self._clock() - self._opened_at < self.reset_timeout:
                    return False
                self._transition(self.HALF_OPEN)
            # Half-open: exactly one probe in flight at a time.  A
            # probe nobody reported on within reset_timeout is treated
            # as lost and replaced — otherwise one crashed caller would
            # wedge the breaker half-open forever.
            if self._probe_taken:
                if (
                    self._probe_started is None
                    or self._clock() - self._probe_started < self.reset_timeout
                ):
                    return False
            self._probe_taken = True
            self._probe_started = self._clock()
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_taken = False
            self._probe_started = None
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_taken = False
            self._probe_started = None
            if self._state == self.HALF_OPEN:
                self._transition(self.OPEN)
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(self.OPEN)

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        """How many times this breaker has opened."""
        with self._lock:
            return self._trips

    def seconds_until_probe(self) -> float:
        """How long until an open breaker half-opens (0 otherwise)."""
        with self._lock:
            if self._state != self.OPEN or self._opened_at is None:
                return 0.0
            return max(
                0.0, self.reset_timeout - (self._clock() - self._opened_at)
            )

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "reset_timeout": self.reset_timeout,
            }
