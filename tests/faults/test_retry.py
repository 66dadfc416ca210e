"""Retry policies and the circuit breaker (clocks faked throughout)."""

import random

import pytest

from repro.errors import StorageError
from repro.faults import CircuitBreaker, RetryPolicy, retry_call


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay(i, rng) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        rng = random.Random(42)
        for _ in range(100):
            delay = policy.delay(0, rng)
            assert 0.05 <= delay <= 0.15


class TestRetryCall:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise StorageError("transient")
            return "ok"

        slept = []
        result = retry_call(
            flaky,
            policy=RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0),
            retry_on=(StorageError,),
            rng=random.Random(0),
            sleep=slept.append,
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert len(slept) == 2

    def test_exhaustion_reraises_last_error(self):
        raised = []

        def doomed():
            raised.append(StorageError(f"persistent {len(raised)}"))
            raise raised[-1]

        with pytest.raises(StorageError, match="persistent 2") as caught:
            retry_call(
                doomed,
                policy=RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0),
                retry_on=(StorageError,),
                rng=random.Random(0),
                sleep=lambda _: None,
            )
        assert len(raised) == 3
        assert caught.value is raised[-1]

    def test_non_retryable_error_propagates_immediately(self):
        calls = {"n": 0}

        def wrong_kind():
            calls["n"] += 1
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            retry_call(
                wrong_kind,
                policy=RetryPolicy(attempts=5, base_delay=0.0),
                retry_on=(StorageError,),
                rng=random.Random(0),
                sleep=lambda _: None,
            )
        assert calls["n"] == 1

    def test_on_retry_called_per_attempt(self):
        attempts = []
        slept = []

        def flaky():
            attempts.append(len(slept))  # sleeps before this attempt
            if len(attempts) < 3:
                raise StorageError("again")
            return 1

        assert retry_call(
            flaky,
            policy=RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0),
            retry_on=(StorageError,),
            op="load",
            rng=random.Random(0),
            sleep=slept.append,
        ) == 1
        assert attempts == [0, 1, 2]
        assert slept == [0.01, 0.02]

    def test_budget_stops_early(self):
        calls = {"n": 0}

        def doomed():
            calls["n"] += 1
            raise StorageError("slow")

        # A zero budget means no time for retries at all.
        with pytest.raises(StorageError):
            retry_call(
                doomed,
                policy=RetryPolicy(attempts=10, base_delay=0.01, budget=0.0),
                retry_on=(StorageError,),
                rng=random.Random(0),
                sleep=lambda _: None,
            )
        assert calls["n"] == 1


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = _Clock()
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            reset_timeout=kwargs.pop("reset_timeout", 10.0),
            clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        return breaker, clock, transitions

    def trip(self, breaker):
        for _ in range(3):
            breaker.record_failure()

    def test_starts_closed_and_allows(self):
        breaker, _, _ = self.make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker, _, transitions = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1
        assert (CircuitBreaker.CLOSED, CircuitBreaker.OPEN) in transitions

    def test_success_resets_the_failure_streak(self):
        breaker, _, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_after_reset_timeout_single_probe(self):
        breaker, clock, _ = self.make(reset_timeout=5.0)
        self.trip(breaker)
        clock.now = 4.9
        assert not breaker.allow()
        clock.now = 5.1
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # second caller is still rejected

    def test_probe_success_closes(self):
        breaker, clock, transitions = self.make(reset_timeout=5.0)
        self.trip(breaker)
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert (CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED) in transitions

    def test_probe_failure_reopens(self):
        breaker, clock, _ = self.make(reset_timeout=5.0)
        self.trip(breaker)
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        # The reset timer restarted from the failed probe.
        clock.now = 10.0
        assert not breaker.allow()
        clock.now = 11.5
        assert breaker.allow()

    def test_seconds_until_probe(self):
        breaker, clock, _ = self.make(reset_timeout=5.0)
        assert breaker.seconds_until_probe() == 0.0
        self.trip(breaker)
        clock.now = 2.0
        assert breaker.seconds_until_probe() == pytest.approx(3.0)

    def test_snapshot(self):
        breaker, _, _ = self.make()
        self.trip(breaker)
        snapshot = breaker.snapshot()
        assert snapshot["state"] == CircuitBreaker.OPEN
        assert snapshot["trips"] == 1
        assert snapshot["consecutive_failures"] == 3


class TestHalfOpenProbeSemantics:
    """Regressions for the half-open race: exactly one probe in flight,
    concurrent callers fast-fail, and a probe whose caller vanished
    expires instead of wedging the breaker."""

    def make(self, reset_timeout=5.0):
        clock = _Clock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=reset_timeout, clock=clock
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        return breaker, clock

    def test_exactly_one_probe_while_in_flight(self):
        breaker, clock = self.make()
        clock.now = 6.0
        grants = [breaker.allow() for _ in range(5)]
        assert grants == [True, False, False, False, False]
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_concurrent_threads_get_one_probe(self):
        import threading

        breaker, clock = self.make()
        clock.now = 6.0
        grants = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            granted = breaker.allow()
            with lock:
                grants.append(granted)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert grants.count(True) == 1

    def test_wedged_probe_expires_and_rearms(self):
        breaker, clock = self.make(reset_timeout=5.0)
        clock.now = 6.0
        assert breaker.allow()  # the probe whose caller will vanish
        assert not breaker.allow()
        # Nobody ever reports on the probe; once reset_timeout passes
        # again, a fresh probe is granted instead of wedging half-open.
        clock.now = 10.5
        assert not breaker.allow()
        clock.now = 11.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_probe_state_cleared_on_outcome(self):
        breaker, clock = self.make()
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()  # re-opens, restarting the timer
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 12.0
        # A fresh half-open cycle hands out a fresh probe immediately —
        # no stale probe bookkeeping from the failed cycle.
        assert breaker.allow()
        assert not breaker.allow()
