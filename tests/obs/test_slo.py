"""Objectives, burn-rate math, and the multi-window alert rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import (
    WINDOW_BUCKETS,
    BurnRateMonitor,
    SLObjective,
    SLOObservatory,
    SlidingWindow,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def monitor(
    objective=0.9,
    fast=10.0,
    slow=30.0,
    threshold=2.0,
    min_samples=4,
    on_change=None,
):
    clock = FakeClock()
    return (
        BurnRateMonitor(
            SLObjective(name="avail", sli="availability", objective=objective),
            fast_window=fast,
            slow_window=slow,
            burn_threshold=threshold,
            min_samples=min_samples,
            clock=clock,
            on_change=on_change,
        ),
        clock,
    )


class TestSLObjective:
    def test_budget_is_complement(self):
        obj = SLObjective(name="a", sli="availability", objective=0.99)
        assert obj.budget == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="a", sli="weird", objective=0.9)
        with pytest.raises(ValueError):
            SLObjective(name="a", sli="availability", objective=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="a", sli="latency", objective=0.9)  # no threshold


class TestBurnMath:
    def test_burn_is_bad_rate_over_budget(self):
        mon, clock = monitor(objective=0.9)  # budget 0.1
        for bad in [True, False, False, False]:  # bad rate 0.25
            mon.record(bad)
        fast, slow = mon.burn_rates()
        assert fast == pytest.approx(2.5)
        assert slow == pytest.approx(2.5)

    def test_windows_decay(self):
        mon, clock = monitor(fast=10.0, slow=30.0)
        mon.record(True)
        clock.advance(15.0)  # out of the fast window, inside the slow
        mon.record(False)
        fast, slow = mon.burn_rates()
        assert fast == 0.0
        assert slow == pytest.approx(5.0)  # 1 bad / 2 events / 0.1 budget


class TestFastBurnRule:
    def test_needs_min_samples_in_both_windows(self):
        mon, clock = monitor(min_samples=4)
        for _ in range(3):
            mon.record(True)  # burn is huge, but samples are short
        assert mon.fast_burn_active is False
        mon.record(True)
        assert mon.fast_burn_active is True
        assert mon.activations == 1

    def test_needs_both_windows_over_threshold(self):
        # Errors old enough to leave the fast window keep the slow
        # window burning, but the rule stays quiet (blip suppression
        # in reverse: recovery is prompt once the fast window clears).
        mon, clock = monitor(fast=10.0, slow=100.0, min_samples=2)
        for _ in range(4):
            mon.record(True)
        assert mon.fast_burn_active is True
        clock.advance(20.0)
        for _ in range(8):
            mon.record(False)
        assert mon.fast_burn_active is False

    def test_poll_clears_without_new_events(self):
        fired = []
        mon, clock = monitor(min_samples=2, on_change=fired.append)
        for _ in range(4):
            mon.record(True)
        assert fired == [True]
        clock.advance(1000.0)  # both windows empty out
        mon.poll()
        assert fired == [True, False]
        assert mon.fast_burn_active is False
        assert mon.activations == 1  # survives deactivation

    def test_reactivation_counts(self):
        mon, clock = monitor(min_samples=2)
        for _ in range(4):
            mon.record(True)
        clock.advance(1000.0)
        mon.poll()
        for _ in range(4):
            mon.record(True)
        assert mon.activations == 2


class TestObservatory:
    def make(self, **kwargs):
        clock = FakeClock()
        observatory = SLOObservatory(
            (
                SLObjective(
                    name="availability", sli="availability", objective=0.9
                ),
                SLObjective(
                    name="latency",
                    sli="latency",
                    objective=0.9,
                    latency_threshold=0.5,
                ),
            ),
            fast_window=10.0,
            slow_window=30.0,
            burn_threshold=2.0,
            min_samples=2,
            clock=clock,
            **kwargs,
        )
        return observatory, clock

    def test_availability_counts_only_server_outcomes(self):
        observatory, _ = self.make()
        observatory.record("query", "200", 0.01)
        observatory.record("query", "500", 0.01)
        observatory.record("query", "429", 0.01)  # admission: not counted
        observatory.record("query", "503", 0.01)  # shed: not counted
        observatory.record("query", "404", 0.01)  # client error: not counted
        snap = observatory.snapshot()["availability"]
        assert snap["events"] == 2
        assert snap["bad_events"] == 1

    def test_latency_sli_only_sees_successes(self):
        observatory, _ = self.make()
        observatory.record("query", "200", 0.9)  # slow -> bad
        observatory.record("query", "200", 0.1)  # fast -> good
        observatory.record("query", "500", 9.9)  # failure: says nothing
        snap = observatory.snapshot()["latency"]
        assert snap["events"] == 2
        assert snap["bad_events"] == 1

    def test_burn_callback_names_the_objective(self):
        changes = []
        observatory, _ = self.make(
            on_burn_change=lambda name, active: changes.append((name, active))
        )
        for _ in range(4):
            observatory.record("query", "500", 0.01)
        assert changes == [("availability", True)]

    def test_from_config_builds_both_objectives(self):
        from repro.server.config import ServerConfig

        observatory = SLOObservatory.from_config(
            ServerConfig(
                slo_availability_objective=0.999,
                slo_latency_threshold=0.2,
            )
        )
        assert set(observatory.monitors) == {"availability", "latency"}
        avail = observatory.monitors["availability"].objective
        assert avail.budget == pytest.approx(0.001)
        latency = observatory.monitors["latency"].objective
        assert latency.latency_threshold == 0.2


class TestSlidingWindow:
    """The one window class behind burn rates and service health."""

    def test_memory_is_bounded_by_buckets_not_by_rate(self):
        from repro.server.health import HealthMonitor

        mon, clock = monitor(fast=60.0, slow=300.0)
        health = HealthMonitor(window_seconds=10.0, clock=clock)
        for i in range(200_000):  # 200 s at 1 kHz
            clock.advance(0.001)
            mon.record(i % 7 == 0)
            (health.record_failure if i % 7 == 0 else health.record_success)()
        for window in (mon._fast, mon._slow, health._window):
            assert len(window._buckets) <= WINDOW_BUCKETS + 1
        snap = mon.snapshot()
        # 60 s at 1 kHz, and up to one 1 s bucket more.
        assert 60_000 <= snap["fast"]["samples"] <= 61_000
        assert snap["slow"]["samples"] == 200_000
        assert snap["fast"]["bad_rate"] == pytest.approx(1 / 7, abs=1e-3)
        assert 10_000 <= health.snapshot()["window_samples"] <= 10_000 + 167

    @settings(max_examples=80, deadline=None)
    @given(
        seconds=st.sampled_from([0.5, 3.0, 10.0, 60.0]),
        events=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=2.0), st.booleans()),
            min_size=1,
            max_size=120,
        ),
        idle=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_rate_is_the_scan_over_live_buckets(self, seconds, events, idle):
        window = SlidingWindow(seconds)
        width = seconds / WINDOW_BUCKETS
        now, seen = 1000.0, []
        for gap, bad in events:
            now += gap * seconds / 20
            window.add(now, bad)
            seen.append((now, bad))
        now += idle * seconds
        horizon = now // width - WINDOW_BUCKETS
        live = [bad for at, bad in seen if at // width >= horizon]
        # (float division may place an event exactly ``seconds`` old on
        # either side of the horizon, hence the tolerance)
        slack = 1e-9 * now
        exact = [bad for at, bad in seen if at > now - seconds + slack]
        rate, count = window.rate(now)
        assert count == len(live)
        assert rate == (sum(live) / len(live) if live else 0.0)
        # Against the per-event window: nothing expires early, and what
        # is kept late is younger than one more bucket width.
        extra = len(live) - len(exact)
        assert extra >= 0 and live[extra:] == exact
        kept = seen[len(seen) - len(live):]
        assert all(
            at > now - seconds - width - slack for at, _ in kept[:extra]
        )

    def test_a_clock_that_steps_back_keeps_buckets_sorted(self):
        window = SlidingWindow(60.0)
        window.add(100.5, False)
        window.add(99.9, True)  # read before, recorded after
        assert [b[0] for b in window._buckets] == [100]
        assert window.rate(100.5) == (0.5, 2)
