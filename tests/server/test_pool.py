"""AdmissionGate: runs on the caller's thread, bounded admission, close."""

import sys
import threading
import time

import pytest

from repro.errors import QueryTimeout, ServerOverloadedError
from repro.server import AdmissionGate


@pytest.fixture
def gate():
    g = AdmissionGate(workers=2, queue_depth=2)
    yield g
    g.close()


class Blocker:
    """Requests that hold their run slot until released, each on its own
    thread (the gate has none of its own)."""

    def __init__(self, gate):
        self.gate = gate
        self.release = threading.Event()
        self.running = threading.Semaphore(0)
        self.outcomes = []
        self.threads = []

    def _hold(self, _queued):
        self.running.release()
        self.release.wait(timeout=10)
        return "done"

    def _request(self, budget):
        try:
            self.outcomes.append(self.gate.run(self._hold, budget))
        except Exception as exc:  # noqa: BLE001 - recorded for the test
            self.outcomes.append(exc)

    def start(self, budget=10.0):
        thread = threading.Thread(target=self._request, args=(budget,))
        thread.start()
        self.threads.append(thread)

    def wait_waiting(self, n):
        """Until ``n`` requests are waiting for a run slot."""
        limit = time.monotonic() + 5
        while self.gate.stats()["waiting"] != n:
            assert time.monotonic() < limit, self.gate.stats()
            time.sleep(0.001)

    def finish(self):
        self.release.set()
        for thread in self.threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


def assert_no_permit_held(gate):
    """Every run slot and waiting place is free again: the gate admits
    its full capacity at once."""
    stats = gate.stats()
    assert stats["waiting"] == 0 and stats["inflight"] == 0
    blocker = Blocker(gate)
    for _ in range(gate.workers):
        blocker.start()
    for _ in range(gate.workers):
        assert blocker.running.acquire(timeout=5)
    for _ in range(gate.queue_depth):
        blocker.start()
    blocker.wait_waiting(gate.queue_depth)
    blocker.finish()
    assert blocker.outcomes == ["done"] * (gate.workers + gate.queue_depth)


class TestExecution:
    def test_run_returns_result(self, gate):
        seen = []

        def job(queued):
            seen.append((threading.get_ident(), queued))
            return 5

        before = threading.active_count()
        assert gate.run(job, 1.0) == 5
        (ident, queued), = seen
        assert ident == threading.get_ident()  # no hand-off
        assert 0 <= queued < 1.0
        assert threading.active_count() == before  # and no thread started

    def test_exceptions_are_relayed(self, gate):
        def boom(_queued):
            raise KeyError("inner")

        with pytest.raises(KeyError):
            gate.run(boom, 1.0)
        assert_no_permit_held(gate)

    def test_many_jobs_all_complete(self, gate):
        # More clients than places: clients that retry on 429 all succeed.
        results = []

        def client(i):
            while True:
                try:
                    results.append(gate.run(lambda _queued: i * i, 5.0))
                    return
                except ServerOverloadedError:
                    time.sleep(0.005)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(40)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert sorted(results) == [i * i for i in range(40)]
        assert gate.stats()["completed"] == 40

    def test_never_more_than_workers_in_flight(self):
        gate = AdmissionGate(workers=2, queue_depth=16)
        lock = threading.Lock()
        inside = peak = 0

        def job(_queued):
            nonlocal inside, peak
            with lock:
                inside += 1
                peak = max(peak, inside)
            time.sleep(0.002)
            with lock:
                inside -= 1

        def client():
            for _ in range(10):
                gate.run(job, 10.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert peak == 2
        assert gate.stats()["completed"] == 160
        assert gate.stats()["rejected"] == 0


class TestAdmission:
    def test_rejects_when_saturated_and_recovers(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        blocker = Blocker(gate)
        try:
            blocker.start()
            assert blocker.running.acquire(timeout=5)
            blocker.start()  # takes the single waiting place
            blocker.wait_waiting(1)
            with pytest.raises(ServerOverloadedError) as excinfo:
                gate.run(lambda _queued: None, 1.0)
            assert excinfo.value.retry_after >= 0.1
            assert gate.stats()["rejected"] == 1
        finally:
            blocker.finish()
        assert blocker.outcomes == ["done", "done"]
        # Capacity freed: admission works again.
        assert gate.run(lambda _queued: "ok", 1.0) == "ok"
        assert gate.stats()["rejected"] == 1

    def test_depth_hook_sees_queue_growth(self):
        depths = []
        gate = AdmissionGate(
            workers=1, queue_depth=4, on_depth_change=depths.append
        )
        blocker = Blocker(gate)
        try:
            blocker.start()
            assert blocker.running.acquire(timeout=5)
            for _ in range(3):
                blocker.start()
            blocker.wait_waiting(3)
        finally:
            blocker.finish()
        assert max(depths) == 3
        assert depths[-1] == 0

    def test_waiter_out_of_budget_times_out_and_leaks_nothing(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        blocker = Blocker(gate)
        try:
            blocker.start()
            assert blocker.running.acquire(timeout=5)
            with pytest.raises(QueryTimeout) as excinfo:
                gate.run(lambda _queued: None, 0.05)
            assert excinfo.value.budget == 0.05
        finally:
            blocker.finish()
        assert gate.stats()["completed"] == 1  # the timed-out one never ran
        assert_no_permit_held(gate)

    def test_waiting_is_charged_to_the_job(self):
        gate = AdmissionGate(workers=1, queue_depth=1)
        blocker = Blocker(gate)
        queued = []
        waiter = threading.Thread(target=gate.run, args=(queued.append, 10.0))
        try:
            blocker.start()
            assert blocker.running.acquire(timeout=5)
            waiter.start()
            blocker.wait_waiting(1)
            time.sleep(0.02)
        finally:
            blocker.finish()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert queued[0] >= 0.02


class TestShutdown:
    def test_shutdown_drains_then_rejects(self):
        gate = AdmissionGate(workers=2, queue_depth=2)
        blocker = Blocker(gate)
        for _ in range(2):
            blocker.start()
        for _ in range(2):
            assert blocker.running.acquire(timeout=5)
        closed = threading.Event()
        closer = threading.Thread(target=lambda: (gate.close(), closed.set()))
        closer.start()
        try:
            # close() admits no more, and waits on the two in flight.
            limit = time.monotonic() + 5
            while True:
                try:
                    gate.run(lambda _queued: None, 1.0)
                except ServerOverloadedError:
                    break
                assert time.monotonic() < limit
            assert not closed.wait(timeout=0.05)
        finally:
            blocker.finish()
        closer.join(timeout=5)
        assert closed.is_set()
        assert blocker.outcomes == ["done", "done"]
        with pytest.raises(ServerOverloadedError):
            gate.run(lambda _queued: None, 1.0)

    def test_shutdown_is_idempotent(self):
        gate = AdmissionGate(workers=1, queue_depth=0)
        gate.close()
        gate.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(workers=0)
        with pytest.raises(ValueError):
            AdmissionGate(workers=1, queue_depth=-1)
