"""QueryService: concurrency, caching across reloads, admission, deadlines.

These tests drive the service in-process (no HTTP) on a small synthetic
play corpus; the HTTP adapter has its own tests in ``test_http.py``.
"""

import threading
import time

import pytest

from repro.core.regionset import RegionSet
from repro.engine.session import Engine
from repro.errors import QueryTimeout, ReproError, ServerOverloadedError
from repro.obs.metrics import SERVER_CACHE_HITS_TOTAL, SERVER_REQUESTS_TOTAL
from repro.server import CorpusSpec, QueryService, ServerConfig, UnknownCorpusError
from tests.server.test_pool import Blocker

PLAY = CorpusSpec(name="play", kind="synthetic", path="play", seed=11, scale=2)


@pytest.fixture
def service():
    svc = QueryService(ServerConfig(workers=2, queue_depth=4, corpora=(PLAY,)))
    yield svc
    svc.close()


class TestExecute:
    def test_basic_query(self, service):
        response = service.execute("speech dwithin scene")
        assert response["corpus"] == "play"
        assert response["generation"] == 1
        assert response["cached"] is False
        assert response["cardinality"] == len(response["regions"])
        assert response["cardinality"] > 0
        assert response["seconds"] >= response["eval_seconds"] >= 0

    def test_matches_direct_engine_answer(self, service):
        engine = service._handle("play").engine
        expected = [
            (r.left, r.right) for r in engine.query("speech dwithin scene")
        ]
        response = service.execute("speech dwithin scene", use_cache=False)
        assert response["regions"] == expected

    def test_unknown_corpus(self, service):
        with pytest.raises(UnknownCorpusError):
            service.execute("speech", corpus="nope")

    def test_parse_error_is_repro_error(self, service):
        with pytest.raises(ReproError):
            service.execute("speech within within")

    def test_explain_does_not_execute(self, service):
        response = service.execute(
            "line within speech within scene", explain_only=True
        )
        assert "plan" in response
        assert "regions" not in response
        assert response["original_cost"] >= response["optimized_cost"]

    def test_requests_counter_labels(self, service):
        service.execute("speech dwithin scene")
        requests = service.telemetry.metrics.counter(SERVER_REQUESTS_TOTAL)
        assert requests.value(endpoint="query", status="200") == 1


class TestRequestPath:
    """One thread, one parse: a request evaluates where it arrived."""

    def test_evaluates_on_the_callers_thread(self, service, monkeypatch):
        idents = []
        query = Engine.query

        def recording(self, *args, **kwargs):
            idents.append(threading.get_ident())
            return query(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "query", recording)
        service.execute("speech dwithin scene", use_cache=False)
        assert idents == [threading.get_ident()]

    def test_thread_count_does_not_depend_on_workers(self):
        started = []
        for workers in (1, 8):
            before = set(threading.enumerate())
            svc = QueryService(ServerConfig(workers=workers, corpora=(PLAY,)))
            try:
                svc.execute("speech", use_cache=False)
                started.append(set(threading.enumerate()) - before)
            finally:
                svc.close()
        assert started == [set(), set()]

    @pytest.mark.parametrize("topology", ["local", "frontier"])
    def test_a_request_is_parsed_once(self, topology, monkeypatch):
        import repro.algebra.evaluator
        import repro.backend.base
        import repro.engine.session
        import repro.shard.executor
        from repro.algebra.parser import parse

        parses = {}
        for module in (
            repro.engine.session,
            repro.algebra.evaluator,
            repro.shard.executor,
            repro.backend.base,
        ):
            def counting(text, _name=module.__name__):
                parses[_name] = parses.get(_name, 0) + 1
                return parse(text)

            monkeypatch.setattr(module, "parse", counting)
        frontier = (
            dict(backend_nodes=2, backend_groups=2, backend_mode="inprocess")
            if topology == "frontier"
            else {}
        )
        svc = QueryService(ServerConfig(corpora=(PLAY,), **frontier))
        try:
            parses.clear()
            first = svc.execute("(speech) dwithin scene")
            assert first["cached"] is False
            # The wire format is text: both groups are sent the same
            # text, which their slice provider parses once, into its
            # plan cache.  The coordinator side parses the request once.
            wire = parses.pop("repro.backend.base", 0)
            assert parses == {"repro.engine.session": 1}
            if topology == "frontier":
                assert "fallback" not in first["backend"]
                assert wire == 1
            else:
                assert wire == 0

            parses.clear()
            assert svc.execute("speech dwithin scene")["cached"] is True
            assert parses == {"repro.engine.session": 1}
        finally:
            svc.close()

    def test_query_log_keeps_the_clients_spelling(self, service):
        service.execute("(speech) dwithin (scene)", use_cache=False)
        record = service._handle("play").engine.query_log.last()
        assert record.query == "(speech) dwithin (scene)"
        assert record.plan == "speech dwithin scene"

    def test_queued_seconds_is_the_wait_for_a_slot(self, service, monkeypatch):
        # Building the envelope is the service's own time, not queueing.
        pairs = RegionSet.pairs

        def slow_pairs(self):
            time.sleep(0.02)
            return pairs(self)

        monkeypatch.setattr(RegionSet, "pairs", slow_pairs)
        response = service.execute("speech dwithin scene", use_cache=False)
        assert response["queued_seconds"] < 0.010
        self_seconds = (
            response["seconds"]
            - response["eval_seconds"]
            - response["queued_seconds"]
        )
        assert self_seconds >= 0.020


class TestParallelQueries:
    @pytest.fixture
    def service(self):
        # Enough queue capacity that 16 simultaneous submitters all admit.
        svc = QueryService(
            ServerConfig(workers=4, queue_depth=16, corpora=(PLAY,))
        )
        yield svc
        svc.close()

    def test_many_threads_one_corpus_agree_with_serial_answers(self, service):
        queries = [
            "speech dwithin scene",
            "scene within act",
            'speech containing (speaker @ "ROMEO")',
            "line within speech",
        ]
        engine = service._handle("play").engine
        expected = {
            q: [(r.left, r.right) for r in engine.query(q)] for q in queries
        }
        results: dict[int, list] = {}
        errors: list[Exception] = []

        def worker(slot: int) -> None:
            try:
                q = queries[slot % len(queries)]
                # Bypass the cache so every thread exercises the
                # evaluator (and its thread-local stats) concurrently.
                response = service.execute(q, use_cache=False)
                assert response["regions"] == expected[q]
                results[slot] = response["regions"]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 16


class TestCacheAcrossReload:
    def test_hit_then_invalidation_on_reload(self, service):
        first = service.execute("speech dwithin scene")
        assert first["cached"] is False

        second = service.execute("speech dwithin scene")
        assert second["cached"] is True
        assert second["regions"] == first["regions"]
        hits = service.telemetry.metrics.counter(SERVER_CACHE_HITS_TOTAL)
        assert hits.total() == 1

        info = service.reload_corpus("play")
        assert info["generation"] == 2
        assert info["cache_invalidated"] >= 1

        third = service.execute("speech dwithin scene")
        assert third["cached"] is False
        assert third["generation"] == 2
        # Same spec and seed: the reloaded corpus answers identically.
        assert third["regions"] == first["regions"]

    def test_normalization_shares_cache_entries(self, service):
        service.execute("speech dwithin scene")
        response = service.execute("(speech dwithin (scene))")
        assert response["cached"] is True

    def test_use_cache_false_skips_storage(self, service):
        service.execute("scene within act", use_cache=False)
        response = service.execute("scene within act", use_cache=False)
        assert response["cached"] is False
        assert len(service.cache) == 0


class TestSaturation:
    def test_429_when_pool_full_and_recovery_after(self):
        service = QueryService(
            ServerConfig(workers=1, queue_depth=1, corpora=(PLAY,))
        )
        blocker = Blocker(service.pool)
        try:
            blocker.start()
            assert blocker.running.acquire(timeout=5)
            blocker.start()  # takes the one waiting place
            blocker.wait_waiting(1)

            with pytest.raises(ServerOverloadedError) as excinfo:
                service.execute("speech dwithin scene", use_cache=False)
            assert excinfo.value.retry_after > 0
            requests = service.telemetry.metrics.counter(SERVER_REQUESTS_TOTAL)
            assert requests.value(endpoint="query", status="429") == 1

            blocker.finish()
            ok = service.execute("speech dwithin scene")
            assert ok["cardinality"] > 0
        finally:
            blocker.finish()
            service.close()

    def test_queue_depth_gauge_sees_a_waiter(self, monkeypatch):
        service = QueryService(
            ServerConfig(workers=1, queue_depth=2, corpora=(PLAY,))
        )
        # The depth gauge is the gate's own count (``/healthz`` pool).
        def waiting() -> int:
            return service.pool.stats()["waiting"]

        release = threading.Event()
        query = Engine.query

        def held(self, *args, **kwargs):
            release.wait(timeout=10)
            return query(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "query", held)
        responses = []
        threads = [
            threading.Thread(
                target=lambda: responses.append(
                    service.execute("speech", use_cache=False)
                )
            )
            for _ in range(2)
        ]
        try:
            for thread in threads:
                thread.start()
            limit = time.monotonic() + 5
            while waiting() != 1:
                assert time.monotonic() < limit
                time.sleep(0.001)
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=5)
            service.close()
        assert waiting() == 0
        assert len(responses) == 2
        assert max(r["queued_seconds"] for r in responses) > 0


class TestDeadlines:
    def test_pathological_query_times_out(self, service):
        with pytest.raises(QueryTimeout) as excinfo:
            service.execute(
                "line within speech within scene within act",
                deadline=1e-6,
                use_cache=False,
            )
        assert excinfo.value.budget == pytest.approx(1e-6)
        requests = service.telemetry.metrics.counter(SERVER_REQUESTS_TOTAL)
        assert requests.value(endpoint="query", status="504") == 1

    def test_deadline_must_be_positive(self, service):
        with pytest.raises(ReproError):
            service.execute("speech", deadline=0)

    def test_deadline_clamped_to_max(self):
        service = QueryService(
            ServerConfig(
                workers=1,
                queue_depth=1,
                default_deadline=1.0,
                max_deadline=2.0,
                corpora=(PLAY,),
            )
        )
        try:
            assert service._clamp_deadline(None) == 1.0
            assert service._clamp_deadline(99.0) == 2.0
            assert service._clamp_deadline(0.5) == 0.5
        finally:
            service.close()


class TestLifecycle:
    def test_healthz_shape(self, service):
        health = service.healthz()
        assert health["status"] == "healthy"
        assert health["corpora"] == 1
        assert health["pool"]["workers"] == 2
        assert health["cache"]["capacity"] == 512

    def test_duplicate_corpus_rejected(self, service):
        with pytest.raises(ReproError):
            service.add_corpus(PLAY)

    def test_closed_service_rejects_queries(self, service):
        service.close()
        with pytest.raises(ServerOverloadedError):
            service.execute("speech")
        assert service.healthz()["status"] == "shutting-down"

    def test_corpora_info(self, service):
        (info,) = service.corpora_info()
        assert info["name"] == "play"
        assert info["generation"] == 1
        assert "scene" in info["region_names"]
        assert info["regions"] > 0
