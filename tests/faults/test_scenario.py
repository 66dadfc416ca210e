"""The chaos scenario engine: oracles, collector, reports and restart."""

import json
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.engine.session import Engine
from repro.faults.chaos import (
    SCENARIOS,
    BackendKillReport,
    ChaosConfig,
    ChaosReport,
    IngestReport,
    ReplicationReport,
)
from repro.faults.scenario import Run, _Mirror, _Oracles
from repro.workloads.corpora import generate_play
from repro.workloads.queries import PLAY_QUERIES

QUERY = "speech"


def _append(doc_id: str) -> list[dict]:
    text = f"<speech><speaker>T</speaker><line>{doc_id} prophecy</line></speech>"
    return [{"op": "append", "id": doc_id, "text": text}]


def _regions(instance, query: str = QUERY) -> list[list[int]]:
    result = Evaluator("indexed").evaluate(parse(query), instance)
    return [[r.left, r.right] for r in result]


@pytest.fixture(scope="module")
def play_engine():
    text = generate_play(
        random.Random(0),
        acts=2,
        scenes_per_act=2,
        speeches_per_scene=4,
        lines_per_speech=3,
    )
    return Engine.from_tagged_text(text)


@pytest.fixture
def generations(play_engine):
    """``() -> (mirror, answers)``: a mirror at generations 0, 1, 2 (one
    appended speech each) and the answer to ``QUERY`` at each
    generation."""

    def build():
        mirror = _Mirror(play_engine.instance, play_engine.text)
        mirror.register(0)
        answers = [_regions(mirror.live.instance)]
        for generation in (1, 2):
            mirror.commit(_append(f"doc{generation}"), generation)
            answers.append(_regions(mirror.live.instance))
        assert len({len(a) for a in answers}) == 3  # each write shows
        return mirror, answers

    return build


class TestFloorMirror:
    """Answers fresher than their stamp, which a generation-floor check
    let through: the exact mirror passes each only under the generation
    it belongs to."""

    def test_a_later_generation_passes(self, generations):
        mirror, answers = generations()
        mirror.verify(2, QUERY, answers[2])
        mirror.verify(1, QUERY, answers[1])
        mirror.verify(2, QUERY, answers[2])
        assert mirror.problems == []
        assert mirror.verified == 3

    def test_the_exact_mirror_flags_a_fresher_answer(self, generations):
        mirror, answers = generations()
        mirror.verify(1, QUERY, answers[2])
        assert len(mirror.problems) == 1
        assert "disagrees with the acked-writes oracle" in mirror.problems[0]
        assert "it is generation 2's answer (epoch 0)" in mirror.problems[0]


class TestMirror:
    """Live corpora, replicated or not, are checked at exactly the
    generation each response is stamped with."""

    def test_the_stamped_generation_passes(self, generations):
        mirror, answers = generations()
        for generation, answer in enumerate(answers):
            mirror.verify(generation, QUERY, answer)
        assert mirror.problems == []
        assert mirror.verified == 3

    def test_an_earlier_generation_is_flagged(self, generations):
        mirror, answers = generations()
        mirror.verify(2, QUERY, answers[0])
        assert len(mirror.problems) == 1
        assert "at generation 2" in mirror.problems[0]
        assert "it is generation 0's answer (epoch 0)" in mirror.problems[0]

    def test_no_generation_is_corruption(self, generations):
        mirror, answers = generations()
        shifted = [[l + 1, r + 1] for l, r in answers[1]]
        mirror.verify(1, QUERY, shifted)
        assert len(mirror.problems) == 1
        assert "disagrees with the acked-writes oracle" in mirror.problems[0]
        assert "it is generation" not in mirror.problems[0]


class TestSettlePending:
    def test_counts_generations_the_mirror_never_saw(self, generations):
        mirror, answers = generations()
        mirror.verify(7, QUERY, answers[2])
        mirror.verify(9, QUERY, answers[2])
        assert len(mirror.pending) == 2
        assert mirror.settle_pending() == 2
        assert mirror.pending == []
        assert mirror.verified == 0

    def test_an_answer_ahead_of_its_ack_settles(self, generations):
        mirror, _ = generations()
        twin, _ = generations()
        twin.commit(_append("doc3"), 3)
        mirror.verify(3, QUERY, _regions(twin.live.instance))
        assert len(mirror.pending) == 1  # the ack has not arrived yet
        mirror.commit(_append("doc3"), 3)
        assert mirror.settle_pending() == 0
        assert mirror.verified == 1
        assert mirror.problems == []


class TestCollector:
    """``Run.on_response``: statuses per phase, parse failures,
    degraded/fallback tallies, and every 200 through the oracle."""

    @pytest.fixture
    def run(self, play_engine, tmp_path):
        config = ChaosConfig(mode="backend-kill")
        run = Run(SCENARIOS["backend-kill"], config, tmp_path)
        run.oracle = _Oracles(play_engine, PLAY_QUERIES)
        run.phase = "probe"
        return run

    def test_a_correct_answer_is_counted_and_verified(self, run, play_engine):
        text = next(iter(PLAY_QUERIES.values()))
        body = {
            "query": text,
            "regions": [[r.left, r.right] for r in play_engine.query(text)],
            "backend": {"degraded": True, "fallback": "unavailable"},
        }
        run.on_response(200, json.dumps(body).encode())
        run.on_response(503, b"{}")
        assert run.report.responses == {"probe": {"200": 1, "503": 1}}
        assert run.oracle.verified == 1
        assert run.degraded == {"probe": 1}
        assert run.fallbacks == {"unavailable": 1}
        assert run.report.violations == []

    def test_a_wrong_answer_is_corruption(self, run, play_engine):
        text = next(iter(PLAY_QUERIES.values()))
        regions = [[r.left, r.right] for r in play_engine.query(text)]
        body = {"query": text, "regions": regions[:-1]}
        run.on_response(200, json.dumps(body).encode())
        run.on_response(200, b"not json")
        assert run.report.corrupted_responses == 2
        assert any("baseline" in v for v in run.report.violations)
        assert any("failed to parse" in v for v in run.report.violations)

    def test_a_probe_goes_through_the_collector(self, run, play_engine):
        text = next(iter(PLAY_QUERIES.values()))
        regions = [[r.left, r.right] for r in play_engine.query(text)]
        payload = json.dumps({"query": text, "regions": regions}).encode()

        class Answer(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:
                pass

        server = HTTPServer(("127.0.0.1", 0), Answer)
        thread = threading.Thread(
            target=server.serve_forever, args=(0.01,), daemon=True
        )
        thread.start()
        try:
            run.server = SimpleNamespace(bound_port=server.server_address[1])
            status, body = run.post_query(text, collect=True)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert status == 200 and body["query"] == text
        assert run.report.responses == {"probe": {"200": 1}}
        assert run.oracle.verified == 1
        assert run.report.violations == []

    def test_concurrent_answers_lose_no_count(self, run, play_engine):
        """Loadgen threads call the collector at once; every count holds."""
        text = next(iter(PLAY_QUERIES.values()))
        regions = [[r.left, r.right] for r in play_engine.query(text)]
        payload = json.dumps({"query": text, "regions": regions}).encode()

        def answer() -> None:
            for _ in range(200):
                run.on_response(200, payload)
                run.on_ingest_response([], 503, b"")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=answer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert run.report.responses == {"probe": {"200": 1600}}
        assert run.oracle.verified == 1600
        assert run.writes == {"probe": {"503": 1600}}
        assert run.failed == 1600


class TestKillInvariants:
    def test_an_open_breaker_names_both_of_its_states(self, tmp_path):
        run = Run(
            SCENARIOS["backend-kill"], ChaosConfig(mode="backend-kill"), tmp_path
        )
        report = run.report
        report.responses["kill"] = {"200": 95, "503": 5}
        report.killed_node, report.respawns = "b0", 1
        report.final_breakers = {"b0": "closed", "b1": "open"}
        run.probe_breakers = {"b0": "closed", "b1": "closed"}
        run.check_kill("backend")
        assert report.kill_availability == 0.95
        assert report.violations == [
            "breakers did not re-close after the respawn: b1: open at the "
            "end of the run, closed at the end of the probe wait"
        ]

    def test_a_lost_kill_window_and_no_respawn(self, tmp_path):
        run = Run(
            SCENARIOS["replication"], ChaosConfig(mode="replication"), tmp_path
        )
        run.report.responses["kill"] = {"200": 8, "503": 2}
        run.report.killed_node = "b1"
        run.check_kill("replica")
        assert len(run.report.violations) == 2
        assert "80.0% (minimum 90%)" in run.report.violations[0]
        assert "dead replica" in run.report.violations[0]
        assert run.report.violations[1] == "the supervisor never respawned b1"


#: Each mode's ``summary()`` keys; the CI jobs read them.
SUMMARY_KEYS = {
    ChaosReport: [
        "ok", "seed", "duration_seconds", "responses", "verified_responses",
        "corrupted_responses", "reduction_checks", "fault_fires",
        "vm_kernel_faults", "reloads", "breaker_trips", "breaker_final_state",
        "rebuilds", "rpc_errors", "failovers",
        "local_fallbacks", "traces_kept", "fault_marked_traces",
        "fault_marked_spans", "slo", "slowest_traces", "health_states_seen",
        "final_health", "loadgen", "violations",
    ],
    BackendKillReport: [
        "ok", "seed", "duration_seconds", "topology", "responses", "degraded",
        "fallbacks", "verified_responses", "corrupted_responses",
        "killed_node", "kill_availability", "respawns", "failovers", "hedges",
        "final_breakers", "equivalence_checks", "loadgen", "violations",
    ],
    IngestReport: [
        "ok", "seed", "duration_seconds", "responses", "verified_responses",
        "corrupted_responses", "writes", "writes_acked", "writes_failed",
        "generations_published", "wal_fault_fires", "replayed_batches",
        "restart_bit_identical", "final_bit_identical", "compaction",
        "documents_final", "violations",
    ],
    ReplicationReport: [
        "ok", "seed", "duration_seconds", "topology", "responses",
        "verified_responses", "corrupted_responses", "degraded", "writes",
        "writes_acked", "writes_failed", "ship_fault_fires", "ship_failures",
        "batches_shipped", "catchups", "divergences_repaired",
        "replayed_batches", "restart_bit_identical", "killed_node",
        "kill_availability", "respawns", "final_breakers", "final_sweep",
        "final_lag", "final_bit_identical", "documents_final", "violations",
    ],
}


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
class TestReports:
    def test_ok_iff_no_violations(self, mode):
        report = SCENARIOS[mode].report(seed=2)
        assert report.ok
        report.violations.append("something broke")
        assert not report.ok

    def test_summary_keeps_every_key(self, mode):
        kind = SCENARIOS[mode].report
        report = kind(seed=5, duration_seconds=1.23456)
        if hasattr(report, "kill_availability"):
            report.kill_availability = 0.987654
        summary = report.summary()
        assert sorted(summary) == sorted(SUMMARY_KEYS[kind])
        assert list(summary)[0] == "ok" and list(summary)[-1] == "violations"
        assert summary["duration_seconds"] == 1.23
        assert summary.get("kill_availability", 0.9877) == 0.9877
        assert json.loads(json.dumps(summary)) == summary

    def test_format_report(self, mode):
        report = SCENARIOS[mode].report(seed=7)
        report.responses["warmup"] = {"200": 3}
        text = report.format_report()
        assert text.startswith(f"{report.title} run (seed 7) PASSED")
        assert "warmup: 200: 3" in text
        assert text.endswith("violations: none")
        report.violations.append("a wrong answer")
        text = report.format_report()
        assert "FAILED" in text
        assert text.endswith("violations:\n  - a wrong answer")


def test_config_names_a_mode():
    with pytest.raises(ValueError, match="unknown chaos mode"):
        ChaosConfig(mode="nope")


class _Restarted(Run):
    """A run whose service restarts into ``instance`` after replaying
    ``replayed`` batches."""

    def __init__(self, *args, instance, replayed):
        super().__init__(*args)
        self._instance, self._replayed = instance, replayed

    def start(self) -> None:
        info = {"corpora": {"chaos": {"replayed_batches": self._replayed}}}
        self.service = SimpleNamespace(ingest_info=lambda: info)
        engine = SimpleNamespace(instance=self._instance)
        self.handle = SimpleNamespace(engine=engine, generation=0)


@pytest.mark.parametrize("lost_write", [False, True])
def test_cold_restart_checks_bit_identity(play_engine, tmp_path, lost_write):
    """A batch acked before the restart that replay never finds breaks
    bit-identity, and no replayed batch is a violation of its own."""
    run = _Restarted(
        SCENARIOS["ingest"],
        ChaosConfig(mode="ingest"),
        tmp_path,
        instance=play_engine.instance,
        replayed=0 if lost_write else 1,
    )
    run.oracle = _Mirror(play_engine.instance, play_engine.text)
    run.oracle.register(0)
    run.acked = 1
    if lost_write:
        run.oracle.commit(_append("lost"), 1)
    run.cold_restart()
    assert run.report.restart_bit_identical is not lost_write
    assert run.report.violations == (
        [
            "the recovered corpus is not bit-identical to the mirror of "
            "acknowledged writes — WAL replay lost or invented a mutation",
            "1 batch(es) were acked before the restart but none were "
            "replayed from the WAL",
        ]
        if lost_write
        else []
    )
