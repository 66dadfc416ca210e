"""The chaos harness: oracle verification units plus one short run."""

import random

import pytest

from repro.engine.session import Engine
from repro.faults.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.faults.scenario import _Oracles
from repro.workloads.corpora import generate_play
from repro.workloads.queries import PLAY_QUERIES


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


class TestOracles:
    def test_correct_responses_verify_clean(self, play_engine):
        oracles = _Oracles(play_engine, PLAY_QUERIES)
        for text in PLAY_QUERIES.values():
            regions = [
                [r.left, r.right] for r in play_engine.query(text)
            ]
            assert oracles.verify(text, regions) == []

    def test_reduction_oracle_built_for_order_free_queries(self, play_engine):
        oracles = _Oracles(play_engine, PLAY_QUERIES)
        # The play mix is entirely order-free and the generated corpus
        # has isomorphic siblings, so the theorem oracle must exist.
        assert oracles.reduction

    def test_corrupted_response_detected(self, play_engine):
        oracles = _Oracles(play_engine, PLAY_QUERIES)
        text = next(iter(PLAY_QUERIES.values()))
        regions = [[r.left, r.right] for r in play_engine.query(text)]
        assert regions, "need a non-empty result to corrupt"
        mangled = regions[:-1] + [[regions[-1][0] + 1, regions[-1][1] + 1]]
        problems = oracles.verify(text, mangled)
        assert problems
        assert any("baseline" in p for p in problems)

    def test_dropped_region_violates_reduction_theorem(self, play_engine):
        oracles = _Oracles(play_engine, PLAY_QUERIES)
        candidates = [
            text
            for text, expected in oracles.reduction.items()
            if oracles.baseline[text]
        ]
        assert candidates
        text = candidates[0]
        regions = sorted(oracles.baseline[text])
        problems = oracles.verify(text, [list(r) for r in regions[:-1]])
        assert problems

    def test_verdicts_are_cached(self, play_engine):
        oracles = _Oracles(play_engine, PLAY_QUERIES)
        text = next(iter(PLAY_QUERIES.values()))
        regions = [[r.left, r.right] for r in play_engine.query(text)]
        oracles.verify(text, regions)
        checks_after_first = oracles.reduction_checks
        oracles.verify(text, regions)
        assert oracles.reduction_checks == checks_after_first


class TestReport:
    def test_ok_iff_no_violations(self):
        report = ChaosReport()
        assert report.ok
        report.violations.append("something broke")
        assert not report.ok

    def test_summary_and_format(self):
        report = ChaosReport(seed=3)
        report.responses["fault"] = {"200": 10, "500": 1}
        report.health_states_seen = ["healthy", "degraded", "healthy"]
        summary = report.summary()
        assert summary["ok"] is True
        assert summary["seed"] == 3
        text = report.format_report()
        assert "PASSED" in text
        assert "healthy -> degraded -> healthy" in text


class TestRunChaos:
    def test_short_run_passes_all_invariants(self):
        """An end-to-end (but abbreviated) chaos scenario: faults fire,
        the breaker trips and recovers, the index is rebuilt, health
        degrades and heals, and no response is ever corrupted."""
        report = run_chaos(
            ChaosConfig(
                seed=0,
                qps=50.0,
                warmup_seconds=0.6,
                fault_seconds=2.5,
                recovery_seconds=2.0,
                reload_period=0.25,
                breaker_reset=0.5,
            )
        )
        assert report.ok, report.violations
        assert report.corrupted_responses == 0
        assert report.breaker_trips >= 1
        assert report.breaker_final_state == "closed"
        assert report.rebuilds >= 1
        assert report.health_states_seen[0] == "healthy"
        assert "degraded" in report.health_states_seen
        assert report.final_health == "healthy"
        assert report.fault_fires  # something actually fired
        assert report.verified_responses > 0
