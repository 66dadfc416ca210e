"""The backend-kill chaos harness: report mechanics plus one short run."""

from repro.faults.chaos import BackendKillReport, ChaosConfig, run_chaos


class TestReport:
    def test_ok_iff_no_violations(self):
        report = BackendKillReport(seed=1)
        assert report.ok
        report.violations.append("something broke")
        assert not report.ok

    def test_summary_and_format(self):
        report = BackendKillReport(seed=3)
        report.topology = {"nodes": 2, "groups": 2, "replicas": 2}
        report.responses["kill"] = {"200": 50}
        report.killed_node = "b1"
        report.kill_availability = 1.0
        report.final_breakers = {"b0": "closed", "b1": "closed"}
        summary = report.summary()
        assert summary["ok"] is True
        assert summary["killed_node"] == "b1"
        text = report.format_report()
        assert "PASSED" in text
        assert "killed b1 with SIGKILL" in text
        assert "b1: closed" in text

    def test_format_lists_violations(self):
        report = BackendKillReport(seed=0)
        report.violations.append("the supervisor never respawned b0")
        text = report.format_report()
        assert "FAILED" in text
        assert "never respawned" in text


class TestRunBackendChaos:
    def test_short_run_passes_all_invariants(self):
        """An abbreviated end-to-end backend-kill scenario: one backend
        SIGKILL'd mid-load, failover keeps availability, the supervisor
        respawns it, breakers re-close, and every response matches the
        single-process oracle."""
        report = run_chaos(
            ChaosConfig(
                mode="backend-kill",
                seed=0,
                qps=30.0,
                warmup_seconds=0.5,
                fault_seconds=2.5,
                recovery_seconds=1.5,
                breaker_reset=0.5,
                respawn_delay=0.3,
            )
        )
        assert report.ok, report.violations
        assert report.corrupted_responses == 0
        assert report.verified_responses > 0
        assert report.respawns >= 1
        assert report.kill_availability >= 0.9
        assert all(
            state == "closed" for state in report.final_breakers.values()
        )
        assert report.equivalence_checks == 5
