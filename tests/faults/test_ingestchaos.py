"""The ingest chaos harness: report mechanics plus one short run."""

from repro.faults.chaos import ChaosConfig, IngestReport, run_chaos


class TestReport:
    def test_ok_iff_no_violations(self):
        report = IngestReport(seed=1)
        assert report.ok
        report.violations.append("a committed batch vanished")
        assert not report.ok

    def test_summary_and_format(self):
        report = IngestReport(seed=3)
        report.responses["warmup"] = {"200": 40}
        report.writes_acked = 12
        report.writes_failed = 3
        report.wal_fault_fires = 3
        report.replayed_batches = 5
        report.restart_bit_identical = True
        report.final_bit_identical = True
        report.compaction = {"merged_segments": 4, "dropped_tombstones": 1}
        summary = report.summary()
        assert summary["ok"] is True
        assert summary["writes_acked"] == 12
        text = report.format_report()
        assert "PASSED" in text
        assert "12 acked, 3 failed" in text
        assert "merged 4 segment(s)" in text

    def test_format_lists_violations(self):
        report = IngestReport(seed=0)
        report.violations.append("post-restart state diverged from mirror")
        text = report.format_report()
        assert "FAILED" in text
        assert "diverged" in text


class TestRunIngestChaos:
    def test_short_run_passes_all_invariants(self):
        """An abbreviated end-to-end ingest chaos scenario: sustained
        reads and writes, WAL faults failing a slice of the commits, a
        cold restart that must replay to a bit-identical corpus, and a
        final three-way oracle (serving state == acked-batch mirror ==
        rebuilt-from-scratch re-parse)."""
        config = ChaosConfig(
            mode="ingest",
            seed=0,
            qps=40.0,
            write_rate=10.0,
            warmup_seconds=0.8,
            fault_seconds=2.4,
            recovery_seconds=1.2,
            fault_rate=0.05,  # a WAL fault rate of 0.35
        )
        report = run_chaos(config)
        assert report.ok, report.violations
        assert report.corrupted_responses == 0
        assert report.verified_responses > 0
        assert report.writes_acked > 0
        assert report.generations_published > 0
        assert report.restart_bit_identical
        assert report.final_bit_identical

    def test_same_seed_same_outcome(self):
        """Chaos is deterministic by seed: two identical configs observe
        the same write stream and the same fault decisions."""
        config = ChaosConfig(
            mode="ingest",
            seed=4,
            qps=20.0,
            write_rate=8.0,
            warmup_seconds=0.5,
            fault_seconds=1.6,
            recovery_seconds=0.8,
            fault_rate=0.5 / 7,  # a WAL fault rate of 0.5
        )
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.ok, first.violations
        assert second.ok, second.violations
        assert first.writes_acked == second.writes_acked
        assert first.writes_failed == second.writes_failed
        assert first.wal_fault_fires == second.wal_fault_fires
        assert first.documents_final == second.documents_final
