"""Failure accounting: a wrong, failed or stale answer is counted."""

from bench import stats
from bench.measure import check_reply, run_cycle
from bench.oracle import answer_of
from bench.spec import QUERIES
from bench.workloads import BadReply, Workload

GOOD = [(1, 5), (7, 9)]
ORACLE = {template: answer_of(GOOD) for template in QUERIES}


class Fake(Workload):
    """Answers ``GOOD`` except for the templates it is told to spoil."""

    def __init__(self, wrong=(), raising=(), rejected=()):
        self.wrong, self.raising, self.rejected = wrong, raising, rejected

    def read(self, template):
        if template in self.raising:
            raise RuntimeError("boom")
        return template

    def pairs(self, reply):
        if reply in self.rejected:
            raise BadReply("HTTP 500")
        return [(1, 5), (7, 10)] if reply in self.wrong else GOOD

    def close(self):
        pass


def cycle(ctx):
    return run_cycle(ctx, stats.blocks(1), ORACLE)


def test_a_correct_cycle_has_no_failures():
    done = cycle(Fake())
    assert done.attempted == 16 and done.failures == []
    assert len(done.reads) == 16 and done.wall > 0.0


def test_an_injected_wrong_answer_raises_the_failed_count():
    done = cycle(Fake(wrong=("bi_scene",)))
    assert len(done.failures) == 1  # bi_scene is 1 request of 16
    assert "oracle says" in done.failures[0]
    assert len(cycle(Fake(wrong=("contain_order",))).failures) == 3


def test_exceptions_and_rejected_replies_count_as_failed():
    assert len(cycle(Fake(raising=("word_points",))).failures) == 2
    assert len(cycle(Fake(rejected=("direct_union",))).failures) == 2


def test_same_cardinality_different_regions_is_still_wrong():
    assert answer_of([(1, 5), (7, 9)]) != answer_of([(1, 5), (7, 10)])
    assert answer_of([[1, 5], [7, 9]]) == answer_of(GOOD)  # JSON lists too
    assert check_reply(Fake(), "bi_scene", "bi_scene", ORACLE) is None


def test_metrics_come_from_the_fastest_quarter_of_cycles():
    from bench.measure import Cycle, summarize

    def made(wall):
        return Cycle(wall=wall, cpu=wall, reads=[(wall / 16, "bi_scene")] * 16)

    quiet, disturbed = [made(1.0)] * 2, [made(2.0)] * 6
    summary = summarize(disturbed + quiet)
    assert summary["quiet_repetitions"] == 2 and summary["repetitions"] == 8
    assert summary["quiet"]["queries_per_s"] == 16.0
    assert summary["all"]["queries_per_s"] < 16.0
    assert summary["rep_spread"] == 1.0 and summary["noisy"] is True


def test_an_empty_answer_is_a_failure_even_without_an_oracle():
    class Empty(Fake):
        def pairs(self, reply):
            return []

    assert "empty" in check_reply(Empty(), "bi_scene", "x", {})
