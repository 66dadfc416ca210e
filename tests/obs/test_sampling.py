"""Head sampling and the two-ring tail-keep trace store."""

import pytest

from repro.obs.sampling import (
    KEEP_ERROR,
    KEEP_FAULT,
    KEEP_SAMPLED,
    KEEP_SLOW,
    HeadSampler,
    TraceStore,
)
from repro.obs.trace import Span


def finished_span(name="request", seconds=0.01, fault_children=0, **attrs):
    span = Span(name, **attrs)
    for i in range(fault_children):
        child = Span("shard.task", parent_id=span.span_id, fault=True)
        child._end = child._start
        span.children.append(child)
    span._end = span._start + seconds
    return span


class TestHeadSampler:
    def test_rate_bounds(self):
        assert HeadSampler(0.0).sample("ffffffff00000000") is False
        assert HeadSampler(1.0).sample("anything") is True
        with pytest.raises(ValueError):
            HeadSampler(1.5)

    def test_deterministic_per_trace_id(self):
        sampler = HeadSampler(0.5)
        trace_id = "80000000deadbeef"
        assert all(
            sampler.sample(trace_id) == sampler.sample(trace_id)
            for _ in range(10)
        )

    def test_draw_uses_leading_hex(self):
        # 0x00000000 / 2^32 = 0 < 0.5; 0xffffffff / 2^32 ~ 1 >= 0.5.
        sampler = HeadSampler(0.5)
        assert sampler.sample("00000000aaaaaaaa") is True
        assert sampler.sample("ffffffffaaaaaaaa") is False

    def test_rate_is_roughly_honored(self):
        import random

        rng = random.Random(7)
        sampler = HeadSampler(0.25)
        hits = sum(
            sampler.sample(f"{rng.getrandbits(64):016x}") for _ in range(2000)
        )
        assert 0.18 < hits / 2000 < 0.32


class TestKeepReasons:
    def test_unsampled_fast_clean_trace_is_dropped(self):
        store = TraceStore(slow_threshold=1.0)
        reasons = store.offer("t1", finished_span(), sampled=False)
        assert reasons == ()
        assert store.get("t1") is None
        assert store.stats()["dropped"] == 1

    def test_sampled_trace_is_kept(self):
        store = TraceStore(slow_threshold=1.0)
        assert store.offer("t1", finished_span(), sampled=True) == (
            KEEP_SAMPLED,
        )
        assert store.get("t1") is not None

    def test_error_and_slow_and_fault_reasons(self):
        store = TraceStore(slow_threshold=0.5)
        span = finished_span(seconds=0.9, fault_children=2)
        reasons = store.offer(
            "t1", span, sampled=True, status="500", error=True
        )
        assert reasons == (KEEP_ERROR, KEEP_SLOW, KEEP_FAULT, KEEP_SAMPLED)
        kept = store.get("t1")
        assert kept.fault_spans == 2
        assert kept.status == "500"

    def test_cause_kept_traces_survive_sampled_churn(self):
        store = TraceStore(capacity=4, tail_capacity=4, slow_threshold=1.0)
        store.offer("bad", finished_span(), sampled=False, error=True)
        for i in range(50):
            store.offer(f"ok{i}", finished_span(), sampled=True)
        assert store.get("bad") is not None  # tail ring untouched
        assert store.stats()["sampled_ring"] == 4
        assert store.stats()["evicted"] == 46

    def test_tail_ring_evicts_oldest_cause_kept(self):
        store = TraceStore(tail_capacity=2, slow_threshold=1.0)
        for i in range(3):
            store.offer(f"e{i}", finished_span(), sampled=False, error=True)
        assert store.get("e0") is None
        assert store.get("e1") is not None
        assert store.get("e2") is not None


class TestListing:
    def test_slowest_orders_by_duration(self):
        store = TraceStore(slow_threshold=10.0)
        for i, seconds in enumerate([0.03, 0.01, 0.02]):
            store.offer(f"t{i}", finished_span(seconds=seconds), sampled=True)
        assert [t.trace_id for t in store.slowest(2)] == ["t0", "t2"]
        rows = store.summaries(limit=2, sort="slowest")
        assert [row["trace_id"] for row in rows] == ["t0", "t2"]

    def test_fault_marked_listing(self):
        store = TraceStore(slow_threshold=10.0)
        store.offer("clean", finished_span(), sampled=True)
        store.offer(
            "faulty", finished_span(fault_children=1), sampled=False
        )
        assert [t.trace_id for t in store.fault_marked()] == ["faulty"]

    def test_summary_counts_spans(self):
        store = TraceStore(slow_threshold=10.0)
        store.offer(
            "t", finished_span(fault_children=3), sampled=True
        )
        summary = store.get("t").to_summary()
        assert summary["spans"] == 4
        full = store.get("t").to_dict()
        assert full["root"]["name"] == "request"
        assert len(full["root"]["children"]) == 3


class TestMetrics:
    def test_kept_and_dropped_counters(self):
        store = TraceStore(slow_threshold=1.0)
        assert store.offer("a", finished_span(), sampled=True) == (KEEP_SAMPLED,)
        assert store.offer(
            "b", finished_span(), sampled=False, error=True
        ) == (KEEP_ERROR,)
        assert store.offer("c", finished_span(), sampled=False) == ()
        stats = store.stats()
        assert (stats["kept"], stats["dropped"]) == (2, 1)
