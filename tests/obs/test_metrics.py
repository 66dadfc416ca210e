"""Counters, gauges, histograms, and the registry."""

import json
import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value() == 0.0

    def test_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_are_independent(self):
        counter = Counter("c")
        counter.inc(op="Union")
        counter.inc(3, op="Select")
        assert counter.value(op="Union") == 1.0
        assert counter.value(op="Select") == 3.0
        assert counter.value() == 0.0
        assert counter.total() == 4.0

    def test_label_order_irrelevant(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(2, op="Union")
        assert counter.snapshot() == {"op=Union": 2.0}


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3.0

    def test_labels(self):
        gauge = Gauge("g")
        gauge.set(1, shard="a")
        gauge.set(2, shard="b")
        assert gauge.snapshot() == {"shard=a": 1.0, "shard=b": 2.0}


class TestHistogramBuckets:
    def test_value_on_edge_lands_in_that_bucket(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(1.0)  # exactly on the first bound
        snap = hist.snapshot()[""]
        assert snap["buckets"]["1.0"] == 1
        assert snap["buckets"]["10.0"] == 0

    def test_value_above_all_bounds_is_inf(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(11.0)
        assert hist.snapshot()[""]["buckets"]["+inf"] == 1

    def test_value_between_bounds(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(5.0)
        snap = hist.snapshot()[""]
        assert snap["buckets"] == {"1.0": 0, "10.0": 1, "+inf": 0}

    def test_sum_and_count(self):
        hist = Histogram("h", buckets=(1.0,))
        for v in (0.5, 2.0, 3.0):
            hist.observe(v)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.5)
        assert hist.mean() == pytest.approx(5.5 / 3)

    def test_mean_of_empty_is_nan(self):
        assert math.isnan(Histogram("h").mean())

    def test_labeled_series_are_independent(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5, op="Union")
        hist.observe(2.0, op="Select")
        assert hist.count(op="Union") == 1
        assert hist.count(op="Select") == 1
        assert hist.count() == 0
        assert hist.total_count() == 2
        assert hist.total_sum() == pytest.approx(2.5)

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_cardinality_buckets_cover_zero(self):
        hist = Histogram("h", buckets=(0.0, 1.0, 10.0, 100.0))
        hist.observe(0)
        assert hist.snapshot()[""]["buckets"]["0.0"] == 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="different kind"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="different kind"):
            registry.histogram("x")

    def test_bucket_drift_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(op="Union")
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"]["c"] == {"op=Union": 1.0}
        assert snap["histograms"]["h"][""]["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestLabelEscaping:
    def test_plain_labels_unchanged(self):
        from repro.obs.metrics import parse_label_text

        counter = Counter("c")
        counter.inc(endpoint="query", status="200")
        text = next(iter(counter.snapshot()))
        assert text == "endpoint=query,status=200"
        assert parse_label_text(text) == [
            ("endpoint", "query"),
            ("status", "200"),
        ]

    @pytest.mark.parametrize(
        "value",
        [
            "a,b",
            "k=v",
            "back\\slash",
            "two\nlines",
            "all,of=it\\together\n",
        ],
    )
    def test_awkward_values_round_trip(self, value):
        from repro.obs.metrics import parse_label_text

        counter = Counter("c")
        counter.inc(q=value)
        text = next(iter(counter.snapshot()))
        assert parse_label_text(text) == [("q", value)]

    def test_distinct_values_stay_distinct(self):
        # Without escaping, {"a": "x,b=y"} and {"a": "x", "b": "y"}
        # would collide into one series.
        counter = Counter("c")
        counter.inc(a="x,b=y")
        counter.inc(a="x", b="y")
        assert len(counter.snapshot()) == 2


class TestExemplars:
    def test_exemplar_lands_in_its_bucket(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5, exemplar="abc123")
        snap = histogram.snapshot()[""]
        assert "0.1" not in snap.get("exemplars", {})
        exemplar = snap["exemplars"]["1.0"]
        assert exemplar["trace_id"] == "abc123"
        assert exemplar["value"] == 0.5
        assert exemplar["timestamp"] > 0

    def test_latest_exemplar_wins(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.2, exemplar="old")
        histogram.observe(0.3, exemplar="new")
        assert histogram.snapshot()[""]["exemplars"]["1.0"]["trace_id"] == "new"

    def test_no_exemplars_key_when_none_given(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.2)
        assert "exemplars" not in histogram.snapshot()[""]


class TestConcurrentSnapshots:
    def test_histogram_snapshot_never_tears(self):
        import threading

        histogram = Histogram("h", buckets=(0.5,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                histogram.observe(0.1)
                histogram.observe(0.9)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                snap = histogram.snapshot().get("")
                if snap is None:
                    continue
                # A torn read would show bucket counts that do not sum
                # to the series count.
                assert sum(snap["buckets"].values()) == snap["count"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_counter_snapshot_consistent_under_writers(self):
        import threading

        counter = Counter("c")
        rounds = 200

        def writer(tag):
            for _ in range(rounds):
                counter.inc(worker=tag)

        threads = [
            threading.Thread(target=writer, args=(str(i),)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            snapshot = counter.snapshot()
            assert all(value <= rounds for value in snapshot.values())
        for thread in threads:
            thread.join()
        assert sum(counter.snapshot().values()) == 4 * rounds
