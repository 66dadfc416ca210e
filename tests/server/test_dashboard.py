"""The ``repro top`` dashboard: quantile math, frame diffs, live loop."""

import io
import json

import pytest

from repro.server.dashboard import (
    bucket_quantile,
    compute_frame,
    render_frame,
    run_top,
)


class TestBucketQuantile:
    def test_empty_is_zero(self):
        assert bucket_quantile({}, 0.5) == 0.0
        assert bucket_quantile({"0.1": 0, "+inf": 0}, 0.5) == 0.0

    def test_interpolates_inside_a_bucket(self):
        # 10 observations in (0, 0.1]: the median interpolates halfway.
        assert bucket_quantile({"0.1": 10}, 0.5) == pytest.approx(0.05)

    def test_walks_buckets_in_order(self):
        buckets = {"0.1": 5, "1.0": 5, "+inf": 0}
        assert bucket_quantile(buckets, 0.25) == pytest.approx(0.05)
        # rank 7.5 of 10 -> half way through the (0.1, 1.0] bucket
        assert bucket_quantile(buckets, 0.75) == pytest.approx(0.55)

    def test_inf_bucket_reports_last_finite_bound(self):
        buckets = {"0.1": 1, "1.0": 1, "+inf": 8}
        assert bucket_quantile(buckets, 0.99) == pytest.approx(1.0)


def sample(time, requests_200=0, requests_500=0, hits=0, misses=0,
           shard_calls=0, buckets=None, uptime=10.0):
    counters = {
        "server_requests_total": {
            "endpoint=query,status=200": requests_200,
            "endpoint=query,status=500": requests_500,
        },
        "server_cache_hits_total": {"": hits},
        "server_cache_misses_total": {"": misses},
        "backend_requests_total": {"node=shard0,outcome=ok": shard_calls},
    }
    histograms = {
        "server_request_seconds": {
            "endpoint=query": {
                "count": sum((buckets or {}).values()),
                "sum": 0.0,
                "buckets": buckets or {},
            }
        }
    }
    return {
        "time": time,
        "metrics": {"metrics": {"counters": counters, "gauges": {},
                                "histograms": histograms}},
        "healthz": {"status": "healthy", "uptime_seconds": uptime},
        "slo": {
            "objectives": {
                "availability": {
                    "fast": {"burn": 0.5},
                    "slow": {"burn": 0.2},
                    "burn_threshold": 10.0,
                    "fast_burn_active": False,
                }
            }
        },
        "traces": {
            "traces": [
                {
                    "trace_id": "abc",
                    "duration": 0.2,
                    "endpoint": "query",
                    "status": "200",
                    "reasons": ["slow"],
                }
            ]
        },
    }


class TestComputeFrame:
    def test_rates_come_from_deltas(self):
        prev = sample(100.0, requests_200=50, hits=10, misses=10,
                      shard_calls=100, buckets={"0.1": 50})
        cur = sample(102.0, requests_200=70, requests_500=0, hits=20,
                     misses=10, shard_calls=140, buckets={"0.1": 70})
        frame = compute_frame(prev, cur)
        assert frame["interval"] == pytest.approx(2.0)
        assert frame["qps"] == pytest.approx(10.0)
        assert frame["error_rate"] == 0.0
        assert frame["cache_hit_rate"] == pytest.approx(1.0)  # 10 of 10 new
        assert frame["shard_fanout"] == pytest.approx(2.0)  # 40 calls / 20
        assert frame["latency_ms"]["p50"] == pytest.approx(50.0)

    def test_error_rate_counts_5xx(self):
        prev = sample(100.0, requests_200=10)
        cur = sample(101.0, requests_200=18, requests_500=2)
        frame = compute_frame(prev, cur)
        assert frame["error_rate"] == pytest.approx(0.2)

    def test_first_frame_uses_cumulative_over_uptime(self):
        cur = sample(100.0, requests_200=50, uptime=5.0,
                     buckets={"0.1": 50})
        frame = compute_frame(None, cur)
        assert frame["qps"] == pytest.approx(10.0)
        assert frame["latency_ms"]["p50"] > 0

    def test_unreachable_server(self):
        frame = compute_frame(None, {"time": 1.0, "metrics": None})
        assert frame["reachable"] is False
        assert "unreachable" in render_frame(frame)

    def test_slo_and_traces_surface(self):
        frame = compute_frame(None, sample(100.0, requests_200=1))
        assert frame["slo"][0]["name"] == "availability"
        assert frame["slowest_traces"][0]["trace_id"] == "abc"
        text = render_frame(frame)
        assert "availability" in text
        assert "abc" in text
        assert "fan-out" not in text or frame["shard_fanout"] is not None


class TestLiveLoop:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.server import (
            CorpusSpec,
            QueryService,
            ServerConfig,
            create_server,
        )

        spec = CorpusSpec(
            name="play", kind="synthetic", path="play", seed=11, scale=2
        )
        service = QueryService(
            ServerConfig(workers=2, corpora=(spec,), tracing=True,
                         trace_sample_rate=1.0)
        )
        srv = create_server(service, port=0)
        srv.serve_in_background()
        yield srv
        srv.stop()
        service.close()

    def test_json_frames_against_live_server(self, server):
        server.service.execute("speech dwithin scene", use_cache=False)
        out = io.StringIO()
        run_top(
            "127.0.0.1",
            server.bound_port,
            interval=0.05,
            iterations=2,
            json_output=True,
            stream=out,
        )
        frames = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(frames) == 2
        assert frames[0]["reachable"] is True
        assert frames[0]["health"] == "healthy"
        assert frames[0]["qps"] >= 0

    def test_rendered_dashboard_against_live_server(self, server):
        out = io.StringIO()
        run_top(
            "127.0.0.1",
            server.bound_port,
            interval=0.05,
            iterations=1,
            stream=out,
        )
        text = out.getvalue()
        assert "repro top" in text
        assert "objective" in text

    def test_down_server_renders_unreachable(self):
        out = io.StringIO()
        run_top(
            "127.0.0.1", 1, interval=0.05, iterations=1, stream=out
        )
        assert "unreachable" in out.getvalue()
