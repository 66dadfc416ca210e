"""The ambient trace context: propagation, serialization, detail gate."""

import contextvars

import pytest

from repro.obs import context as trace_context
from repro.obs.context import TraceContext, new_trace_id


class TestTraceContext:
    def test_new_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # hex or ValueError

    def test_child_keeps_trace_id_and_sampling(self):
        ctx = TraceContext(trace_id="abc123", span_id=7, sampled=False)
        child = ctx.child(9)
        assert child.trace_id == "abc123"
        assert child.span_id == 9
        assert child.sampled is False

    def test_dict_round_trip(self):
        ctx = TraceContext(trace_id="deadbeef", span_id=3, sampled=False)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_from_dict_defaults(self):
        ctx = TraceContext.from_dict({"trace_id": "x"})
        assert ctx.span_id is None
        assert ctx.sampled is True


class TestActivation:
    def test_activate_restore(self):
        assert trace_context.current() is None
        ctx = TraceContext(trace_id="t1")
        token = trace_context.activate(ctx)
        try:
            assert trace_context.current() is ctx
            assert trace_context.current_trace_id() == "t1"
        finally:
            trace_context.restore(token)
        assert trace_context.current() is None
        assert trace_context.current_trace_id() is None

    def test_active_context_manager(self):
        with trace_context.active(TraceContext(trace_id="t2")):
            assert trace_context.current_trace_id() == "t2"
        assert trace_context.current() is None

    def test_copy_context_carries_activation(self):
        # What the shard executor's scatter does: snapshot here, run elsewhere.
        with trace_context.active(TraceContext(trace_id="t3")):
            snapshot = contextvars.copy_context()
        assert trace_context.current() is None
        assert snapshot.run(trace_context.current_trace_id) == "t3"


class TestDetailGate:
    def test_enabled_outside_any_request(self):
        assert trace_context.detail_enabled() is True

    @pytest.mark.parametrize("sampled", [True, False])
    def test_follows_sampling_decision(self, sampled):
        with trace_context.active(
            TraceContext(trace_id="t", sampled=sampled)
        ):
            assert trace_context.detail_enabled() is sampled
