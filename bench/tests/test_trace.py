"""Span self-time arithmetic."""

import pytest

from bench.trace import Span, Tracer, covered_seconds, layer_seconds, self_seconds


def make(id, start, end, parent=None, group=None, request=1):
    return Span(id=id, name=f"s{id}", start=start, end=end, parent=parent,
                request=request, group=group)


def test_self_time_is_the_span_minus_its_children():
    spans = [make(0, 0.0, 10.0), make(1, 0.0, 3.0, parent=0), make(2, 0.0, 4.0, parent=0),
             make(3, 0.0, 1.0, parent=2)]
    own = self_seconds(spans)
    assert own == {0: pytest.approx(3.0), 1: pytest.approx(3.0),
                   2: pytest.approx(3.0), 3: pytest.approx(1.0)}
    assert sum(own.values()) == pytest.approx(10.0)  # a tree sums to its root


def test_parallel_children_cover_only_their_slowest():
    children = [make(1, 0.0, 3.0, parent=0, group="scatter"),
                make(2, 0.0, 5.0, parent=0, group="scatter"),
                make(3, 0.0, 1.0, parent=0)]
    assert covered_seconds(children) == pytest.approx(6.0)
    own = self_seconds([make(0, 0.0, 8.0), *children])
    assert own[0] == pytest.approx(2.0)


def test_a_rung_inversion_shows_as_negative_self_time():
    own = self_seconds([make(0, 0.0, 1.0), make(1, 0.0, 1.5, parent=0)])
    assert own[0] == pytest.approx(-0.5)


def test_layers_of_a_request_add_up_to_its_root():
    spans = [
        Span(0, "service", 0.0, 10.0, None, 1, None),
        Span(1, "frontier", 0.0, 9.0, 0, 1, None),
        Span(2, "slice", 0.0, 3.0, 1, 1, "scatter"),
        Span(3, "slice", 0.0, 4.0, 1, 1, "scatter"),
        Span(4, "evaluate", 0.0, 2.5, 2, 1, None),  # under the faster slice
        Span(5, "evaluate", 0.0, 3.5, 3, 1, None),  # under the slowest one
        Span(6, "probe", 0.0, 99.0, None, None, None),  # no request: ignored
    ]
    layers = layer_seconds(spans)
    assert layers == {
        "service": pytest.approx(1.0),
        "frontier": pytest.approx(5.0),  # 9 - slowest slice
        "slice": pytest.approx(0.5),  # only the slowest member is walked
        "evaluate": pytest.approx(3.5),
    }
    assert sum(layers.values()) == pytest.approx(10.0)


def test_layer_sums_let_replay_noise_cancel_before_clamping():
    # Two requests; the callee's replay is once slower, once faster than
    # its caller.  Per span that is one inversion; per layer it is none.
    spans = [
        Span(0, "outer", 0.0, 1.0, None, 1, None), Span(1, "inner", 0.0, 1.2, 0, 1, None),
        Span(2, "outer", 0.0, 1.0, None, 2, None), Span(3, "inner", 0.0, 0.7, 2, 2, None),
    ]
    layers = layer_seconds(spans)
    assert layers["outer"] == pytest.approx(0.1)
    assert layers["inner"] == pytest.approx(1.9)


def test_tracer_links_parent_and_request_and_dumps(tmp_path):
    tracer = Tracer()
    with tracer.span("top", request=4) as top:
        pass
    with tracer.span("inner", top) as inner:
        pass
    with tracer.span("probe") as probe:
        pass
    assert (inner.parent, inner.request) == (top.id, 4)
    assert (probe.parent, probe.request) == (None, None)
    assert inner.start >= top.end and inner.seconds >= 0.0
    assert [s.name for s in tracer.named("inner")] == ["inner"]
    tracer.dump(tmp_path / "trace.json", workload="w")
    import json

    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["workload"] == "w"
    assert [s["name"] for s in written["spans"]] == ["top", "inner", "probe"]
