"""Spans recorded from the benchmark's side of each layer boundary.

The traced pass replays a request *rung by rung*: the top-level call,
then — standalone, on the same query and corpus — each public call the
layer below would make.  Every replay is a span whose ``parent`` is the
span of the call that makes it, so one request is one tree, and a
layer's self time is its span minus what its children cover.  Children
with the same ``group`` stand for calls the parent runs in parallel
(the frontier's per-group scatter); together they cover only as long
as the slowest of them.  Spans without a request are probes: measured,
listed, but part of no request's tree.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None  #: id of the span whose callee this one replays
    request: int | None  #: shared by all spans of one request
    group: str | None  #: parallel siblings share a group

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; :meth:`dump` writes them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(
        self,
        name: str,
        parent: Span | None = None,
        request: int | None = None,
        group: str | None = None,
    ) -> Iterator[Span]:
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            id=len(self.spans),
            name=name,
            start=0.0,
            end=0.0,
            parent=None if parent is None else parent.id,
            request=request,
            group=group,
        )
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path: Path, **header: object) -> None:
        payload = {**header, "spans": [asdict(span) for span in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def covered_seconds(children: list[Span]) -> float:
    """How much of a parent's interval its children account for:
    sequential children add up, a parallel group counts its slowest."""
    total = 0.0
    slowest: dict[str, float] = {}
    for child in children:
        if child.group is None:
            total += child.seconds
        else:
            slowest[child.group] = max(slowest.get(child.group, 0.0), child.seconds)
    return total + sum(slowest.values())


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: the span minus what its children cover.
    Negative when the standalone replays of a span's callees took longer
    than the span itself (a rung inversion)."""
    children = _children(spans)
    return {
        span.id: span.seconds - covered_seconds(children.get(span.id, []))
        for span in spans
    }


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per span *name*, summed over every request's tree.

    Of a parallel group only the slowest member's subtree is walked —
    the same member its parent's self time was charged for — so the
    layers of one request add up to exactly its root span.  Sums, not
    per-span clamps: replay noise cancels within a layer before anyone
    asks whether the layer's total is negative.
    """
    children = _children(spans)
    own = self_seconds(spans)
    totals: dict[str, float] = {}

    def walk(span: Span) -> None:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
        slowest: dict[str, Span] = {}
        for child in children.get(span.id, []):
            if child.group is None:
                walk(child)
            elif child.group not in slowest or child.seconds > slowest[child.group].seconds:
                slowest[child.group] = child
        for child in slowest.values():
            walk(child)

    for span in spans:
        if span.parent is None and span.request is not None:
            walk(span)
    return totals


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children
