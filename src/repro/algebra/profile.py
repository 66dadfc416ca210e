"""Instrumented evaluation: per-operator cardinalities and timings.

``EXPLAIN ANALYZE`` for the region algebra: :func:`profile` evaluates an
expression while recording, for every node, its output cardinality and
cumulative wall time.  The report feeds the cost model's calibration
tests (estimated vs actual cardinalities) and makes the engine's
behaviour inspectable from the CLI and examples.

This is a thin view over a trace: :func:`profile` runs the ordinary
:class:`Evaluator` under an enabled :class:`~repro.obs.trace.Tracer`,
which records one ``eval.*`` span per executed VM instruction, and walks
the expression pre-order over those measurements into
:class:`NodeProfile` rows.  Memoization stays **on** — matching
production behaviour on DAG-shaped queries — so a repeated
sub-expression shows up as a cache hit (``cache_hit=True``, zero time)
rather than being re-timed as if the engine recomputed it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.algebra.printer import to_text
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.obs.trace import Span, Tracer

__all__ = ["NodeProfile", "QueryProfile", "profile", "profile_from_span"]


@dataclass(frozen=True)
class NodeProfile:
    """One evaluated node: its text, output size, and inclusive time."""

    expression: A.Expr
    cardinality: int
    seconds: float
    depth: int
    cache_hit: bool = False

    @property
    def text(self) -> str:
        return to_text(self.expression)


@dataclass
class QueryProfile:
    """The full per-node breakdown of one evaluation."""

    result: RegionSet
    nodes: list[NodeProfile] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.nodes[0].seconds if self.nodes else 0.0

    @property
    def cache_hits(self) -> int:
        """Memoization hits across the whole evaluation."""
        return sum(1 for node in self.nodes if node.cache_hit)

    def hottest(self, count: int = 3) -> list[NodeProfile]:
        """The nodes with the largest inclusive times."""
        return sorted(self.nodes, key=lambda n: n.seconds, reverse=True)[:count]

    def __str__(self) -> str:  # pragma: no cover - display helper
        lines = []
        for node in self.nodes:
            indent = "  " * node.depth
            tag = " (cached)" if node.cache_hit else ""
            lines.append(
                f"{indent}{node.text}  -> {node.cardinality} regions, "
                f"{node.seconds * 1e6:.0f} µs{tag}"
            )
        return "\n".join(lines)


def profile_from_span(root: Span, result: RegionSet) -> QueryProfile:
    """Rebuild the per-node rows from an evaluator span tree.

    Only ``eval.*`` spans carry data — one per executed instruction, in
    execution order, the last being the whole expression.  Walking that
    expression pre-order, a node's first visit takes the next unused
    measurement of its expression (inclusive time = its kernel time plus
    its operands' rows); a visit with none left was a register re-read
    and becomes a ``cache_hit`` row with no children.
    """
    pending: dict[A.Expr, deque[Span]] = {}
    last: Span | None = None
    for span in root.walk():
        if span.name.startswith("eval.") and "expression" in span.attributes:
            pending.setdefault(span.attributes["expression"], deque()).append(span)
            last = span
    if last is None:
        return QueryProfile(result=result)
    cardinality: dict[A.Expr, int] = {}

    def visit(expr: A.Expr, depth: int) -> list[NodeProfile]:
        queue = pending.get(expr)
        if not queue:
            return [NodeProfile(expr, cardinality.get(expr, 0), 0.0, depth, True)]
        span = queue.popleft()
        cardinality[expr] = span.attributes.get("cardinality", 0)
        below = [
            row for child in A.children(expr) for row in visit(child, depth + 1)
        ]
        seconds = span.duration + sum(
            row.seconds for row in below if row.depth == depth + 1
        )
        return [NodeProfile(expr, cardinality[expr], seconds, depth), *below]

    return QueryProfile(result=result, nodes=visit(last.attributes["expression"], 0))


def profile(
    expr: A.Expr | str,
    instance: Instance,
    memoize: bool = True,
) -> QueryProfile:
    """Evaluate ``expr`` and return the per-node breakdown."""
    if isinstance(expr, str):
        expr = parse(expr)
    tracer = Tracer(enabled=True)
    evaluator = Evaluator(memoize=memoize, tracer=tracer)
    result = evaluator.evaluate(expr, instance)
    root = tracer.last_root
    if root is None:  # pragma: no cover - evaluate always opens a span
        return QueryProfile(result=result)
    return profile_from_span(root, result)
