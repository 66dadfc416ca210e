"""Per-shard expression rewriting.

The executor never teaches shards about each other; instead it rewrites
the query per shard so the ordinary evaluator produces the shard's slice
of the global answer:

* a :class:`RegionLiteral` replaces a match-point leaf with the
  occurrences *routed to this shard* by its piece's span
  (:meth:`~repro.engine.pieces.Piece.route`);
* an :class:`OrderBound` replaces a resolved ``<``/``>`` node: the
  right operand disappears entirely, leaving a filter of the (still
  per-shard) left operand against the globally exchanged scalar —
  ``right(r) < bound`` for ``<``, ``left(r) > bound`` for ``>`` — the
  scalar forms the single-shard ``<``/``>`` bodies themselves fold to;
* a resolved ordering node whose right operand was globally empty
  becomes :class:`~repro.algebra.ast.Empty` (``R < ∅ = ∅``).

Both node types are private to the shard layer: they are produced only
here, lowered by :mod:`repro.vm.compiler` to ``load_const`` and
``order_bound_*`` instructions, and never escape into user-visible plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.algebra import ast as A
from repro.core.region import Region
from repro.core.regionset import RegionSet

__all__ = ["RegionLiteral", "OrderBound", "rewrite"]


@dataclass(frozen=True, slots=True)
class RegionLiteral(A.Expr):
    """A materialized region set (this shard's routed match points)."""

    regions: RegionSet | tuple[Region, ...]


@dataclass(frozen=True, slots=True)
class OrderBound(A.Expr):
    """A resolved ordering semi-join: filter ``child`` by a global scalar."""

    child: A.Expr
    kind: str  #: "preceding" or "following"
    bound: int  #: global max-left (preceding) or min-right (following)


def rewrite(
    expr: A.Expr,
    bounds: Mapping[A.Expr, int | None],
    points: Mapping[str, RegionSet | tuple[Region, ...]],
) -> A.Expr:
    """The shard-local form of ``expr`` under the given resolutions.

    ``bounds`` maps original ``<``/``>`` nodes to their exchanged scalar
    (``None`` for a globally empty right operand); ``points`` maps
    match-point patterns to this shard's routed occurrences.  Nodes
    without a resolution are rebuilt unchanged, so the same function
    serves both the per-round right-operand rewrites (partial
    ``bounds``) and the final scatter (complete ``bounds``).
    """
    if isinstance(expr, A.MatchPoints):
        routed = points.get(expr.pattern)
        if routed is None:
            return expr
        return RegionLiteral(routed)
    if isinstance(expr, (A.Preceding, A.Following)) and expr in bounds:
        bound = bounds[expr]
        if bound is None:
            return A.Empty()
        kind = "preceding" if isinstance(expr, A.Preceding) else "following"
        return OrderBound(rewrite(expr.left, bounds, points), kind, bound)
    out = expr
    for i, child in enumerate(A.children(expr)):
        new = rewrite(child, bounds, points)
        if new is not child:
            out = A.replace_child(out, i, new)
    return out
