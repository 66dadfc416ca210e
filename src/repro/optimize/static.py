"""Static analysis of expressions against a RIG (and optionally a ROG).

Theorem 3.6 shows emptiness is decidable *relative to a RIG*; full
decision is Co-NP-hard (Theorem 3.5), but a sound polynomial
approximation goes a long way in an optimizer.  This module infers, for
every sub-expression, an upper bound on the region *names* its result
can draw from on any instance satisfying the schema graphs:

* ``R_i`` can only produce ``R_i`` regions;
* the set operations combine name bounds set-theoretically (a region
  carries exactly one name, so ``∩`` intersects bounds);
* ``e₁ ⊃ e₂`` keeps only names that can reach a right-side name through
  one or more RIG edges (nesting chains are RIG walks); ``⊂`` uses the
  reverse reachability; the direct operators use single edges;
* with a ROG, ``<``/``>`` keep only names that can reach (be reached
  from) a right-side name through ROG walks — possible precedence is
  exactly ROG reachability;
* ``BI`` needs both witnesses reachable below the source name and, with
  a ROG, a possible precedence between them.

An empty bound proves the sub-expression empty on every conforming
instance; :func:`prune_with_rig` rewrites such sub-expressions to
``empty`` and re-simplifies.  Soundness (never changing results on
instances satisfying the graphs) is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algebra import ast as A
from repro.optimize.rewrite import simplify
from repro.rig.graph import NameGraph, RegionInclusionGraph
from repro.rig.rog import RegionOrderGraph

__all__ = ["NameBounds", "infer_name_bounds", "prune_with_rig"]


@dataclass(frozen=True)
class NameBounds:
    """An upper bound on the names an expression's result can use;
    ``None`` when the result can hold regions no name bound covers (word
    match points), so it proves nothing."""

    names: frozenset[str] | None

    @property
    def is_empty(self) -> bool:
        return self.names is not None and not self.names


class _Reachability:
    """Transitive one-or-more-edge reachability over a schema graph: a
    name on a cycle reaches itself."""

    def __init__(self, graph: NameGraph):
        self._down: dict[str, frozenset[str]] = {
            node: graph.descendants(node) for node in graph.names
        }
        self._graph = graph

    def can_reach(self, source: str, target: str) -> bool:
        return target in self._down.get(source, frozenset())

    def has_edge(self, source: str, target: str) -> bool:
        return self._graph.has_edge(source, target)


def _semi_join(
    left: frozenset[str] | None,
    right: frozenset[str] | None,
    related: Callable[[str, str], bool],
) -> frozenset[str] | None:
    """The bound of a semi-join: the names of ``left`` that ``related``
    ties to some name of ``right``.  An unknown side proves nothing
    about the other, except that an empty ``right`` empties the join."""
    if right is not None and not right:
        return frozenset()
    if left is None or right is None:
        return left
    return frozenset(a for a in left if any(related(a, b) for b in right))


def infer_name_bounds(
    expr: A.Expr,
    rig: RegionInclusionGraph,
    rog: RegionOrderGraph | None = None,
) -> NameBounds:
    """The name bound of ``expr`` on instances satisfying the graphs.

    A name absent from the RIG has an empty region set on every
    conforming instance (Definition 2.4 as implemented by
    :meth:`RegionInclusionGraph.satisfied_by`), so it survives as a
    plain leaf bound but can never witness a structural relationship.
    Word match points carry no region name: their bound is unknown
    (``None``), and so is that of whatever keeps them.
    """
    inclusion = _Reachability(rig)
    order = _Reachability(rog) if rog is not None else None

    def visit(e: A.Expr) -> frozenset[str] | None:
        if isinstance(e, A.NameRef):
            return frozenset({e.name})
        if isinstance(e, A.Empty):
            return frozenset()
        if isinstance(e, A.MatchPoints):
            return None
        if isinstance(e, A.Select):
            return visit(e.child)
        if isinstance(e, A.Union):
            left, right = visit(e.left), visit(e.right)
            return None if left is None or right is None else left | right
        if isinstance(e, A.Intersection):
            left, right = visit(e.left), visit(e.right)
            if left is None or right is None:
                return right if left is None else left
            return left & right
        if isinstance(e, A.Difference):
            return visit(e.left)
        if isinstance(e, A.Including):
            return _semi_join(visit(e.left), visit(e.right), inclusion.can_reach)
        if isinstance(e, A.IncludedIn):
            return _semi_join(
                visit(e.left), visit(e.right), lambda a, b: inclusion.can_reach(b, a)
            )
        if isinstance(e, A.DirectlyIncluding):
            return _semi_join(visit(e.left), visit(e.right), inclusion.has_edge)
        if isinstance(e, A.DirectlyIncluded):
            return _semi_join(
                visit(e.left), visit(e.right), lambda a, b: inclusion.has_edge(b, a)
            )
        if isinstance(e, (A.Preceding, A.Following)):
            if order is None:  # any name may precede any other
                related = lambda a, b: True  # noqa: E731
            elif isinstance(e, A.Preceding):
                related = order.can_reach
            else:
                related = lambda a, b: order.can_reach(b, a)  # noqa: E731
            return _semi_join(visit(e.left), visit(e.right), related)
        if isinstance(e, A.BothIncluded):
            source = visit(e.source)
            first, second = visit(e.first), visit(e.second)
            if (first is not None and not first) or (
                second is not None and not second
            ):
                return frozenset()
            if source is None:
                return None
            out = set()
            for a in source:
                below_first = below_second = None
                if first is not None:
                    below_first = [b for b in first if inclusion.can_reach(a, b)]
                    if not below_first:
                        continue
                if second is not None:
                    below_second = [c for c in second if inclusion.can_reach(a, c)]
                    if not below_second:
                        continue
                if (
                    order is not None
                    and below_first is not None
                    and below_second is not None
                    and not any(
                        order.can_reach(b, c)
                        for b in below_first
                        for c in below_second
                    )
                ):
                    continue
                out.add(a)
            return frozenset(out)
        raise TypeError(f"cannot analyze {type(e).__name__}")

    return NameBounds(visit(expr))


def prune_with_rig(
    expr: A.Expr,
    rig: RegionInclusionGraph,
    rog: RegionOrderGraph | None = None,
) -> A.Expr:
    """Replace provably-empty sub-expressions with ``empty``.

    A polynomial, RIG-relative fragment of the Theorem 3.6 emptiness
    test; the result is equivalent to the input on every instance
    satisfying the graphs.
    """

    def visit(e: A.Expr) -> A.Expr:
        if infer_name_bounds(e, rig, rog).is_empty:
            return A.Empty()
        out = e
        for i, child in enumerate(A.children(e)):
            new = visit(child)
            if new != child:
                out = A.replace_child(out, i, new)
        return out

    return simplify(visit(expr))
