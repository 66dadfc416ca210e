"""The oracle table: Definitions 2.3, 5.1 and 5.2 transcribed verbatim.

Every operator of the algebra as the paper writes it — set-builder
notation over :class:`Region` objects, quadratic or cubic per operator.
This module is what the indexed bodies on
:class:`~repro.core.regionset.RegionSet` are checked against, so it
calls none of them: it only builds sets, iterates them, and asks the
two primitive relations ``r ⊃ s`` and ``r < s`` of
:mod:`repro.core.region`.  The single caller in ``src/`` is
:func:`evaluate`, the plain tree walk behind ``Evaluator("naive")``.
"""

from __future__ import annotations

from typing import Callable

from repro.algebra import ast as A
from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.errors import EvaluationError

__all__ = [
    "union",
    "intersection",
    "difference",
    "including",
    "included_in",
    "preceding",
    "following",
    "select",
    "directly_including",
    "directly_included",
    "both_included",
    "evaluate",
]


# Definition 2.3, first group: R ∪ S, R ∩ S, R − S.

def union(r_set: RegionSet, s_set: RegionSet) -> RegionSet:
    return RegionSet(set(r_set) | set(s_set))


def intersection(r_set: RegionSet, s_set: RegionSet) -> RegionSet:
    return RegionSet(set(r_set) & set(s_set))


def difference(r_set: RegionSet, s_set: RegionSet) -> RegionSet:
    return RegionSet(set(r_set) - set(s_set))


# Definition 2.3, second group: R θ S = {r ∈ R : ∃ s ∈ S, r θ s}.

def _semi_join(
    r_set: RegionSet, s_set: RegionSet, theta: Callable[[Region, Region], bool]
) -> RegionSet:
    return RegionSet(r for r in r_set if any(theta(r, s) for s in s_set))


def including(r_set: RegionSet, s_set: RegionSet) -> RegionSet:
    return _semi_join(r_set, s_set, Region.includes)


def included_in(r_set: RegionSet, s_set: RegionSet) -> RegionSet:
    return _semi_join(r_set, s_set, Region.included_in)


def preceding(r_set: RegionSet, s_set: RegionSet) -> RegionSet:
    return _semi_join(r_set, s_set, Region.precedes)


def following(r_set: RegionSet, s_set: RegionSet) -> RegionSet:
    return _semi_join(r_set, s_set, Region.follows)


def select(r_set: RegionSet, predicate: Callable[[Region], bool]) -> RegionSet:
    """``σ_p(R) = {r ∈ R : W(r, p)}``."""
    return RegionSet(r for r in r_set if predicate(r))


# Definition 5.1: direct inclusion quantifies over *all* regions of the
# instance (``universe``) — no other region resides in between.

def directly_including(
    r_set: RegionSet, s_set: RegionSet, universe: RegionSet
) -> RegionSet:
    return RegionSet(
        r
        for r in r_set
        if any(
            r.includes(s)
            and not any(r.includes(t) and t.includes(s) for t in universe)
            for s in s_set
        )
    )


def directly_included(
    r_set: RegionSet, s_set: RegionSet, universe: RegionSet
) -> RegionSet:
    return RegionSet(
        r
        for r in r_set
        if any(
            s.includes(r)
            and not any(s.includes(t) and t.includes(r) for t in universe)
            for s in s_set
        )
    )


# Definition 5.2: R BI (S, T) = {r ∈ R : ∃ s ∈ S, t ∈ T, r ⊃ s, r ⊃ t, s < t}.

def both_included(r_set: RegionSet, s_set: RegionSet, t_set: RegionSet) -> RegionSet:
    return RegionSet(
        r
        for r in r_set
        if any(
            r.includes(s) and r.includes(t) and s.precedes(t)
            for s in s_set
            for t in t_set
        )
    )


_BINARY = {
    A.Union: union,
    A.Intersection: intersection,
    A.Difference: difference,
    A.Including: including,
    A.IncludedIn: included_in,
    A.Preceding: preceding,
    A.Following: following,
}
_DIRECT = {
    A.DirectlyIncluding: directly_including,
    A.DirectlyIncluded: directly_included,
}


def evaluate(
    expr: A.Expr,
    instance: Instance,
    memo: dict[A.Expr, RegionSet] | None = None,
    limits=None,
) -> RegionSet:
    """``e(I)`` by structural recursion over the definitions above.

    ``memo`` caches repeated sub-expressions (``None``: re-evaluate
    them); ``limits.check()`` is the cooperative deadline/cancel point,
    polled once per operator.
    """
    if memo is not None and expr in memo:
        return memo[expr]
    if limits is not None:
        limits.check()

    def walk(child: A.Expr) -> RegionSet:
        return evaluate(child, instance, memo, limits)

    kind = type(expr)
    if kind is A.NameRef:
        result = instance.region_set(expr.name)
    elif kind is A.Empty:
        result = RegionSet()
    elif kind is A.MatchPoints:
        result = instance.match_points(expr.pattern)
    elif kind is A.Select:
        pattern = expr.pattern
        result = select(walk(expr.child), lambda r: instance.matches(r, pattern))
    elif kind is A.BothIncluded:
        result = both_included(walk(expr.source), walk(expr.first), walk(expr.second))
    elif kind in _BINARY:
        result = _BINARY[kind](walk(expr.left), walk(expr.right))
    elif kind in _DIRECT:
        result = _DIRECT[kind](
            walk(expr.left), walk(expr.right), instance.all_regions()
        )
    else:
        raise EvaluationError(f"cannot evaluate node {kind.__name__}")
    if memo is not None:
        memo[expr] = result
    return result
