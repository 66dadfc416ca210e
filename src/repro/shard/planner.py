"""Shard-aware query planning: which operators cross a cut, and when.

With an instance cut at top-level forest boundaries
(:mod:`repro.shard.partition`), evaluating an expression independently
per piece and unioning the results is correct for every operator
except two kinds of node:

=====================  ==============================================
``∪ ∩ −``              shard-local: identity-based over region sets
                       that partition disjointly across pieces
``⊃ ⊂``                shard-local: ``r ⊃ s`` forces ``r`` and ``s``
                       into the same top-level tree
``⊃_d ⊂_d``            shard-local: direct inclusion is the parent
                       relation inside one tree (a routed match point
                       has its enclosing region in the tree it lies
                       in; one between two trees has none anywhere)
``σ_p``                shard-local: ``W(r, p)`` per region over the
                       shared word index
``bi``                 shard-local: both witnesses nest strictly
                       inside the source region
``< >``                **boundary-crossing**: a region may precede or
                       follow regions in *other* pieces
``match points``       **boundary-crossing**: word occurrences are
                       not instance regions, so one may span a cut
=====================  ==============================================

The ordering semi-joins need only a single scalar from the global
right-operand result (``R < S`` keeps ``r`` iff ``right(r)`` is below
the global maximum left endpoint of ``S``; ``R > S`` is symmetric with
the global minimum right endpoint — exactly how the indexed
:meth:`~repro.core.regionset.RegionSet.preceding`/``following``
implementations already work).  :func:`classify` finds every such node
and schedules its exchange into **rounds**: a node can be resolved only
after every ordering node inside its *right* operand has been, because
the scalar is extracted from the right operand's per-shard results.
Round ``r`` nodes depend only on rounds ``< r``, so the executor runs
one scatter/gather of scalars per round; :func:`resolve_bounds` is that
loop, shared by the backend frontier (one scatter per round) and a live
corpus's per-piece reader (:mod:`repro.engine.pieces`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.algebra import ast as A

__all__ = ["BoundaryNode", "ShardPlan", "classify", "fold_extremes", "resolve_bounds"]

#: ``(max left, min right)`` of a region set; ``(None, None)`` when empty.
Extremes = tuple["int | None", "int | None"]


@dataclass(frozen=True)
class BoundaryNode:
    """One ``<`` or ``>`` node and the exchange round that resolves it."""

    node: A.BinaryOp  #: a Preceding or Following node of the original AST
    round: int  #: 1-based; resolved after all rounds below it

    @property
    def kind(self) -> str:
        return "preceding" if isinstance(self.node, A.Preceding) else "following"


@dataclass(frozen=True)
class ShardPlan:
    """The classification of one expression for sharded execution."""

    expr: A.Expr
    boundary: tuple[BoundaryNode, ...]  #: ordering nodes needing exchange
    patterns: tuple[str, ...]  #: match-point patterns needing routing

    @property
    def local(self) -> bool:
        """True when a plain scatter/merge is already correct."""
        return not self.boundary and not self.patterns

    @property
    def rounds(self) -> int:
        return max((b.round for b in self.boundary), default=0)

    def nodes_in_round(self, round: int) -> list[BoundaryNode]:
        return [b for b in self.boundary if b.round == round]


def classify(expr: A.Expr) -> ShardPlan:
    """Build the :class:`ShardPlan` for an expression.

    Equal sub-expressions (the evaluator memoizes by node equality) get
    one boundary entry at the latest round any occurrence needs; its
    exchanged scalar is context-independent, so one resolution serves
    every occurrence.
    """
    rounds: dict[A.Expr, int] = {}

    def visit(node: A.Expr) -> int:
        """Max round over boundary nodes in the subtree (0 when none)."""
        if isinstance(node, (A.Preceding, A.Following)):
            left_max = visit(node.left)
            own = visit(node.right) + 1
            if rounds.get(node, 0) < own:
                rounds[node] = own
            return max(left_max, own)
        return max((visit(child) for child in A.children(node)), default=0)

    visit(expr)
    patterns = sorted(
        node.pattern for node in A.walk(expr) if isinstance(node, A.MatchPoints)
    )
    boundary = tuple(
        sorted(
            (BoundaryNode(node, round) for node, round in rounds.items()),
            key=lambda b: b.round,
        )
    )
    return ShardPlan(expr, boundary, tuple(dict.fromkeys(patterns)))


def fold_extremes(parts: Iterable[Extremes]) -> Extremes:
    """The extremes of a union from its parts' extremes."""
    max_left = min_right = None
    for left, right in parts:
        if left is not None and (max_left is None or left > max_left):
            max_left = left
        if right is not None and (min_right is None or right < min_right):
            min_right = right
    return max_left, min_right


def resolve_bounds(
    plan: ShardPlan,
    extremes: Callable[
        [list[A.Expr], Mapping[A.Expr, "int | None"]], list[Extremes]
    ],
) -> dict[A.Expr, "int | None"]:
    """The global scalar of every ``<``/``>`` node of ``plan``.

    Round by round, ``extremes(rights, bounds)`` answers the round's
    distinct right operands, each under the scalars ``bounds`` resolved
    in earlier rounds, with its global extremes.  A ``<`` node takes the
    max left of its right operand, a ``>`` node the min right; ``None``
    means the right operand was empty everywhere.
    """
    bounds: dict[A.Expr, int | None] = {}
    for round_no in range(1, plan.rounds + 1):
        nodes = plan.nodes_in_round(round_no)
        rights = list(dict.fromkeys(b.node.right for b in nodes))
        found = dict(zip(rights, extremes(rights, bounds)))
        for b in nodes:
            max_left, min_right = found[b.node.right]
            bounds[b.node] = (
                max_left if isinstance(b.node, A.Preceding) else min_right
            )
    return bounds
