"""The query optimizer: cheapest equivalent expression.

Section 3's recipe: with a price function where every operation adds
cost, optimize ``e`` by searching the (finite) space of cheaper
expressions for an equivalent one.  The search is expensive in general —
emptiness/equivalence testing is Co-NP-hard (Theorem 3.5) — so the
optimizer is layered:

1. **Polynomial pass** — instance-independent identities plus the
   RIG-aware inclusion-chain simplification (the tractable class of
   Section 5.1 / [CM94]).
2. **Exhaustive pass** (optional, bounded) — enumerate candidate
   expressions cheaper than the current best over the same names and
   patterns, and keep the cheapest one that passes the layered
   equivalence test.  Exponential in the bound; this is the knob the
   E4 benchmark turns to exhibit the hardness wall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra import ast as A
from repro.algebra.cost import CostModel, operation_count
from repro.algebra.enumerate import enumerate_expressions
from repro.obs.trace import maybe_span
from repro.optimize.equivalence import check_equivalence
from repro.optimize.rewrite import simplify_chains, simplify_deep
from repro.rig.graph import RegionInclusionGraph
from repro.rig.rog import RegionOrderGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer

__all__ = ["OptimizationResult", "optimize"]


@dataclass(frozen=True)
class OptimizationResult:
    """The optimizer's output, with provenance for each improvement."""

    expression: A.Expr
    original_cost: float
    optimized_cost: float
    steps: tuple[str, ...] = field(default_factory=tuple)

    @property
    def improved(self) -> bool:
        return self.optimized_cost < self.original_cost


def optimize(
    expr: A.Expr,
    rig: RegionInclusionGraph | None = None,
    cost_model: CostModel | None = None,
    exhaustive: bool = False,
    max_candidate_ops: int | None = None,
    equivalence_nodes: int = 4,
    seed: int = 0,
    rog: "RegionOrderGraph | None" = None,
    tracer: "Tracer | None" = None,
) -> OptimizationResult:
    """Optimize ``expr``; see the module docstring for the passes.

    With ``exhaustive`` the bounded search runs over expressions of at
    most ``max_candidate_ops`` operations (default: one less than the
    current best) and equivalence is certified by the layered test of
    :mod:`repro.optimize.equivalence` w.r.t. ``rig``.

    A ``tracer`` gets one span per rewrite pass (``rule.identities``,
    ``rule.chains``, ``rule.prune``, ``rule.exhaustive``) under an
    ``optimize`` root; it defaults to absent and costs nothing then.
    """
    price = cost_model.price if cost_model is not None else operation_count
    original_cost = price(expr)
    steps: list[str] = []

    with maybe_span(tracer, "optimize", original_cost=original_cost) as root:
        with maybe_span(tracer, "rule.identities"):
            best = simplify_deep(expr)
        if best != expr:
            steps.append("algebraic identities")
        if rig is not None:
            with maybe_span(tracer, "rule.chains"):
                chained = simplify_chains(best, rig)
            if chained != best:
                steps.append("RIG chain simplification")
                best = chained
            from repro.optimize.static import prune_with_rig

            with maybe_span(tracer, "rule.prune"):
                pruned = prune_with_rig(best, rig, rog)
            if pruned != best:
                steps.append("RIG static pruning")
                best = pruned

        if exhaustive:
            names = sorted(A.region_names(best)) or ["R"]
            patterns = sorted(A.pattern_names(best))
            budget = (
                max_candidate_ops
                if max_candidate_ops is not None
                else max(A.size(best) - 1, 0)
            )
            with maybe_span(tracer, "rule.exhaustive", budget=budget):
                for candidate in enumerate_expressions(names, budget, patterns):
                    if price(candidate) >= price(best):
                        continue
                    verdict = check_equivalence(
                        best,
                        candidate,
                        rig=rig,
                        max_nodes=equivalence_nodes,
                        seed=seed,
                    )
                    if verdict.equivalent:
                        best = candidate
                        steps.append("exhaustive search")

        optimized_cost = price(best)
        if root is not None:
            root.set("optimized_cost", optimized_cost)
            root.set("rewrites", len(steps))

    return OptimizationResult(
        expression=best,
        original_cost=original_cost,
        optimized_cost=optimized_cost,
        steps=tuple(steps),
    )
