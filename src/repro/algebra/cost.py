"""Cost estimation for region-algebra expressions.

Section 3 of the paper assumes "a price function p estimating the
expected cost of an algebra expression" where "every operation adds some
cost".  Two models are provided:

* :func:`operation_count` — the purely syntactic ``|e|`` used by the
  optimization results (fewer operations ⇒ cheaper, the premise of the
  Section 2.2 rewriting example);
* :class:`CostModel` — a cardinality-aware estimator in the style of a
  relational optimizer: it propagates estimated set sizes bottom-up from
  per-name statistics and charges each operator for the (sorted-merge)
  work on its estimated inputs.  Monotone in operation count, so the
  optimizer's search bound stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.algebra import ast as A
from repro.core.instance import Instance

__all__ = ["operation_count", "CostEstimate", "CostModel"]


def operation_count(expr: A.Expr) -> int:
    """The paper's price in its simplest form: the number of operations."""
    return A.size(expr)


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """Estimated evaluation cost and output cardinality of an expression."""

    cost: float
    cardinality: float


@dataclass
class CostModel:
    """A simple statistics-driven cost model.

    ``name_sizes`` gives the cardinality of each region-name set; when
    built :meth:`from_instance` they are exact.  ``selectivity`` bounds
    every filtering operator's output as a fraction of its left input —
    a deliberately crude but monotone estimate (the paper's optimization
    argument only needs *some* price function where adding operations
    adds cost).
    """

    name_sizes: dict[str, float] = field(default_factory=dict)
    default_name_size: float = 1000.0
    selectivity: float = 0.5
    pattern_selectivity: float = 0.1
    operation_overhead: float = 1.0

    @classmethod
    def from_instance(cls, instance: Instance, **kwargs: float) -> "CostModel":
        return cls.from_sizes(
            {name: len(instance.region_set(name)) for name in instance.names},
            **kwargs,
        )

    @classmethod
    def from_sizes(cls, sizes: Mapping[str, int], **kwargs: float) -> "CostModel":
        """A model with exact ``sizes``, regions per name."""
        return cls(
            name_sizes={name: float(size) for name, size in sizes.items()}, **kwargs
        )

    def estimate(self, expr: A.Expr) -> CostEstimate:
        """Estimated total cost and output cardinality for ``expr``."""
        if isinstance(expr, A.NameRef):
            return CostEstimate(0.0, self.name_sizes.get(expr.name, self.default_name_size))
        if isinstance(expr, A.Empty):
            return CostEstimate(0.0, 0.0)
        if isinstance(expr, A.MatchPoints):
            # A word query is one inverted-index probe; without corpus
            # statistics per pattern, guess like an unknown name scaled
            # by the pattern selectivity.
            return CostEstimate(
                0.0, self.default_name_size * self.pattern_selectivity
            )
        if isinstance(expr, A.Select):
            child = self.estimate(expr.child)
            return CostEstimate(
                child.cost + self.operation_overhead + child.cardinality,
                child.cardinality * self.pattern_selectivity,
            )
        if isinstance(expr, A.BothIncluded):
            source = self.estimate(expr.source)
            first = self.estimate(expr.first)
            second = self.estimate(expr.second)
            work = source.cardinality + first.cardinality + second.cardinality
            cost = (
                source.cost + first.cost + second.cost
                + self.operation_overhead + work
            )
            return CostEstimate(cost, source.cardinality * self.selectivity)
        if isinstance(expr, A.BinaryOp):
            left = self.estimate(expr.left)
            right = self.estimate(expr.right)
            work = left.cardinality + right.cardinality
            cost = left.cost + right.cost + self.operation_overhead + work
            if isinstance(expr, A.Union):
                out = left.cardinality + right.cardinality
            elif isinstance(expr, A.Intersection):
                out = min(left.cardinality, right.cardinality) * self.selectivity
            elif isinstance(expr, A.Difference):
                out = left.cardinality
            else:  # the structural semi-joins keep a fraction of the left side
                out = left.cardinality * self.selectivity
            return CostEstimate(cost, out)
        raise TypeError(f"cannot estimate {type(expr).__name__}")

    def price(self, expr: A.Expr) -> float:
        """The scalar price of ``expr`` under this model."""
        return self.estimate(expr).cost
