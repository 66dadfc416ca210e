"""The oracle table is independent of the indexed table it checks.

``Evaluator("naive")`` feeds every equivalence suite and ``bench/``'s
``failed_share``; if it reached ``∪ ∩ − σ_p`` (or anything else) through
the ``RegionSet`` methods the VM executes, those comparisons would check
the kernels against themselves.  Each indexed body in turn is replaced
by one returning a wrong set: the oracle's answer must not move, and the
oracle-vs-VM comparison must fail.
"""

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.core.forest import Forest
from repro.core.regionset import RegionSet

#: indexed body -> (its owner, a query on ``small_instance`` whose
#: non-empty answer is computed by it).
BODIES = {
    "union": (RegionSet, "B union D"),
    "intersection": (RegionSet, "(B union D) isect D"),
    "difference": (RegionSet, "(B union D) except B"),
    "including": (RegionSet, "A containing B"),
    "included_in": (RegionSet, "D within B"),
    "preceding": (RegionSet, "B before C"),
    "following": (RegionSet, "D after C"),
    "select": (RegionSet, 'D @ "x"'),
    "both_included": (RegionSet, "bi(A, B, D)"),
    "directly_including": (Forest, "A dcontaining B"),
    "directly_included": (Forest, "B dwithin C"),
}

WRONG = RegionSet.of((-7, -3))


@pytest.mark.parametrize("body", sorted(BODIES))
def test_oracle_does_not_run_the_body_it_checks(body, small_instance, monkeypatch):
    owner, query = BODIES[body]
    expr = parse(query)
    expected = Evaluator("naive").evaluate(expr, small_instance)
    assert expected and Evaluator().evaluate(expr, small_instance) == expected
    monkeypatch.setattr(owner, body, lambda self, *operands: WRONG)
    assert Evaluator("naive").evaluate(expr, small_instance) == expected
    assert Evaluator().evaluate(expr, small_instance) != expected
