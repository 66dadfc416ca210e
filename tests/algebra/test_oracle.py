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
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex

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
#: The same for what only a text-backed word index reaches, on
#: ``text_instance``: ``σ_p`` as the semi-join against the postings, and
#: the direct bodies over match points, which are not instance regions.
TEXT_BODIES = {
    "covering": (RegionSet, 'D @ "x"'),
    "directly_including": (Forest, 'D dcontaining "x"'),
    "directly_included": (Forest, '"x" dwithin D'),
}

WRONG = RegionSet.of((-7, -3))


@pytest.fixture
def text_instance(small_instance):
    """``small_instance``'s regions over a token stream: ``x`` occurs
    inside D[2,4] and D[26,28], ``y`` inside D[15,17]."""
    return Instance(
        {name: small_instance.region_set(name) for name in small_instance.names},
        TextWordIndex([("x", 3, 3), ("y", 16, 16), ("x", 27, 27)]),
    )


def assert_independent(owner, body, query, instance, monkeypatch):
    expr = parse(query)
    expected = Evaluator("naive").evaluate(expr, instance)
    assert expected and Evaluator().evaluate(expr, instance) == expected
    monkeypatch.setattr(owner, body, lambda self, *operands: WRONG)
    assert Evaluator("naive").evaluate(expr, instance) == expected
    assert Evaluator().evaluate(expr, instance) != expected


@pytest.mark.parametrize("body", sorted(BODIES))
def test_oracle_does_not_run_the_body_it_checks(body, small_instance, monkeypatch):
    owner, query = BODIES[body]
    assert_independent(owner, body, query, small_instance, monkeypatch)


@pytest.mark.parametrize("body", sorted(TEXT_BODIES))
def test_oracle_does_not_run_the_text_backed_bodies(body, text_instance, monkeypatch):
    owner, query = TEXT_BODIES[body]
    assert_independent(owner, body, query, text_instance, monkeypatch)
