"""E7 — Figure 3 / Theorem 5.3: the both-included counter-example.

Reproduced shape: on the ``4k+1``-sibling family the windowed
(bisected-slice minimum) ``BI`` implementation scales linearly while the
definitional triple loop is cubic; the reduce step of the proof (merging
the two isomorphic middle ``A`` regions) is cheap and flips the result.
"""

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.properties.counterexamples import refute_both_included
from repro.properties.reduction import isomorphic_sibling_pairs, reduce_regions
from repro.workloads.generators import figure_3_instance

INDEXED = Evaluator("indexed")
NAIVE = Evaluator("naive")
TARGET = parse("bi(C, B, A)")
KS = (8, 32, 128)


@pytest.mark.parametrize("k", KS)
@pytest.mark.benchmark(group="e7-bi")
def bench_e7_bi_indexed(benchmark, k):
    family = figure_3_instance(k)
    result = benchmark(INDEXED.evaluate, TARGET, family)
    assert len(result) == 1


@pytest.mark.parametrize("k", KS[:2])
@pytest.mark.benchmark(group="e7-bi")
def bench_e7_bi_naive(benchmark, k):
    family = figure_3_instance(k)
    result = benchmark(NAIVE.evaluate, TARGET, family)
    assert len(result) == 1


@pytest.mark.parametrize("k", (8, 32))
@pytest.mark.benchmark(group="e7-reduce")
def bench_e7_proof_reduction_step(benchmark, k):
    """The reduce(I, r', r'') step at the heart of the Theorem 5.3 proof."""
    family = figure_3_instance(k)
    forest = family.forest()
    middle = sorted(family.region_set("C"), key=lambda r: r.left)[2 * k]
    first_a, _, second_a = forest.children_of(middle)

    def reduce_once():
        return reduce_regions(family, first_a, second_a)

    reduced, _ = benchmark(reduce_once)
    assert not INDEXED.evaluate(TARGET, reduced)


@pytest.mark.benchmark(group="e7-refuter")
def bench_e7_refuter_on_strawman(benchmark):
    """Refuting the Section 5.2 strawman ``C ⊃ (B < A)``."""
    candidate = parse("C containing (B before A)")
    witness = benchmark(refute_both_included, candidate)
    assert witness is not None
