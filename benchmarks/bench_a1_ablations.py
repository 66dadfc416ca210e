"""A1 — ablations of the engine's design choices (DESIGN.md §5).

Each pair isolates one implementation decision the library makes:

* **memoization** — common sub-expressions are evaluated once per query;
* **extreme tables** — the indexed semi-joins vs the definitional scan
  (the core of the "efficient evaluation engine" claim, complementing
  E2 with a common-subexpression-heavy query);
* **windowed BI** — the bisected-window both-included vs the triple loop;
* **forest reuse** — direct operators on a cached instance forest vs
  rebuilding it per query.
"""

import random

import pytest

from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.core.forest import Forest
from repro.workloads.generators import figure_3_instance, random_instance

# A query whose sub-expressions repeat: memoization halves the work.
SHARED = parse(
    "((R0 containing R1) union (R0 containing R1) union "
    "((R0 containing R1) isect R2)) except (R0 containing R1)"
)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(101)
    return random_instance(
        rng,
        names=("R0", "R1", "R2"),
        max_nodes=800,
        min_nodes=800,
        max_depth=12,
        max_children=6,
    )


@pytest.mark.benchmark(group="a1-memoization")
def bench_a1_memoized(benchmark, corpus):
    evaluator = Evaluator("indexed", memoize=True)
    result = benchmark(evaluator.evaluate, SHARED, corpus)
    assert result == Evaluator("indexed", memoize=False).evaluate(SHARED, corpus)


@pytest.mark.benchmark(group="a1-memoization")
def bench_a1_unmemoized(benchmark, corpus):
    evaluator = Evaluator("indexed", memoize=False)
    benchmark(evaluator.evaluate, SHARED, corpus)


@pytest.mark.benchmark(group="a1-join-tables")
def bench_a1_indexed_join(benchmark, corpus):
    evaluator = Evaluator("indexed")
    benchmark(evaluator.evaluate, parse("R0 containing R1"), corpus)


@pytest.mark.benchmark(group="a1-join-tables")
def bench_a1_scan_join(benchmark, corpus):
    evaluator = Evaluator("naive")
    benchmark(evaluator.evaluate, parse("R0 containing R1"), corpus)


@pytest.mark.benchmark(group="a1-bi-window")
def bench_a1_windowed_bi(benchmark):
    family = figure_3_instance(48)
    evaluator = Evaluator("indexed")
    result = benchmark(evaluator.evaluate, parse("bi(C, B, A)"), family)
    assert len(result) == 1


@pytest.mark.benchmark(group="a1-bi-window")
def bench_a1_loop_bi(benchmark):
    family = figure_3_instance(48)
    evaluator = Evaluator("naive")
    result = benchmark(evaluator.evaluate, parse("bi(C, B, A)"), family)
    assert len(result) == 1


@pytest.mark.benchmark(group="a1-forest-cache")
def bench_a1_cached_forest(benchmark, corpus):
    evaluator = Evaluator("indexed")
    corpus.forest()  # warm the cache
    benchmark(evaluator.evaluate, parse("R0 dcontaining R1"), corpus)


@pytest.mark.benchmark(group="a1-forest-cache")
def bench_a1_rebuilt_forest(benchmark, corpus):
    evaluator = Evaluator("indexed")

    def evaluate_with_fresh_forest():
        corpus._forest = None  # drop the cache (ablation only)
        Forest.from_regions(corpus.all_regions())
        return evaluator.evaluate(parse("R0 dcontaining R1"), corpus)

    benchmark(evaluate_with_fresh_forest)
