"""Three-way property: oracle ≡ VM ≡ sharded execution.

Random expressions over random instances; the paper's definitions
verbatim (``Evaluator("naive")``) are the reference for the compiled
program and for scatter-gather at K ∈ {1, 2, 4}.  ``random_expression``
is shared with the shard equivalence suite so the VM sees the same
operator mix (including ``<``/``>``-heavy trees and the extended
direct-nesting operators) that already exercises the scatter-gather
machinery.  Instances stay ≤ 45 nodes, so the cubic oracle is cheap.
"""

import random

from repro.algebra.evaluator import Evaluator
from repro.shard import ShardExecutor
from repro.workloads.generators import random_instance
from tests.shard.test_equivalence import NAMES, PATTERNS, random_expression

SHARD_COUNTS = (1, 2, 4)


def assert_three_way(instance, expr, case):
    oracle = Evaluator("naive").evaluate(expr, instance)
    compiled = Evaluator("indexed").evaluate(expr, instance)
    assert list(compiled) == list(oracle), f"case={case} expr={expr}"
    for shards in SHARD_COUNTS:
        executor = ShardExecutor(instance, shards, pool="serial")
        try:
            sharded = executor.run(expr)
        finally:
            executor.close()
        assert list(sharded) == list(oracle), (
            f"case={case} shards={shards} expr={expr}"
        )


class TestThreeWayEquivalence:
    def test_mixed_expressions(self):
        rng = random.Random(190_1995)
        for case in range(30):
            instance = random_instance(
                rng, NAMES, max_nodes=35, patterns=PATTERNS
            )
            expr = random_expression(rng, order_bias=0.2)
            assert_three_way(instance, expr, case)

    def test_order_heavy_expressions(self):
        # < and > fold to scalar order bounds in the VM; stress them.
        rng = random.Random(271_828)
        for case in range(20):
            instance = random_instance(
                rng, NAMES, max_nodes=35, patterns=PATTERNS
            )
            expr = random_expression(rng, max_depth=5, order_bias=0.9)
            assert_three_way(instance, expr, case)

    def test_deep_narrow_instances(self):
        # Towers maximize nesting: the containment kernels' worst case.
        rng = random.Random(424_242)
        for case in range(15):
            instance = random_instance(
                rng,
                NAMES,
                max_nodes=40,
                max_depth=12,
                max_children=2,
                patterns=PATTERNS,
            )
            expr = random_expression(rng, order_bias=0.3)
            assert_three_way(instance, expr, case)
