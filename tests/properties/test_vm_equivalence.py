"""Three-way property: oracle ≡ VM ≡ sharded execution.

Random expressions over random instances; the paper's definitions
verbatim (``Evaluator("naive")``) are the reference for the compiled
program and for scatter-gather at K ∈ {1, 2, 4}.  ``random_expression``
is shared with the shard equivalence suite so the VM sees the same
operator mix (including ``<``/``>``-heavy trees and the extended
direct-nesting operators) that already exercises the scatter-gather
machinery.  Instances stay ≤ 45 nodes, so the cubic oracle is cheap.

``random_instance`` only ever carries a label index, so the second half
runs the same three-way check over ``random_text_instance``: the paths
only a text-backed word index reaches — ``σ_p`` as a semi-join against
the postings, match points as operands, and their routing across cuts —
against Definition 2.3 rather than against each other.
"""

import random

import pytest

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.engine.tagged import parse_tagged_text
from repro.shard import ShardExecutor
from repro.workloads.generators import (
    TEXT_NAMES,
    random_instance,
    random_text_instance,
)
from repro.workloads.corpora import generate_play
from tests.shard.test_equivalence import NAMES, PATTERNS, random_expression
from tests.shard.test_equivalence import _BINARY as BINARY_NODES

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


#: Literal, prefix and glob patterns over ``TEXT_VOCABULARY`` (and one
#: that occurs nowhere).
TEXT_PATTERNS = ("love", "x", "lo*", "n*", "su?", "l*e*", "moon")

def random_text_expression(rng, depth=0, max_depth=3):
    """Like ``random_expression``, with match-point leaves and ``@``
    under every pattern form."""
    if depth >= max_depth or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.5:
            return A.NameRef(rng.choice(TEXT_NAMES))
        if roll < 0.8:
            return A.MatchPoints(rng.choice(TEXT_PATTERNS))
        return A.Select(rng.choice(TEXT_PATTERNS), A.NameRef(rng.choice(TEXT_NAMES)))
    children = [
        random_text_expression(rng, depth + 1, max_depth) for _ in range(3)
    ]
    roll = rng.random()
    if roll < 0.1:
        return A.BothIncluded(*children)
    if roll < 0.25:
        return A.Select(rng.choice(TEXT_PATTERNS), children[0])
    return rng.choice(BINARY_NODES)(*children[:2])


#: The text-only shapes, each at least once whatever the dice say.
TEXT_QUERIES = (
    '"love" dwithin line',
    'line dcontaining "love"',
    '"lo*" dwithin speech',
    'speech dcontaining ("n*" dwithin speech)',
    'bi(speech, "lo*", "n*")',
    'bi(line, "l*e*", word)',
    '(line @ "su?") except (line @ "sun")',
    '(speech @ "lo*") containing (word @ "love")',
    'speech before ("x" after line)',
)


class TestTextBackedThreeWay:
    def test_random_expressions(self):
        rng = random.Random(18_1995)
        for case in range(40):
            instance = random_text_instance(rng)
            assert_three_way(instance, random_text_expression(rng), case)

    @pytest.mark.parametrize("query", TEXT_QUERIES)
    def test_text_only_shapes(self, query):
        rng = random.Random(query)
        expr = parse(query)
        answered = 0
        for case in range(12):
            instance = random_text_instance(rng)
            assert_three_way(instance, expr, case)
            answered += bool(Evaluator("naive").evaluate(expr, instance))
        assert answered, "vacuous: no instance gave a non-empty answer"

    def test_occurrence_that_is_the_region(self):
        # W(r, p) is non-strict: a one-token line whose only occurrence
        # *is* the line satisfies the pattern, yet does not contain (⊃
        # is strict) its own match point.
        instance = Instance(
            {"speech": RegionSet.of((0, 12)), "line": RegionSet.of((1, 4), (6, 10))},
            TextWordIndex([("love", 1, 4), ("night", 6, 10)]),
        )
        for query, expected in (
            ('line @ "love"', [(1, 4)]),
            ('line containing "love"', []),
            ('"love" within line', []),
            ('"love" dwithin speech', [(1, 4)]),
            ('speech dcontaining "love"', [(0, 12)]),
        ):
            expr = parse(query)
            assert_three_way(instance, expr, query)
            got = Evaluator().evaluate(expr, instance)
            assert [(r.left, r.right) for r in got] == expected, query

    def test_direct_operators_keep_match_point_operands(self):
        # Regression: the forest used to skip every operand region that
        # is not an instance region, so both queries answered ∅ through
        # the VM and every shard count while Definition 5.1 — "no region
        # of the instance in between" — does not ask the endpoints to be
        # instance regions.  A match point's parent is its innermost
        # strictly-enclosing region.
        rng = random.Random(4)
        text = "\n".join(generate_play(rng, acts=1) for _ in range(3))
        instance = parse_tagged_text(text).instance
        for query, cardinality in (
            ('"love" dwithin line', 10),
            ('line dcontaining "love"', 7),
        ):
            expr = parse(query)
            assert len(Evaluator("naive").evaluate(expr, instance)) == cardinality
            assert_three_way(instance, expr, query)

    def test_direct_operators_stay_shard_local_for_routed_points(self):
        # The planner's "⊃_d ⊂_d shard-local" row, for routed match
        # points: "x"[14,14] sits between the two top-level trees, so it
        # has no parent in whichever segment it is routed to, and the
        # points inside a tree find their parent in that tree's segment.
        instance = Instance(
            {"speech": RegionSet.of((0, 12), (16, 24)),
             "line": RegionSet.of((1, 4), (6, 10), (17, 22))},
            TextWordIndex(
                [("x", 1, 1), ("x", 3, 3), ("x", 8, 8), ("x", 14, 14), ("x", 20, 20)]
            ),
        )
        for query, expected in (
            ('"x" dwithin line', [(1, 1), (3, 3), (8, 8), (20, 20)]),
            ('"x" dwithin speech', []),
            ('line dcontaining "x"', [(1, 4), (6, 10), (17, 22)]),
            ('speech dcontaining "x"', []),
        ):
            expr = parse(query)
            assert_three_way(instance, expr, query)
            executor = ShardExecutor(instance, 2, pool="serial")
            try:
                got = executor.run(expr)
                assert executor.last_stats.fallback is None, query
            finally:
                executor.close()
            assert [(r.left, r.right) for r in got] == expected, query
