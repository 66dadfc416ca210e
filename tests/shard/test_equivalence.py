"""Property-based equivalence: sharded evaluation == single-shard.

Random hierarchical instances (from :mod:`repro.workloads.generators`)
and random expressions — including boundary-heavy ``<``/``>`` nesting —
must evaluate to exactly the same region set through the sharded
scatter-gather executor as through the plain :class:`Evaluator`, for
every shard count.
"""

import random

import pytest

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.engine.corpus import Corpus
from repro.shard import ShardExecutor
from repro.workloads.corpora import generate_play
from repro.workloads.generators import random_instance

NAMES = ("R0", "R1", "R2")
PATTERNS = ("x", "y")
SHARD_COUNTS = (1, 2, 4, 7)

_BINARY = (
    A.Union,
    A.Intersection,
    A.Difference,
    A.Including,
    A.IncludedIn,
    A.Preceding,
    A.Following,
    A.DirectlyIncluding,
    A.DirectlyIncluded,
)


def random_expression(rng, depth=0, max_depth=4, order_bias=0.0):
    """A random core+extended expression over NAMES and PATTERNS.

    ``order_bias`` raises the share of ``<``/``>`` nodes to stress the
    exchange machinery.
    """
    if depth >= max_depth or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.85:
            return A.NameRef(rng.choice(NAMES))
        if roll < 0.95:
            return A.Select(
                rng.choice(PATTERNS),
                A.NameRef(rng.choice(NAMES)),
            )
        return A.Empty()
    if rng.random() < order_bias:
        op = rng.choice((A.Preceding, A.Following))
        return op(
            random_expression(rng, depth + 1, max_depth, order_bias),
            random_expression(rng, depth + 1, max_depth, order_bias),
        )
    roll = rng.random()
    if roll < 0.08:
        return A.BothIncluded(
            random_expression(rng, depth + 1, max_depth, order_bias),
            random_expression(rng, depth + 1, max_depth, order_bias),
            random_expression(rng, depth + 1, max_depth, order_bias),
        )
    if roll < 0.16:
        return A.Select(
            rng.choice(PATTERNS),
            random_expression(rng, depth + 1, max_depth, order_bias),
        )
    op = rng.choice(_BINARY)
    return op(
        random_expression(rng, depth + 1, max_depth, order_bias),
        random_expression(rng, depth + 1, max_depth, order_bias),
    )


def assert_equivalent(instance, expr, shards):
    expected = Evaluator("indexed").evaluate(expr, instance)
    executor = ShardExecutor(instance, shards)
    try:
        got = executor.run(expr)
    finally:
        executor.close()
    assert list(got) == list(expected), f"shards={shards} expr={expr}"


class TestRandomEquivalence:
    def test_mixed_expressions(self):
        rng = random.Random(314159)
        for case in range(40):
            instance = random_instance(
                rng, NAMES, max_nodes=35, patterns=PATTERNS
            )
            expr = random_expression(rng, order_bias=0.2)
            for shards in SHARD_COUNTS:
                assert_equivalent(instance, expr, shards)

    def test_boundary_heavy_expressions(self):
        # Almost every internal node is < or >: maximal exchange load.
        rng = random.Random(271828)
        for case in range(40):
            instance = random_instance(
                rng, NAMES, max_nodes=35, patterns=PATTERNS
            )
            expr = random_expression(rng, max_depth=5, order_bias=0.9)
            for shards in SHARD_COUNTS:
                assert_equivalent(instance, expr, shards)

    def test_thread_pool_equivalence(self):
        # pool="thread", the one spelling left, at a cut with 4 groups.
        rng = random.Random(777)
        for case in range(10):
            instance = random_instance(
                rng, NAMES, max_nodes=40, patterns=PATTERNS
            )
            expr = random_expression(rng, order_bias=0.5)
            assert_equivalent(instance, expr, 4)

    def test_wide_flat_forests(self):
        # Many top-level trees: every shard count actually cuts.
        rng = random.Random(99)
        for case in range(15):
            instance = random_instance(
                rng,
                NAMES,
                max_nodes=45,
                max_depth=2,
                max_children=2,
                patterns=PATTERNS,
            )
            expr = random_expression(rng, order_bias=0.6)
            for shards in SHARD_COUNTS:
                assert_equivalent(instance, expr, shards)


@pytest.fixture(scope="module")
def play_corpus():
    rng = random.Random(1234)
    corpus = Corpus()
    for i in range(6):
        corpus.add(
            generate_play(
                rng,
                acts=2,
                scenes_per_act=2,
                speeches_per_scene=3,
                lines_per_speech=2,
            ),
            name=f"play{i}",
        )
    return corpus


MATCH_POINT_QUERIES = (
    'speech containing (speaker containing "R*")',
    '"love" within line',
    '(speech containing "s*") before (speech containing "love")',
    'line after ("night" before "s*")',
    'bi(document, "s*", "love")',
    '(scene @ "love") union (line containing "s*")',
)


class TestCorpusMatchPoints:
    """Text-backed word index: match points routed across cuts."""

    def test_match_point_equivalence(self, play_corpus):
        engine = play_corpus.engine()
        instance = engine.instance
        evaluator = Evaluator("indexed")
        from repro.algebra.parser import parse

        for query in MATCH_POINT_QUERIES:
            expr = parse(query)
            expected = evaluator.evaluate(expr, instance)
            # Guard against vacuous equivalence: the patterns must
            # actually occur in the generated vocabulary.
            assert len(expected) > 0, query
            for shards in (2, 4, 7):
                executor = ShardExecutor(instance, shards)
                try:
                    got = executor.run(expr)
                    stats = executor.last_stats
                finally:
                    executor.close()
                assert list(got) == list(expected), (query, shards)
                # Multi-root corpus: no silent fallback to single-shard.
                assert stats.fallback is None, (query, stats.fallback)
