"""Expected answers from Definition 2.3 verbatim, and the answer check.

The oracle is ``Evaluator("naive")`` — the literal transcription of the
paper's definitions, quadratic or cubic per operator.  On the 64-play
corpus that is hours for ``dwithin`` and ``bi``, so templates whose
operators only relate regions of one top-level tree (inclusion, direct
inclusion, both-included, selection and the set operators never cross
a root) are evaluated root by root and the results concatenated;
templates with an order operator or match points see the whole
instance.  Both are the same definitions on the same regions.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Any, Iterable

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.core.instance import Instance
from repro.core.regionset import RegionSet

from bench.spec import QUERIES

Answer = tuple[int, str]  #: (cardinality, checksum of the (left, right) pairs)

_GLOBAL_NODES = (A.Preceding, A.Following, A.MatchPoints)


def answer_of(pairs: Iterable[Any]) -> Answer:
    """Cardinality and checksum of a result given as ``(left, right)``
    pairs — ``Region`` objects, tuples or JSON ``[left, right]`` lists."""
    pairs = list(pairs)
    if pairs and isinstance(pairs[0], (list, tuple)):
        lefts, rights = [p[0] for p in pairs], [p[1] for p in pairs]
    else:
        lefts, rights = [p.left for p in pairs], [p.right for p in pairs]
    digest = hashlib.blake2b(
        array("q", lefts).tobytes() + array("q", rights).tobytes(), digest_size=8
    )
    return len(pairs), digest.hexdigest()


def _root_instances(instance: Instance) -> list[Instance]:
    """One sub-instance per top-level tree, sharing the word index.
    (Not ``repro.shard.partition``: the oracle stays independent of the
    sharding code the benchmark measures.)"""
    roots: list[tuple[int, int]] = []
    for region in instance.all_regions():  # sorted by (left, right)
        if not roots or region.left > roots[-1][1]:
            roots.append((region.left, region.right))
        elif region.right > roots[-1][1]:
            roots[-1] = (roots[-1][0], region.right)
    buckets: list[dict[str, list]] = [
        {name: [] for name in instance.names} for _ in roots
    ]
    for name in instance.names:
        cursor = 0
        for region in instance.region_set(name):
            while roots[cursor][1] < region.left:
                cursor += 1
            buckets[cursor][name].append(region)
    return [
        Instance(
            {name: RegionSet(regions) for name, regions in bucket.items()},
            instance.word_index,
            validate=False,
        )
        for bucket in buckets
    ]


def expected_answers(instance: Instance) -> dict[str, Answer]:
    """The oracle's answer to every ``mix16`` template on ``instance``."""
    naive = Evaluator("naive")
    per_root: list[Instance] | None = None
    answers: dict[str, Answer] = {}
    for template, query in QUERIES.items():
        expr = parse(query)
        if any(isinstance(node, _GLOBAL_NODES) for node in A.walk(expr)):
            result = list(naive.evaluate(expr, instance))
        else:
            if per_root is None:
                per_root = _root_instances(instance)
            result = [r for sub in per_root for r in naive.evaluate(expr, sub)]
        answers[template] = answer_of(result)
    return answers
