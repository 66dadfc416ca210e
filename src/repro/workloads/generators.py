"""Synthetic instance generators.

The theory of the paper only sees structure — nesting, order, names,
word-index truths — so synthetic instances are specified as labelled
ordered trees (:class:`TreeNode`) and lowered to concrete intervals by a
DFS numbering that makes parents strictly include children and siblings
pairwise disjoint.

Families provided:

* :func:`random_instance` — random hierarchical instances with free name
  assignment (the oracle-testing workhorse);
* :func:`random_text_instance` — small random *text-backed* instances
  (token occurrences, not labels), for the paths only a
  :class:`TextWordIndex` reaches: ``σ_p`` as a semi-join, match points;
* :func:`rig_constrained_instance` — random instances guaranteed to
  satisfy a given RIG (children names are drawn from the parent's RIG
  successors);
* :func:`figure_2_instance` — the alternating-nesting tower of the
  Theorem 5.1 counter-example;
* :func:`figure_3_instance` — the ``4k+1`` sibling family of the
  Theorem 5.3 counter-example;
* shape primitives (:func:`nested_tower`, :func:`flat_row`,
  :func:`balanced_tree`) used by the benchmark sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.core.wordindex import LabelWordIndex, TextWordIndex, Token
from repro.rig.graph import RegionInclusionGraph

__all__ = [
    "TreeNode",
    "instance_from_trees",
    "random_instance",
    "random_text_instance",
    "random_trees",
    "TEXT_NAMES",
    "TEXT_VOCABULARY",
    "rig_constrained_instance",
    "figure_2_instance",
    "figure_3_instance",
    "nested_tower",
    "flat_row",
    "balanced_tree",
]


@dataclass
class TreeNode:
    """A region-to-be: a name, word-index labels, and ordered children."""

    name: str
    children: list["TreeNode"] = field(default_factory=list)
    labels: frozenset[str] = frozenset()


def instance_from_trees(
    trees: Sequence[TreeNode], names: Sequence[str] | None = None
) -> Instance:
    """Lower labelled ordered trees to an :class:`Instance`.

    Every node consumes one position on entry and one on exit, so a
    parent's interval strictly includes its children's and siblings are
    disjoint.  ``names`` fixes the region-name universe (defaults to the
    names occurring in the trees, sorted).
    """
    sets: dict[str, list[Region]] = {}
    labels: dict[Region, frozenset[str]] = {}
    counter = 0

    def lower(node: TreeNode) -> None:
        nonlocal counter
        left = counter
        counter += 1
        for child in node.children:
            lower(child)
        right = counter
        counter += 1
        region = Region(left, right)
        sets.setdefault(node.name, []).append(region)
        if node.labels:
            labels[region] = node.labels

    for tree in trees:
        lower(tree)
    if names is None:
        names = sorted(sets)
    region_sets = {name: RegionSet(sets.get(name, ())) for name in names}
    return Instance(region_sets, LabelWordIndex(labels), validate=False)


def random_trees(
    rng: random.Random,
    names: Sequence[str],
    max_nodes: int = 30,
    max_depth: int = 6,
    max_children: int = 3,
    patterns: Sequence[str] = (),
    pattern_probability: float = 0.3,
    min_nodes: int = 1,
) -> list[TreeNode]:
    """Random labelled forests with free name assignment.

    The node count is drawn uniformly from ``[min_nodes, max_nodes]``;
    benchmarks pass ``min_nodes == max_nodes`` for deterministic sizes.
    """
    budget = rng.randint(min(min_nodes, max_nodes), max_nodes)
    count = 0

    def node(depth: int) -> TreeNode:
        nonlocal count
        count += 1
        label = frozenset(
            p for p in patterns if rng.random() < pattern_probability
        )
        children: list[TreeNode] = []
        if depth < max_depth:
            for _ in range(rng.randint(0, max_children)):
                if count >= budget:
                    break
                children.append(node(depth + 1))
        return TreeNode(rng.choice(list(names)), children, label)

    roots: list[TreeNode] = []
    while count < budget:
        roots.append(node(0))
    return roots


def random_instance(
    rng: random.Random,
    names: Sequence[str] = ("R0", "R1", "R2"),
    max_nodes: int = 30,
    max_depth: int = 6,
    max_children: int = 3,
    patterns: Sequence[str] = (),
    pattern_probability: float = 0.3,
    min_nodes: int = 1,
) -> Instance:
    """A random hierarchical instance (see :func:`random_trees`)."""
    trees = random_trees(
        rng,
        names,
        max_nodes,
        max_depth,
        max_children,
        patterns,
        pattern_probability,
        min_nodes,
    )
    return instance_from_trees(trees, names)


TEXT_NAMES = ("speech", "line", "word")
#: Eight words sharing prefixes, so literal, prefix and glob patterns
#: each select a different, overlapping family of occurrences.
TEXT_VOCABULARY = ("love", "lover", "lot", "night", "nine", "sun", "sum", "x")


def random_text_instance(rng: random.Random) -> Instance:
    """A random instance over a real token stream (≤ 35 regions, ≤ 35
    occurrences — cheap for the cubic oracle).

    Top-level ``speech`` regions hold ``line`` regions; a line wraps its
    one or two tokens *tightly*, so a one-token line **is** its only
    occurrence (the non-strict edge of ``W``) and a line shares its left
    endpoint with its first token.  In a two-token line either token may
    also be a ``word`` region.  Stray tokens sit between the top-level
    trees, where a match point has no enclosing region at all.
    """
    sets: dict[str, list[Region]] = {name: [] for name in TEXT_NAMES}
    tokens: list[Token] = []
    position = 0

    def token() -> Region:
        nonlocal position
        text = rng.choice(TEXT_VOCABULARY)
        occurrence = Region(position, position + len(text) - 1)
        tokens.append((text, occurrence.left, occurrence.right))
        position = occurrence.right + 2
        return occurrence

    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.4:
            token()
        speech_left = position
        position += 1
        for _ in range(rng.randint(1, 3)):
            spans = [token() for _ in range(rng.randint(1, 2))]
            sets["line"].append(Region(spans[0].left, spans[-1].right))
            if len(spans) == 2:
                sets["word"].extend(s for s in spans if rng.random() < 0.4)
        sets["speech"].append(Region(speech_left, position))
        position += 2
    return Instance(sets, TextWordIndex(tokens))


def rig_constrained_instance(
    rng: random.Random,
    rig: RegionInclusionGraph,
    roots: Sequence[str],
    max_nodes: int = 40,
    max_depth: int = 8,
    max_children: int = 3,
    patterns: Sequence[str] = (),
    pattern_probability: float = 0.2,
) -> Instance:
    """A random instance guaranteed to satisfy ``rig`` (Definition 2.4).

    Root names are drawn from ``roots``; every child's name is drawn
    from its parent's RIG successors, so each direct inclusion realizes
    an edge.
    """
    budget = rng.randint(1, max_nodes)
    count = 0

    def node(name: str, depth: int) -> TreeNode:
        nonlocal count
        count += 1
        label = frozenset(
            p for p in patterns if rng.random() < pattern_probability
        )
        children: list[TreeNode] = []
        options = rig.successors(name)
        if options and depth < max_depth:
            for _ in range(rng.randint(0, max_children)):
                if count >= budget:
                    break
                children.append(node(rng.choice(options), depth + 1))
        return TreeNode(name, children, label)

    trees: list[TreeNode] = []
    while count < budget:
        trees.append(node(rng.choice(list(roots)), 0))
    return instance_from_trees(trees, rig.names)


def figure_2_instance(depth: int, names: tuple[str, str] = ("A", "B")) -> Instance:
    """The Theorem 5.1 counter-example: an alternating nesting tower.

    ``depth`` regions alternate names from the outside in
    (``B ⊃ A ⊃ B ⊃ A ⊃ …`` when ``names = ("A", "B")``, outermost
    ``B``), realizing the cyclic RIG with edges ``(A, B)`` and
    ``(B, A)``.  Deleting one inner region flips direct-inclusion facts
    without affecting any small expression (Theorem 4.1).
    """
    if depth < 1:
        raise ValueError("tower depth must be >= 1")
    a, b = names
    node: TreeNode | None = None
    for level in range(depth):
        # level 0 is the innermost region; the outermost gets name `b`.
        name = b if (depth - 1 - level) % 2 == 0 else a
        node = TreeNode(name, [node] if node else [])
    assert node is not None
    return instance_from_trees([node], names=sorted(names))


def figure_3_instance(
    k: int, names: tuple[str, str, str] = ("A", "B", "C")
) -> Instance:
    """The Theorem 5.3 counter-example: ``4k+1`` sibling ``C`` regions.

    Every ``C`` contains an ``A`` followed by a ``B`` — except the
    middle one (position ``2k+1``), which contains ``A``, ``B``, and a
    second ``A``, making it the only region in ``C BI (B, A)``.
    Reducing the two isomorphic middle ``A`` regions removes the only
    witness pair while remaining a k-reduced version for small k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b, c = names
    total = 4 * k + 1
    middle = 2 * k  # 0-based index of the (2k+1)-th region
    trees = []
    for i in range(total):
        children = [TreeNode(a), TreeNode(b)]
        if i == middle:
            children.append(TreeNode(a))
        trees.append(TreeNode(c, children))
    return instance_from_trees(trees, names=sorted(names))


def nested_tower(depth: int, names: Sequence[str]) -> Instance:
    """A single chain of ``depth`` nested regions cycling over ``names``."""
    if depth < 1:
        raise ValueError("tower depth must be >= 1")
    node: TreeNode | None = None
    for level in range(depth - 1, -1, -1):
        node = TreeNode(names[level % len(names)], [node] if node else [])
    assert node is not None
    return instance_from_trees([node], names=sorted(set(names)))


def flat_row(count: int, name: str = "R", labels: Iterable[str] = ()) -> Instance:
    """``count`` disjoint sibling regions of one name."""
    label = frozenset(labels)
    trees = [TreeNode(name, [], label) for _ in range(count)]
    return instance_from_trees(trees, names=(name,))


def balanced_tree(
    depth: int, branching: int, names: Sequence[str]
) -> Instance:
    """A complete tree; level ``i`` uses ``names[i % len(names)]``."""

    def node(level: int) -> TreeNode:
        children = (
            [node(level + 1) for _ in range(branching)] if level < depth - 1 else []
        )
        return TreeNode(names[level % len(names)], children)

    if depth < 1:
        raise ValueError("tree depth must be >= 1")
    return instance_from_trees([node(0)], names=sorted(set(names)))
