"""Hypothesis strategies for property-based testing against the library.

Importable by downstream users who want to property-test code built on
the region algebra (requires the optional ``hypothesis`` dependency)::

    from repro.workloads.strategies import hierarchical_instances

    @given(hierarchical_instances(names=("sec", "par"), patterns=("kw",)))
    def test_my_invariant(instance):
        ...

The central strategy is :func:`hierarchical_instances`, which generates
valid hierarchical instances (Definition 2.1's restriction holds by
construction) with controllable name universes, pattern labellings, and
shape bounds.  The library's own test suite uses these same strategies.
"""

from __future__ import annotations

try:
    from hypothesis import strategies as st
except ImportError as exc:  # pragma: no cover - optional dependency guard
    raise ImportError(
        "repro.workloads.strategies requires the optional 'hypothesis' "
        "dependency (pip install repro[test])"
    ) from exc

from repro.core.region import Region
from repro.workloads.generators import TreeNode, instance_from_trees

__all__ = [
    "regions",
    "region_lists",
    "tree_nodes",
    "hierarchical_instances",
    "expressions",
]


def regions(max_coord: int = 60) -> st.SearchStrategy[Region]:
    """Arbitrary (possibly overlapping) regions in ``[0, max_coord]``."""
    return st.tuples(
        st.integers(0, max_coord), st.integers(0, max_coord)
    ).map(lambda pair: Region(min(pair), max(pair)))


def region_lists(
    max_coord: int = 60, max_size: int = 25
) -> st.SearchStrategy[list[Region]]:
    """Lists of arbitrary regions — inputs for set-operation laws."""
    return st.lists(regions(max_coord), max_size=max_size)


@st.composite
def tree_nodes(
    draw,
    names: tuple[str, ...] = ("R0", "R1", "R2"),
    patterns: tuple[str, ...] = (),
    max_depth: int = 4,
    max_children: int = 3,
    depth: int = 0,
) -> TreeNode:
    """A random labelled tree (the pre-lowering form of an instance)."""
    name = draw(st.sampled_from(names))
    labels = (
        frozenset(draw(st.sets(st.sampled_from(patterns))))
        if patterns
        else frozenset()
    )
    children = []
    if depth < max_depth:
        count = draw(st.integers(0, max_children))
        for _ in range(count):
            children.append(
                draw(
                    tree_nodes(
                        names=names,
                        patterns=patterns,
                        max_depth=max_depth,
                        max_children=max_children,
                        depth=depth + 1,
                    )
                )
            )
    return TreeNode(name, children, labels)


@st.composite
def expressions(
    draw,
    names: tuple[str, ...] = ("R0", "R1", "R2"),
    patterns: tuple[str, ...] = (),
    max_depth: int = 3,
    extended: bool = True,
    depth: int = 0,
    match_points: bool = False,
):
    """Random expression trees over the given names and patterns.

    With ``extended`` the direct operators and ``bi`` may appear.  With
    ``match_points`` (and ``patterns``) a leaf may be a word query — the
    match points of a pattern, which need a text-backed word index.
    Used for grand-consistency properties (indexed ≡ naive evaluation,
    parse/print round trips) over the *whole* operator surface.
    """
    from repro.algebra import ast as A

    if depth >= max_depth or draw(st.booleans()) and depth > 0:
        if match_points and patterns and draw(st.integers(0, 3)) == 0:
            return A.MatchPoints(draw(st.sampled_from(patterns)))
        return A.NameRef(draw(st.sampled_from(names)))
    binary_ops = [
        A.Union,
        A.Intersection,
        A.Difference,
        A.Including,
        A.IncludedIn,
        A.Preceding,
        A.Following,
    ]
    if extended:
        binary_ops += [A.DirectlyIncluding, A.DirectlyIncluded]
    choices = len(binary_ops) + (1 if patterns else 0) + (1 if extended else 0)
    pick = draw(st.integers(0, choices - 1))
    recurse = lambda: draw(
        expressions(
            names=names,
            patterns=patterns,
            max_depth=max_depth,
            extended=extended,
            depth=depth + 1,
            match_points=match_points,
        )
    )
    if pick < len(binary_ops):
        return binary_ops[pick](recurse(), recurse())
    if patterns and pick == len(binary_ops):
        return A.Select(draw(st.sampled_from(patterns)), recurse())
    return A.BothIncluded(recurse(), recurse(), recurse())


@st.composite
def hierarchical_instances(
    draw,
    names: tuple[str, ...] = ("R0", "R1", "R2"),
    patterns: tuple[str, ...] = (),
    max_trees: int = 3,
    max_depth: int = 4,
    max_children: int = 3,
):
    """Valid hierarchical instances over ``names`` (Definition 2.1)."""
    trees = draw(
        st.lists(
            tree_nodes(
                names=names,
                patterns=patterns,
                max_depth=max_depth,
                max_children=max_children,
            ),
            min_size=1,
            max_size=max_trees,
        )
    )
    return instance_from_trees(trees, names=names)
