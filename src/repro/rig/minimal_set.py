"""The Section 6 minimal-set problem.

The one-loop chain program's per-iteration cost is dominated by the
interference set ``All``; the RIG lets it shrink: it suffices for
``All`` to draw from a subset ``I' ⊆ I`` of region names containing at
least one name on the interior of every RIG walk from ``R_i`` to
``R_{i+1}``, for every consecutive pair of the chain.

* :func:`covers` — the verification step (the "check" of the paper's NP
  algorithm).
* :func:`minimal_set_bruteforce` — exact search by increasing size (the
  "guess" made deterministic); exponential, fine for RIG-sized graphs.
* :func:`minimal_set_single_pair` — the polynomial single-operation case
  via a minimum vertex cut (the paper points to min-cut; we use
  networkx's max-flow node connectivity).
* :func:`minimal_set_greedy` — a polynomial heuristic for long chains:
  the union of per-pair minimum cuts.
* :func:`vertex_cover_to_minimal_set` — the Proposition 6.1 hardness
  reduction.  The paper only names the source problem (vertex cover);
  the gadget here gives an exact size-preserving reduction: edge
  ``e_i = (u, v)`` becomes the path ``Z_{i-1} → u → v → Z_i`` on shared
  vertex nodes, so every ``Z_{i-1} → Z_i`` walk starts with ``u`` and
  ends with ``v``, and hitting all of them is exactly choosing ``u`` or
  ``v`` — a vertex cover.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.errors import OptimizationError
from repro.rig.graph import RegionInclusionGraph

__all__ = [
    "covers",
    "minimal_set_bruteforce",
    "minimal_set_single_pair",
    "minimal_set_greedy",
    "vertex_cover_to_minimal_set",
    "minimum_vertex_cover_bruteforce",
]


def _check_chain(chain: Sequence[str]) -> None:
    if len(chain) < 2:
        raise OptimizationError("a chain needs at least two region names")


def covers(
    rig: RegionInclusionGraph, chain: Sequence[str], subset: Iterable[str]
) -> bool:
    """Does ``subset`` hit the interior of every walk ``R_i → R_{i+1}``?

    Walks of length 1 (a direct RIG edge) have no interior and are
    vacuously covered — no region can interpose between the two types.
    """
    _check_chain(chain)
    blocked = set(subset)
    for source, target in zip(chain, chain[1:]):
        if rig.paths_avoiding(source, target, blocked):
            return False
    return True


def minimal_set_bruteforce(
    rig: RegionInclusionGraph, chain: Sequence[str], max_size: int | None = None
) -> frozenset[str] | None:
    """The smallest covering subset, by exhaustive search.

    Candidates are restricted to names that can appear on some walk
    interior.  Returns ``None`` when no subset within ``max_size``
    covers (possible only when ``max_size`` is given: the full candidate
    set always covers).
    """
    _check_chain(chain)
    candidates: set[str] = set()
    for source, target in zip(chain, chain[1:]):
        candidates |= rig.interior_nodes(source, target)
    pool = sorted(candidates)
    limit = len(pool) if max_size is None else min(max_size, len(pool))
    for k in range(0, limit + 1):
        for subset in combinations(pool, k):
            if covers(rig, chain, subset):
                return frozenset(subset)
    return None


def minimal_set_single_pair(
    rig: RegionInclusionGraph, source: str, target: str
) -> frozenset[str]:
    """Minimum cover for one pair, in polynomial time via min-cut.

    A subset covers iff it is a vertex cut between ``source`` and
    ``target`` in the RIG with any direct ``source → target`` edge
    removed (that edge is an interior-free walk, vacuously covered).
    Cycles through the endpoints are handled by splitting them into an
    exit-only source copy and an entry-only target copy.  This is the one
    place the package needs :mod:`networkx`, imported on the call.
    """
    import networkx as nx

    graph = rig.as_networkx()
    if graph.has_edge(source, target):
        graph.remove_edge(source, target)
    # Split endpoints so that the cut may not use them, while walks may
    # still pass through them as interior nodes.
    src, dst = ("__source__", "__target__")
    graph.add_node(src)
    graph.add_node(dst)
    for succ in list(graph.successors(source)):
        graph.add_edge(src, succ)
    for pred in list(graph.predecessors(target)):
        graph.add_edge(pred, dst)
    if not nx.has_path(graph, src, dst):
        return frozenset()
    if graph.has_edge(src, dst):
        raise OptimizationError(
            f"walks from {source!r} to {target!r} of length 2 share no "
            "interior name that could be removed"
        )
    cut = nx.minimum_node_cut(graph, src, dst)
    return frozenset(cut)


def minimal_set_greedy(
    rig: RegionInclusionGraph, chain: Sequence[str]
) -> frozenset[str]:
    """Union of per-pair minimum cuts — a polynomial upper bound.

    At most ``(n-1)`` times the optimum; exact when the pairs' interior
    node sets are disjoint.
    """
    _check_chain(chain)
    out: set[str] = set()
    for source, target in zip(chain, chain[1:]):
        if not rig.paths_avoiding(source, target, out):
            continue  # already covered by earlier picks
        out |= minimal_set_single_pair(rig, source, target)
    return frozenset(out)


def vertex_cover_to_minimal_set(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]]
) -> tuple[RegionInclusionGraph, list[str]]:
    """The Proposition 6.1 reduction: vertex cover → minimal set.

    Every walk from ``Z_{i-1}`` to ``Z_i`` leaves through ``u_i`` and
    enters through ``v_i``, and the two-step walk ``Z_{i-1} → u → v →
    Z_i`` has interior exactly ``{u, v}``; hence a subset covers the
    chain iff it contains an endpoint of every edge.  The minimum
    covering set therefore has exactly the size of a minimum vertex
    cover of the input graph.
    """
    if not edges:
        raise OptimizationError("the reduction needs at least one edge")
    chain = [f"Z{i}" for i in range(len(edges) + 1)]
    names = list(chain) + [v for v in vertices]
    rig_edges: set[tuple[str, str]] = set()
    for i, (u, v) in enumerate(edges):
        rig_edges.add((chain[i], u))
        rig_edges.add((u, v))
        rig_edges.add((v, chain[i + 1]))
    return RegionInclusionGraph(names, sorted(rig_edges)), chain


def minimum_vertex_cover_bruteforce(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]]
) -> frozenset[str]:
    """Reference minimum vertex cover, for validating the reduction."""
    for k in range(0, len(vertices) + 1):
        for subset in combinations(sorted(vertices), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return frozenset(subset)
    return frozenset(vertices)
