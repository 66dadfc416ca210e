"""Region inclusion graphs (Section 2.2).

A RIG is a directed graph over region names whose edges state which
*direct* inclusions may occur: ``(R_i, R_j) ∈ E`` iff an ``R_i`` region
can directly include an ``R_j`` region.  A RIG plays the role of a
schema: expression equivalence and emptiness are defined relative to the
set of instances satisfying it (Definitions 2.4/2.5), and the optimizer
uses it to drop redundant inclusion tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.instance import Instance
from repro.errors import UnknownRegionNameError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["NameGraph", "RegionInclusionGraph", "figure_1_rig"]

#: Adjacency: each name's neighbours, in insertion order.
_Adjacency = dict[str, dict[str, None]]


def _reachable(graph: _Adjacency, name: str) -> set[str]:
    """Names reached from ``name`` by walks of one or more edges (BFS):
    ``name`` itself only when a cycle passes through it."""
    seen: set[str] = set()
    frontier = list(graph[name])
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(graph[node])
    return seen


class NameGraph:
    """An immutable directed graph over region names, kept as successor
    and predecessor dicts; the shape a RIG and a ROG share."""

    __slots__ = ("_succ", "_pred")

    #: How errors name the graph.
    KIND = "graph"

    def __init__(self, names: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        succ: _Adjacency = {name: {} for name in names}
        pred: _Adjacency = {name: {} for name in succ}
        for source, target in edges:
            for name in (source, target):
                if name not in succ:
                    raise UnknownRegionNameError(name, tuple(succ))
            succ[source][target] = None
            pred[target][source] = None
        self._succ, self._pred = succ, pred

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._succ)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (source, target)
            for source, targets in self._succ.items()
            for target in targets
        )

    def has_edge(self, source: str, target: str) -> bool:
        return target in self._succ.get(source, ())

    def descendants(self, name: str) -> frozenset[str]:
        """Names reached from ``name`` by walks of one or more edges:
        ``name`` itself only when a cycle passes through it."""
        self._require(name)
        return frozenset(_reachable(self._succ, name))

    def _require(self, name: str) -> None:
        if name not in self._succ:
            raise UnknownRegionNameError(name, tuple(self._succ))

    def as_networkx(self) -> "nx.DiGraph":
        """A *copy* of the graph as a :mod:`networkx` ``DiGraph``, for
        external algorithms (networkx is imported on this call)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._succ)
        graph.add_edges_from(self.edges)
        return graph

    def __contains__(self, name: object) -> bool:
        return name in self._succ

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return set(self._succ) == set(other._succ) and set(self.edges) == set(
            other.edges
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._succ), frozenset(self.edges)))

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{type(self).__name__}({len(self._succ)} names, "
            f"{len(self.edges)} edges)"
        )

    def is_acyclic(self) -> bool:
        """Acyclic RIGs bound the nesting depth of satisfying instances
        (the premise of Proposition 5.2), acyclic ROGs the number of
        pairwise non-overlapping regions (Proposition 5.4)."""
        return self._topological_order() is not None

    def longest_path_length(self) -> int:
        """Number of nodes on the longest path (acyclic graphs only).

        On a RIG this bounds the nesting depth of any satisfying
        instance; on a ROG the length of any ``<``-chain — hence the
        number of pairwise non-overlapping regions — which is the
        ``width_bound`` of Proposition 5.4.
        """
        order = self._topological_order()
        if order is None:
            raise ValueError(f"longest path is unbounded on a cyclic {self.KIND}")
        depth: dict[str, int] = {}
        for node in order:
            depth[node] = 1 + max((depth[p] for p in self._pred[node]), default=0)
        return max(depth.values(), default=0)

    def _topological_order(self) -> list[str] | None:
        """The names in an order where every edge points forward (Kahn's
        algorithm), or ``None`` when the graph has a cycle."""
        indegree = {name: len(sources) for name, sources in self._pred.items()}
        ready = [name for name, degree in indegree.items() if not degree]
        order: list[str] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for target in self._succ[node]:
                indegree[target] -= 1
                if not indegree[target]:
                    ready.append(target)
        return order if len(order) == len(self._succ) else None


class RegionInclusionGraph(NameGraph):
    """An immutable directed graph over region names."""

    __slots__ = ()

    KIND = "RIG"

    def successors(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return tuple(self._succ[name])

    def predecessors(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return tuple(self._pred[name])

    # ------------------------------------------------------------------
    # Structural properties used by the theory.
    # ------------------------------------------------------------------

    def self_nesting_bound(self, name: str) -> int | None:
        """Max number of ``name``-regions on a nesting chain, or ``None``
        when unbounded (``name`` lies on a cycle).

        This is the ``depth_bound`` Proposition 5.2's expansion needs for
        the left side of a direct inclusion.
        """
        # A nesting chain visiting `name` twice is a RIG walk from `name`
        # back to itself, i.e. a cycle through `name`; without one the
        # bound is exactly 1.
        return None if name in self.descendants(name) else 1

    def paths_avoiding(
        self, source: str, target: str, blocked: Iterable[str]
    ) -> bool:
        """Is there a walk ``source → … → target`` of length ≥ 2 whose
        interior avoids ``blocked``?

        This is the feasibility check of the Section 6 minimal-set
        problem (the endpoints themselves need not be avoided).
        """
        self._require(source)
        self._require(target)
        barred = set(blocked)
        frontier = [
            v for v in self._succ[source] if v not in barred and v != target
        ]
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            for succ in self._succ[node]:
                if succ == target:
                    return True
                if succ not in barred and succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return False

    def interior_nodes(self, source: str, target: str) -> frozenset[str]:
        """Names that can appear strictly inside a ``source → target``
        nesting chain: interior nodes of walks from ``source`` to
        ``target``, the endpoints themselves excepted."""
        self._require(source)
        self._require(target)
        reachable_from_source = _reachable(self._succ, source) - {source}
        reaching_target = _reachable(self._pred, target) - {target}
        return frozenset(reachable_from_source & reaching_target)

    def satisfied_by(self, instance: Instance) -> bool:
        """Definition 2.4: every direct inclusion in the instance is an
        edge of this RIG (and every region name is known)."""
        for name in instance.names:
            if name not in self._succ and len(instance.region_set(name)):
                return False
        forest = instance.forest()
        for parent, child in forest.iter_edges():
            if not self.has_edge(instance.name_of(parent), instance.name_of(child)):
                return False
        return True

    def violations(
        self, instance: Instance
    ) -> Iterator[tuple[str, str]]:
        """The direct-inclusion name pairs that break Definition 2.4."""
        forest = instance.forest()
        for parent, child in forest.iter_edges():
            pair = (instance.name_of(parent), instance.name_of(child))
            if not self.has_edge(*pair):
                yield pair


def figure_1_rig() -> RegionInclusionGraph:
    """The paper's Figure 1: the RIG for source-code regions.

    Programs have a header (containing the program name) and a body
    containing variable definitions and procedures; procedures have a
    header (with their name) and a body that may define more variables
    and nested procedures.
    """
    names = (
        "Program",
        "Prog_header",
        "Prog_body",
        "Proc",
        "Proc_header",
        "Proc_body",
        "Name",
        "Var",
    )
    edges = (
        ("Program", "Prog_header"),
        ("Program", "Prog_body"),
        ("Prog_header", "Name"),
        ("Prog_body", "Var"),
        ("Prog_body", "Proc"),
        ("Proc", "Proc_header"),
        ("Proc", "Proc_body"),
        ("Proc_header", "Name"),
        ("Proc_body", "Var"),
        ("Proc_body", "Proc"),
    )
    return RegionInclusionGraph(names, edges)
