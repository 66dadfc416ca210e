"""The transport-agnostic shard-backend interface and slice evaluation.

A **backend** answers one RPC: *evaluate these query texts against your
slice of a corpus*.  The frontier partitions each corpus into ``G``
shard groups (the same deterministic top-level-forest cut as
:mod:`repro.shard.partition`, so every replica of a group computes an
identical slice independently) and drives its exchange
protocol over a text wire format:

* ``queries`` — sub-plans as canonical query text
  (:func:`~repro.algebra.printer.to_text` round-trips through
  :func:`~repro.algebra.parser.parse`, the same property the result
  cache's normalized keys already rely on);
* ``bounds`` — resolved ordering nodes, keyed by *their* printed text
  and valued by the globally folded scalar (``None`` = globally empty
  right operand).  The backend re-finds each node in its parsed AST by
  printed text — sound because the evaluator's node equality is
  structural and an exchanged scalar is context-independent;
* ``want`` — ``"sets"`` for region results, ``"exchange"`` for the two
  scalars per query that exchange rounds fold.

Match points route through the one router,
:meth:`~repro.shard.partition.Segment.route`: the word index is
position-keyed and shared by every restriction, so a backend keeps only
the occurrences whose left endpoint its group owns; an
occurrence spanning a cut raises
:class:`~repro.errors.BackendUnsupportedError`, which the frontier
answers with the always-correct local fallback rather than failover
(every replica would refuse identically).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.algebra.printer import to_text
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.core.wordindex import TextWordIndex
from repro.errors import BackendUnsupportedError, ReplicaLaggingError
from repro.obs.trace import maybe_span
from repro.shard.partition import Partition, Segment, partition_instance
from repro.shard.rewrite import rewrite

__all__ = [
    "BackendResult",
    "PairColumns",
    "ShardBackend",
    "ShardSlice",
    "SliceProvider",
    "evaluate_slice",
    "slice_checksum",
]


class PairColumns:
    """A ``want="sets"`` answer as it leaves :func:`evaluate_slice`: the
    result's own sorted, duplicate-free endpoint arrays, shared rather
    than copied, iterating as ``(left, right)`` pairs."""

    __slots__ = ("lefts", "rights")

    def __init__(self, result: RegionSet):
        self.lefts = result._lefts
        self.rights = result._rights

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.lefts, self.rights)


@dataclass(frozen=True)
class BackendResult:
    """One backend RPC's answer.

    ``payload`` holds one entry per query text: for ``want="sets"`` the
    result's ``(left, right)`` pairs — :class:`PairColumns` in-process,
    a ``[[left, right], …]`` list off the wire — and for
    ``want="exchange"`` a ``(max_left, min_right)`` pair (``None``\\ s
    when empty).  ``span`` is an
    optional :func:`~repro.obs.trace.span_to_dict` dump of the
    backend-side span subtree, for the frontier to re-parent with
    :meth:`~repro.obs.trace.Tracer.adopt`.
    """

    payload: list[Any]
    generation: int
    seconds: float
    node: str = ""
    span: dict[str, Any] | None = None


class ShardBackend:
    """One backend node the frontier can scatter shard work to.

    Implementations: :class:`~repro.backend.inprocess.InProcessBackend`
    (same process) and :class:`~repro.backend.httpclient.HTTPBackend`
    (a ``repro serve`` subprocess).  Both are safe to call from
    concurrent frontier threads.

    ``waits`` says whether a call blocks on something other than this
    process's CPU — a socket, another process, a sleep.  Only such calls
    go to the frontier's pools and are hedged; a group none of whose
    replicas waits is served on the calling thread, because under the
    GIL a second thread evaluating the same slice only competes with the
    first.
    """

    node_id: str = ""
    waits: bool = False

    def shard_query(
        self,
        corpus: str,
        group: int,
        groups: int,
        queries: Sequence[str],
        want: str,
        bounds: Mapping[str, int | None],
        deadline: float | None = None,
        trace: Mapping[str, Any] | None = None,
        floor: int = 0,
    ) -> BackendResult:
        """Evaluate ``queries`` against group ``group`` of ``groups``.

        ``floor`` is the read's generation floor: the lowest corpus
        generation this answer may come from (the generation the
        frontier acknowledged the caller's writes at).  A backend whose
        replica is still behind raises
        :class:`~repro.errors.ReplicaLaggingError` — a failover-able
        :class:`~repro.errors.BackendError` — instead of answering from
        the past.

        Raises :class:`~repro.errors.BackendError` for failures worth
        failing over (transport, remote crash, lagging replica),
        :class:`~repro.errors.BackendUnsupportedError` when no replica
        could answer soundly, and :class:`~repro.errors.QueryTimeout`
        when the propagated deadline expired remotely.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Replication (WAL log shipping) — see repro.backend.replication.
    # ------------------------------------------------------------------

    def replicate_apply(
        self,
        corpus: str,
        seq: int,
        ops: Sequence[Mapping[str, Any]],
        generation: int,
        checksum: str,
    ) -> dict[str, Any]:
        """Apply one committed WAL batch to this node's replica of
        ``corpus``, publishing exactly ``generation``.

        Returns ``{"corpus", "applied", "status"}`` where ``applied`` is
        the node's replica generation after the call and ``status`` is
        ``"applied"`` (the batch landed), ``"stale"`` (already at or past
        ``generation`` — an idempotent re-ship), ``"out_of_order"`` (a
        gap: the node needs catch-up first), or ``"checksum_mismatch"``
        (the shipped payload failed verification and was rejected).
        """
        raise NotImplementedError

    def replicate_snapshot(
        self, corpus: str, state: Mapping[str, Any], generation: int
    ) -> dict[str, Any]:
        """Replace this node's replica of ``corpus`` wholesale with
        ``state`` (a :meth:`LiveCorpus.state`-shaped document dump),
        publishing ``generation`` — the catch-up path when shipped batch
        history no longer covers the node's gap, and the repair path
        when anti-entropy finds divergence."""
        raise NotImplementedError

    def replicate_status(self, corpus: str, groups: int) -> dict[str, Any]:
        """This node's replica position for ``corpus``: ``{"corpus",
        "applied", "checksums"}`` with one content checksum per shard
        group (``groups`` of them) — what the anti-entropy sweep
        compares against the frontier's own slices."""
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        return {"node": self.node_id, "transport": type(self).__name__}

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


@dataclass(frozen=True)
class ShardSlice:
    """Group ``g``-of-``G`` of one corpus generation, ready to evaluate.

    ``segment.instance`` is the restricted sub-instance; its word index
    is the *full* corpus index (shared by construction —
    ``W(r, p)`` is position-keyed), which is what lets a slice route
    match points by ownership without seeing its siblings.
    """

    segment: Segment
    group: int
    groups: int
    generation: int
    evaluator: Evaluator


class SliceProvider:
    """Builds and caches :class:`ShardSlice`\\ s per corpus generation.

    ``lookup(corpus)`` returns ``(instance, generation)`` for the
    *current* generation — the query service backs it with its corpus
    handles, a backend subprocess with its own engines.  Partitions are
    cached per ``(corpus, generation, groups)`` and older generations
    are dropped on sight, so a hot reload invalidates slices the same
    way it invalidates the result cache.
    """

    def __init__(
        self,
        lookup: Callable[[str], tuple[Instance, int]],
        tracer: Any = None,
        metrics: Any = None,
    ):
        self._lookup = lookup
        self._tracer = tracer
        self._metrics = metrics
        self._lock = threading.Lock()
        #: (corpus, groups) ->
        #:     (generation, partition, evaluator, empty segment | None)
        self._cache: dict[tuple[str, int], list[Any]] = {}

    def slice_for(self, corpus: str, group: int, groups: int) -> ShardSlice:
        if groups < 1 or not (0 <= group < groups):
            raise BackendUnsupportedError(
                f"bad slice request: group {group} of {groups}"
            )
        instance, generation = self._lookup(corpus)
        key = (corpus, groups)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None and cached[0] == generation:
                _, partition, evaluator, empty = cached
            else:
                partition = partition_instance(instance, groups)
                evaluator = Evaluator(tracer=self._tracer, metrics=self._metrics)
                empty = None
                cached = [generation, partition, evaluator, empty]
                self._cache[key] = cached
            if group >= len(partition.segments):
                # A corpus with fewer top-level trees than groups cannot
                # be cut that finely; surplus groups own nothing and
                # answer every query with an empty slice, which keeps
                # placement uniform across corpora of any shape.
                if empty is None:
                    empty = _empty_segment(instance)
                    cached[3] = empty
                segment = empty
            else:
                segment = partition.segments[group]
        return ShardSlice(
            segment=segment,
            group=group,
            groups=groups,
            generation=generation,
            evaluator=evaluator,
        )

    def install(self, corpus: str, generation: int, partition: Partition) -> None:
        """Serve ``corpus`` at ``generation`` from a partition the caller
        already cut, as ``len(partition)`` groups — an engine's own, so
        its instance is partitioned once."""
        evaluator = Evaluator(tracer=self._tracer, metrics=self._metrics)
        with self._lock:
            self._cache[(corpus, len(partition))] = [
                generation, partition, evaluator, None
            ]

    def shard_query(
        self,
        node: str,
        corpus: str,
        group: int,
        groups: int,
        queries: Sequence[str],
        want: str,
        bounds: Mapping[str, int | None],
        deadline: float | None = None,
        floor: int = 0,
    ) -> tuple[BackendResult, Any]:
        """Answer one shard RPC from this provider's slices, as ``node``
        — what an in-process backend and a ``repro serve`` process
        playing backend both do.  Returns the result and the finished
        ``backend.query`` span (``None`` when tracing is off)."""
        slice_ = self.slice_for(corpus, group, groups)
        if floor > 0 and slice_.generation < floor:
            raise ReplicaLaggingError(corpus, slice_.generation, floor)
        with maybe_span(
            self._tracer,
            "backend.query",
            node=node,
            corpus=corpus,
            group=group,
            groups=groups,
        ) as span:
            payload, seconds = evaluate_slice(
                slice_, queries, want, bounds, deadline=deadline
            )
        result = BackendResult(
            payload=payload,
            generation=slice_.generation,
            seconds=seconds,
            node=node,
        )
        return result, span

    def group_checksums(
        self, corpus: str, groups: int
    ) -> tuple[int, dict[int, str]]:
        """``(generation, {group: content checksum})`` over all
        ``groups`` slices of ``corpus`` — what the anti-entropy sweep
        compares between the frontier and its replicas."""
        generation = self._lookup(corpus)[1]
        checksums: dict[int, str] = {}
        for group in range(groups):
            slice_ = self.slice_for(corpus, group, groups)
            generation = slice_.generation
            checksums[group] = slice_checksum(slice_)
        return generation, checksums

    def invalidate(self, corpus: str) -> None:
        """Drop every cached partition of ``corpus``.

        The generation check on lookup already catches normal churn;
        this exists for the one case content changes *without* a bump —
        a replication snapshot repair re-publishing the same generation
        with corrected regions."""
        with self._lock:
            for key in [k for k in self._cache if k[0] == corpus]:
                del self._cache[key]


def _empty_segment(instance: Instance) -> Segment:
    """A segment owning no positions and holding no regions — what a
    surplus group (more groups than top-level trees) evaluates against.
    The inverted ownership span makes ``owns()`` false everywhere, so
    match-point routing keeps nothing either."""
    return Segment(
        index=-1, instance=instance.trees(0, 0), roots=(), own_left=1, own_right=0
    )


def _route_points(slice_: ShardSlice, patterns: set[str]) -> dict[str, RegionSet]:
    """This slice's share of each pattern's occurrences
    (:meth:`~repro.shard.partition.Segment.route`)."""
    if not patterns:
        return {}
    word_index = slice_.segment.instance.word_index
    if not isinstance(word_index, TextWordIndex):
        raise BackendUnsupportedError(
            "match points need a text-backed word index"
        )
    routed: dict[str, RegionSet] = {}
    for pattern in patterns:
        share = slice_.segment.route(word_index.match_points(pattern))
        if share is None:
            # No slice can host the occurrence soundly, so the whole
            # query must go single-process.
            raise BackendUnsupportedError(
                f"occurrence of {pattern!r} spans a partition cut"
            )
        routed[pattern] = share
    return routed


def evaluate_slice(
    slice_: ShardSlice,
    queries: Sequence[str],
    want: str,
    bounds: Mapping[str, int | None],
    deadline: float | None = None,
) -> tuple[list[Any], float]:
    """Evaluate query texts against one slice; the shared core of both
    backend implementations (and of the HTTP server's ``/shard/query``).

    Returns ``(payload, seconds)`` with ``payload`` per
    :class:`BackendResult`.
    """
    if want not in ("sets", "exchange"):
        raise BackendUnsupportedError(f"unknown want {want!r}")
    exprs = [parse(text) for text in queries]
    node_bounds: dict[A.Expr, int | None] = {}
    patterns: set[str] = set()
    for expr in exprs:
        for node in A.walk(expr):
            if isinstance(node, A.MatchPoints):
                patterns.add(node.pattern)
            elif isinstance(node, (A.Preceding, A.Following)):
                if node not in node_bounds:
                    resolved = bounds.get(to_text(node), _UNRESOLVED)
                    if resolved is not _UNRESOLVED:
                        node_bounds[node] = resolved
    points = _route_points(slice_, patterns)
    payload: list[Any] = []
    started = perf_counter()
    for expr in exprs:
        rewritten = rewrite(expr, node_bounds, points)
        result = slice_.evaluator.evaluate(
            rewritten, slice_.segment.instance, deadline=deadline
        )
        if want == "exchange":
            payload.append(list(result.extremes()))
        else:
            payload.append(PairColumns(result))
    return payload, perf_counter() - started


def slice_checksum(slice_: ShardSlice) -> str:
    """A content checksum of one slice's served region data: sha256 of
    the canonical JSON of every region set in the slice's segment
    instance, by name.  Generation-independent — two replicas at
    different generations with identical content compare equal — so the
    anti-entropy sweep flags real divergence, not clock skew."""
    import hashlib
    import json as _json

    instance = slice_.segment.instance
    content = {
        name: instance.region_set(name).pairs() for name in sorted(instance.names)
    }
    canonical = _json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Sentinel distinguishing "no bound sent" from "bound is None (empty)".
_UNRESOLVED = object()
