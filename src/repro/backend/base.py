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

A group's slice is a :class:`~repro.engine.pieces.Piece` of the cut,
and a backend parses each query text once, into a plan cache shared by
all its slices.  Match points route through the one router,
:meth:`Piece.route <repro.engine.pieces.Piece.route>`: the word index
is position-keyed and shared by every piece of the cut, so a backend
keeps only the occurrences whose left endpoint lies in its piece's
span; an occurrence spanning a cut raises
:class:`~repro.errors.BackendUnsupportedError`, which the frontier
answers with the always-correct local fallback rather than failover
(every replica would refuse identically).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.algebra import ast as A
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.algebra.printer import to_text
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.engine.pieces import Piece
from repro.errors import BackendUnsupportedError, ReplicaLaggingError
from repro.obs.trace import maybe_span
from repro.shard.partition import partition_instance
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

        A non-zero ``floor`` is the read's generation: the one corpus
        generation this answer may come from (the generation the
        frontier stamps on the response and keys its cache by, at or
        after the caller's acknowledged writes).  A backend whose
        replica is at any other generation, behind or already past it,
        raises :class:`~repro.errors.ReplicaLaggingError` — a
        failover-able :class:`~repro.errors.BackendError` — so every
        phase and group of one read answers from one generation.

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
        publishing ``generation`` — the one repair the coordinator
        ships, to a node behind or ahead of the frontier or one whose
        content anti-entropy found diverged."""
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

    ``segment`` is the group's :class:`~repro.engine.pieces.Piece`: a
    restricted sub-instance in the corpus's coordinates whose word index
    is the *full* corpus index (shared by construction — ``W(r, p)`` is
    position-keyed), which is what lets a slice route match points by
    its span without seeing its siblings.  ``plans`` is the provider's
    parse of each query text.
    """

    segment: Piece
    group: int
    groups: int
    generation: int
    evaluator: Evaluator
    plans: "_Plans"


class SliceProvider:
    """Builds and caches :class:`ShardSlice`\\ s per corpus generation.

    ``lookup(corpus)`` returns ``(instance, generation)`` for the
    generation the caller reads — the query service backs it with the
    snapshot the request captured (its own in-process groups) or else
    its corpus handles' current one (remote ``/shard/query`` calls,
    checksums), a :class:`~repro.shard.ShardExecutor` with its one
    instance.  Cuts are cached per ``(corpus, groups)`` for the
    :data:`KEPT_CUTS` most recently cut generations, each with the
    instance object it was cut from, so reads still in flight at G and
    new reads at G+1 after a commit each reuse their own cut.  A
    generation is recut when its instance changes: a replication repair
    that re-publishes the *same* generation with corrected content
    serves a new instance.  Eviction follows cut order, not generation
    number: a snapshot that resets a replica to a lower generation keeps
    its new cut, and a straggling read at an old generation does not
    push out the cuts current reads use.
    """

    #: Generations whose cuts stay cached per ``(corpus, groups)``.
    KEPT_CUTS = 2

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
        #: (corpus, groups) -> {generation: (instance, slices)}
        self._cache: dict[tuple[str, int], dict[int, tuple[Any, ...]]] = {}
        self._plans = _Plans()

    def slice_for(self, corpus: str, group: int, groups: int) -> ShardSlice:
        if groups < 1 or not (0 <= group < groups):
            raise BackendUnsupportedError(
                f"bad slice request: group {group} of {groups}"
            )
        return self._slices(corpus, groups)[group]

    def _slices(self, corpus: str, groups: int) -> tuple[ShardSlice, ...]:
        """All ``groups`` slices of the generation ``lookup`` returns:
        one lookup, and one cut per instance."""
        instance, generation = self._lookup(corpus)
        with self._lock:
            cuts = self._cache.setdefault((corpus, groups), {})
            cached = cuts.get(generation)
            if cached is None or cached[0] is not instance:
                evaluator = Evaluator(tracer=self._tracer, metrics=self._metrics)
                cached = (instance, tuple(
                    ShardSlice(piece, group, groups, generation, evaluator,
                               self._plans)
                    for group, piece in enumerate(
                        partition_instance(instance, groups)
                    )
                ))
                cuts.pop(generation, None)
                cuts[generation] = cached
                for old in list(cuts)[: -self.KEPT_CUTS]:
                    del cuts[old]
        return cached[1]

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
        if floor > 0 and slice_.generation != floor:
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
        compares between the frontier and its replicas.  One lookup:
        every checksum comes from the generation reported."""
        slices = self._slices(corpus, groups)
        return slices[0].generation, {
            slice_.group: slice_checksum(slice_) for slice_ in slices
        }


@dataclass(frozen=True, slots=True)
class _Plan:
    """A query text parsed, with what :func:`evaluate_slice` reads off
    its tree: the match-point patterns, and each distinct ``<``/``>``
    node with its printed text, the key of its bound."""

    expr: A.Expr
    patterns: frozenset[str]
    orders: tuple[tuple[A.Expr, str], ...]

    @classmethod
    def of(cls, text: str) -> "_Plan":
        expr = parse(text)
        nodes = list(A.walk(expr))
        orders = dict.fromkeys(
            node for node in nodes if isinstance(node, (A.Preceding, A.Following))
        )
        return cls(
            expr,
            frozenset(node.pattern for node in nodes if isinstance(node, A.MatchPoints)),
            tuple((node, to_text(node)) for node in orders),
        )


class _Plans:
    """Plans by query text, parsed once: the oldest leaves first once
    :attr:`Evaluator.PROGRAM_CACHE_CAPACITY` are held.  Plans only — a
    plan is a function of its text, never of a slice — so one cache
    serves every slice and generation of a provider."""

    def __init__(self) -> None:
        self._plans: dict[str, _Plan] = {}
        self._lock = threading.Lock()

    def plan(self, text: str) -> _Plan:
        plan = self._plans.get(text)
        if plan is None:
            plan = _Plan.of(text)
            with self._lock:
                plans = self._plans
                if len(plans) >= Evaluator.PROGRAM_CACHE_CAPACITY:
                    del plans[next(iter(plans))]
                plans[text] = plan
        return plan


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
    plans = [slice_.plans.plan(text) for text in queries]
    node_bounds: dict[A.Expr, int | None] = {}
    patterns: set[str] = set()
    for plan in plans:
        patterns |= plan.patterns
        for node, text in plan.orders:
            if text in bounds:
                node_bounds[node] = bounds[text]
    points = slice_.segment.route(patterns) if patterns else {}
    payload: list[Any] = []
    started = perf_counter()
    for plan in plans:
        rewritten = rewrite(plan.expr, node_bounds, points)
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

