"""The query engine facade.

:class:`Engine` bundles an instance, its source text (when available),
an optional RIG, and the evaluator/optimizer into the interface a text
retrieval system exposes:

* ``query("Name within Proc_header within Proc")`` — parse, (optionally)
  optimize, evaluate;
* ``match_points('x*')`` — the PAT word index as a region set;
* ``define_view`` — named derived sets.  The full PAT algebra constructs
  region sets dynamically; the paper treats those as *views* (footnote
  1), and views here are macro-expanded into queries before evaluation
  so the hierarchy of the base index is never disturbed;
* ``extract`` — the raw text a result region covers;
* ``explain`` — the plan: parsed form, optimized form, cost estimates;
* ``save``/``load`` — index persistence.

Every engine carries a :class:`~repro.obs.Telemetry` bundle: metrics
and the query log are always on (cheap), span tracing is off until
:meth:`Engine.enable_tracing`.  ``query`` and ``explain`` share one
plan-construction path (:meth:`Engine.plan`), so the plan the optimizer
explains is exactly the plan the evaluator runs, and both calls append
a structured record — plan, cardinality, wall time, memo hits,
estimated-vs-actual cardinality error — to ``engine.query_log``.
:meth:`Engine.telemetry` snapshots all of it as plain JSON-ready data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.algebra import ast as A
from repro.algebra.cost import CostModel
from repro.algebra.evaluator import CancelToken, EvalStats, Evaluator
from repro.algebra.parser import parse
from repro.algebra.printer import to_text
from repro.core.instance import Instance
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.errors import EvaluationError, UnknownRegionNameError
from repro.faults import registry as _faults
from repro.obs import Telemetry
from repro.obs.metrics import INDEX_BUILD_SECONDS
from repro.obs import context as _trace_context
from repro.obs.querylog import QueryLog, QueryRecord
from repro.obs.trace import Tracer, maybe_span
from repro.optimize.optimizer import optimize
from repro.rig.graph import RegionInclusionGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pieces import Assembly, PieceReader
    from repro.ingest.live import LiveCorpus

__all__ = ["Engine", "QueryPlan"]


@dataclass(frozen=True)
class QueryPlan:
    """What ``explain`` returns: the plan for one query.

    ``program`` is the listing of the :mod:`repro.vm` program the
    optimized expression lowers to (one line per instruction);
    ``compiled`` is true of every plan an engine builds and stays in the
    ``explain`` envelope for its readers.  Both are deterministic
    functions of the plan, so two ``explain`` calls for the same query
    compare equal regardless of what the caches did in between.
    """

    original: A.Expr
    optimized: A.Expr
    original_cost: float
    optimized_cost: float
    steps: tuple[str, ...]
    compiled: bool = False
    program: tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - display helper
        lines = [
            f"query:     {to_text(self.original)}",
            f"plan:      {to_text(self.optimized)}",
            f"cost:      {self.original_cost:.0f} -> {self.optimized_cost:.0f}",
        ]
        if self.steps:
            lines.append(f"rewrites:  {', '.join(self.steps)}")
        if self.compiled:
            lines.append("program:")
            lines.extend(f"  {line}" for line in self.program)
        return "\n".join(lines)


class Engine:
    """A queryable region index (see module docstring)."""

    def __init__(
        self,
        instance: Instance | None,
        text: str | None = None,
        rig: RegionInclusionGraph | None = None,
        telemetry: Telemetry | None = None,
    ):
        self._instance = instance
        self._text = text
        self._rig = rig
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._evaluator = Evaluator(
            tracer=self._telemetry.tracer, metrics=self._telemetry.metrics
        )
        self._views: dict[str, A.Expr] = {}
        self._cost_model: CostModel | None = None
        #: Set, with ``instance`` None, only by :meth:`from_live`.
        self._assembly: "Assembly | None" = None
        self._reader: "PieceReader | None" = None

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------

    @classmethod
    def from_tagged_text(
        cls,
        text: str,
        rig: RegionInclusionGraph | None = None,
        telemetry: Telemetry | None = None,
    ) -> "Engine":
        """Index an SGML-like tagged document."""
        from repro.engine.tagged import parse_tagged_text

        _faults.fire("index.build")
        started = perf_counter()
        document = parse_tagged_text(text)
        engine = cls(
            document.instance,
            text=document.text,
            rig=rig,
            telemetry=telemetry,
        )
        engine._observe_index_build("tagged", perf_counter() - started)
        return engine

    @classmethod
    def from_source(
        cls,
        text: str,
        telemetry: Telemetry | None = None,
    ) -> "Engine":
        """Index toy program source code (Figure 1 structure and RIG)."""
        from repro.engine.sourcecode import parse_source
        from repro.rig.graph import figure_1_rig

        _faults.fire("index.build")
        started = perf_counter()
        document = parse_source(text)
        engine = cls(
            document.instance,
            text=document.text,
            rig=figure_1_rig(),
            telemetry=telemetry,
        )
        engine._observe_index_build("source", perf_counter() - started)
        return engine

    @classmethod
    def load(
        cls,
        path: str | Path,
        rig: RegionInclusionGraph | None = None,
        telemetry: Telemetry | None = None,
    ) -> "Engine":
        from repro.engine.storage import load_instance

        _faults.fire("index.build")
        started = perf_counter()
        instance = load_instance(path)
        engine = cls(instance, rig=rig, telemetry=telemetry)
        engine._observe_index_build("load", perf_counter() - started)
        return engine

    @classmethod
    def from_live(
        cls,
        live: "LiveCorpus",
        rig: RegionInclusionGraph | None = None,
        telemetry: Telemetry | None = None,
        previous: "Engine | None" = None,
    ) -> "Engine":
        """An engine over a live corpus's current generation.

        Every :meth:`query` answers piece by piece from the corpus's
        :attr:`~repro.ingest.live.LiveCorpus.pieces` (see
        :mod:`repro.engine.pieces`); region names, statistics and cost
        estimates come from the pieces too.  The generation's assembled
        instance is built on first demand — by :attr:`instance`
        (navigation, ``save``, slices) or by a read whose misses run
        once over the whole corpus.  ``previous`` is the engine of the
        generation before: its compiled programs and plan shapes carry
        over, since they only name region sets.
        """
        from repro.engine.pieces import PieceReader

        engine = cls(None, rig=rig, telemetry=telemetry)
        engine._assembly = live.assembly
        handed = None
        if previous is not None:
            engine._evaluator.adopt_programs(previous._evaluator)
            handed = previous._reader
        engine._reader = PieceReader(live.assembly, engine._evaluator, handed)
        return engine

    def _observe_index_build(self, kind: str, seconds: float) -> None:
        self._telemetry.metrics.histogram(INDEX_BUILD_SECONDS).observe(
            seconds, kind=kind
        )

    # ------------------------------------------------------------------
    # Accessors.
    # ------------------------------------------------------------------

    @property
    def instance(self) -> Instance:
        """The indexed instance; on a live engine, its generation's
        assembled instance, built on first access."""
        if self._instance is None:
            self._instance = self._assembly.instance(self._telemetry.tracer)
        return self._instance

    @property
    def rig(self) -> RegionInclusionGraph | None:
        return self._rig

    @property
    def text(self) -> str | None:
        """The raw indexed text, when the engine was built from text
        (``None`` for engines loaded from a saved index)."""
        return self._text

    @property
    def region_names(self) -> tuple[str, ...]:
        if self._assembly is not None:
            return self._assembly.names
        return self._instance.names

    def statistics(self) -> dict[str, Any]:
        """Index statistics: per-name cardinalities and nesting depth
        (on a live engine, summed and maxed over its pieces)."""
        regions = self._name_sizes()
        stats = {
            "regions": regions,
            "total": sum(regions.values()),
            "nesting_depth": (
                self._assembly.nesting_depth()
                if self._assembly is not None
                else self._instance.nesting_depth()
            ),
            "views": sorted(self._views),
        }
        if self._reader is not None:
            stats["pieces"] = self._reader.stats()
        return stats

    def close(self) -> None:
        """Release what the engine holds: nothing outside the process's
        own memory, so this is a no-op kept for callers that close
        every engine they build."""

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        return self._telemetry.tracer

    @property
    def metrics(self):
        return self._telemetry.metrics

    @property
    def query_log(self) -> QueryLog:
        return self._telemetry.query_log

    def enable_tracing(self, enabled: bool = True) -> None:
        """Turn span collection on (or back off) for this engine."""
        self._telemetry.enable_tracing(enabled)

    def telemetry(self) -> dict[str, Any]:
        """A JSON-ready snapshot of this engine's metrics, query log,
        and tracing state (see ``docs/observability.md``)."""
        return self._telemetry.snapshot()

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    def query(
        self,
        query: str | A.Expr,
        optimize_query: bool = False,
        deadline: float | None = None,
        cancel: "CancelToken | None" = None,
        text: str | None = None,
    ) -> RegionSet:
        """Evaluate a query (text or expression tree) against the index.

        ``deadline`` (seconds) and ``cancel`` (a
        :class:`threading.Event`-like token) bound the evaluation; see
        :meth:`Evaluator.evaluate`.  A query that runs out of budget
        raises :class:`~repro.errors.QueryTimeout` and is not logged.
        ``text`` is the spelling the query log records for a tree (by
        default its printed form): the text a client sent, when the
        caller has already parsed it.
        """
        tracer = self._telemetry.tracer
        started = perf_counter()
        with maybe_span(tracer, "query", optimize=optimize_query) as root:
            with maybe_span(tracer, "parse"):
                expr = self.prepare(query)
            plan = self._plan(expr) if optimize_query else None
            executed = plan.optimized if plan is not None else expr
            if root is not None:
                root.set("text", to_text(expr))
            if self._reader is not None:
                with maybe_span(
                    tracer, "pieces", pieces=len(self._reader.pieces)
                ):
                    result = self._reader.evaluate(
                        executed, deadline=deadline, cancel=cancel
                    )
            else:
                result = self._evaluator.evaluate(
                    executed, self._instance, deadline=deadline, cancel=cancel
                )
            if root is not None:
                root.set("cardinality", len(result))
        self.record(
            kind="query",
            query=text if text is not None else query,
            executed=executed,
            plan=plan,
            result=result,
            seconds=perf_counter() - started,
            stats=self._evaluator.last_stats,
        )
        return result

    def explain(self, query: str | A.Expr) -> QueryPlan:
        """The optimizer's plan for a query, without running it.

        Built by the same :meth:`plan` path :meth:`query` executes, so
        what is explained is exactly what would run.
        """
        return self.explain_with_caches(query)[0]

    def explain_with_caches(
        self, query: str | A.Expr, text: str | None = None
    ) -> tuple[QueryPlan, dict[str, bool]]:
        """:meth:`explain` plus which engine caches the call hit
        (``text`` as for :meth:`query`).

        The second element reports ``plan_cache_hit`` (the per-engine
        CostModel was already built) and ``program_cache_hit`` (the
        compiled VM program was already cached) *separately* — a
        cost-model hit alone does not mean the query skipped
        compilation.  These are observations about cache state, not
        part of the plan, which stays deterministic.
        """
        plan_cache_hit = self._cost_model is not None
        tracer = self._telemetry.tracer
        started = perf_counter()
        with maybe_span(tracer, "explain"):
            with maybe_span(tracer, "parse"):
                expr = self.prepare(query)
            plan, program_cache_hit = self._plan_ex(expr)
        self.record(
            kind="explain",
            query=text if text is not None else query,
            executed=plan.optimized,
            plan=plan,
            result=None,
            seconds=perf_counter() - started,
            stats=None,
        )
        return plan, {
            "plan_cache_hit": plan_cache_hit,
            "program_cache_hit": program_cache_hit,
        }

    def plan(self, query: str | A.Expr) -> QueryPlan:
        """The plan ``query(..., optimize_query=True)`` would execute."""
        return self._plan(self.prepare(query))

    def normalize(self, query: str | A.Expr) -> str:
        """The canonical text of a query after parsing and view
        expansion — equal for syntactically different spellings of the
        same plan, which makes it the result-cache key the query
        service uses (see ``docs/server.md``)."""
        return to_text(self.prepare(query))

    def _plan(self, expr: A.Expr) -> QueryPlan:
        """The single plan-construction path shared by query/explain."""
        return self._plan_ex(expr)[0]

    def _plan_ex(self, expr: A.Expr) -> tuple[QueryPlan, bool]:
        """Build the plan and report whether its compiled program was
        already cached.  Compiling here warms the evaluator's program
        cache, so ``explain`` → ``query`` executes without recompiling."""
        result = optimize(
            expr,
            rig=self._rig,
            cost_model=self._ensure_cost_model(),
            tracer=self._telemetry.tracer,
        )
        program, program_cached = self._evaluator.compiled_program(
            result.expression
        )
        plan = QueryPlan(
            original=expr,
            optimized=result.expression,
            original_cost=result.original_cost,
            optimized_cost=result.optimized_cost,
            steps=result.steps,
            compiled=True,
            program=program.listing(),
        )
        return plan, program_cached

    def _ensure_cost_model(self) -> CostModel:
        if self._cost_model is None:
            self._cost_model = CostModel.from_sizes(self._name_sizes())
        return self._cost_model

    def _name_sizes(self) -> dict[str, int]:
        """Regions per name, in :attr:`region_names` order."""
        if self._assembly is not None:
            return dict(self._assembly.name_sizes)
        instance = self._instance
        return {name: len(instance.region_set(name)) for name in instance.names}

    def record(
        self,
        kind: str,
        query: str | A.Expr,
        executed: A.Expr,
        plan: QueryPlan | None,
        result: RegionSet | None,
        seconds: float,
        stats: EvalStats | None,
    ) -> None:
        """Log one answered query or explain: append a
        :class:`QueryRecord` stamped with the current trace id.
        :meth:`query` and :meth:`explain` call it; so does a caller that
        answered a plan of this engine's some other way, such as the
        query service's frontier topology."""
        try:
            estimate = self._ensure_cost_model().estimate(executed)
        except TypeError:
            # The cost model covers the core algebra; word queries
            # (match points) and extended nodes fall outside it.
            estimate = None
        cardinality = error = None
        if result is not None:
            cardinality = len(result)
            if estimate is not None:
                error = (
                    abs(estimate.cardinality - cardinality) / max(cardinality, 1)
                )
        self._telemetry.query_log.append(
            QueryRecord(
                kind=kind,
                query=query if isinstance(query, str) else to_text(query),
                plan=to_text(executed),
                optimized=plan is not None,
                seconds=seconds,
                cardinality=cardinality,
                memo_hits=stats.memo_hits if stats is not None else 0,
                nodes_evaluated=stats.nodes_evaluated if stats is not None else 0,
                estimated_cost=estimate.cost if estimate is not None else None,
                estimated_cardinality=(
                    estimate.cardinality if estimate is not None else None
                ),
                cardinality_error=error,
                steps=plan.steps if plan is not None else (),
                timestamp=time.time(),
                trace_id=_trace_context.current_trace_id(),
            )
        )

    def match_points(self, pattern: str) -> RegionSet:
        """The word-index match points of a pattern (PAT word queries)."""
        return self.instance.match_points(pattern)

    def extract(self, region: Region) -> str:
        """The raw text a region covers (requires the source text)."""
        if self._text is None:
            raise EvaluationError("this engine was built without source text")
        return self._text[region.left : region.right + 1]

    def extract_all(self, regions: RegionSet) -> list[str]:
        return [self.extract(r) for r in regions]

    def region_at(self, position: int) -> Region | None:
        """The innermost region covering a text position, if any.

        The navigation primitive an editor needs: "which element is the
        cursor in?".
        """
        best: Region | None = None
        for region in self.instance.all_regions().spanning(position):
            if best is None or best.includes(region):
                best = region
        return best

    def path_at(self, position: int) -> list[tuple[str, Region]]:
        """The chain of (name, region) covering a position, outermost first."""
        innermost = self.region_at(position)
        if innermost is None:
            return []
        instance = self.instance
        forest = instance.forest()
        chain = list(reversed(forest.ancestors_of(innermost))) + [innermost]
        return [(instance.name_of(r), r) for r in chain]

    def outline(self, max_depth: int | None = None) -> str:
        """An indented dump of the region tree (names and spans)."""
        instance = self.instance
        forest = instance.forest()
        lines: list[str] = []
        for region in forest.preorder:
            depth = forest.depth_of(region)
            if max_depth is not None and depth >= max_depth:
                continue
            name = instance.name_of(region)
            lines.append(f"{'  ' * depth}{name} [{region.left},{region.right}]")
        return "\n".join(lines)

    def keyword_in_context(
        self, pattern: str, width: int = 24
    ) -> list[tuple[Region, str]]:
        """KWIC lines: each match point with ``width`` characters of
        context on both sides (requires the source text)."""
        if self._text is None:
            raise EvaluationError("this engine was built without source text")
        out: list[tuple[Region, str]] = []
        for point in self.match_points(pattern):
            left = max(point.left - width, 0)
            right = min(point.right + width, len(self._text) - 1)
            snippet = self._text[left : right + 1].replace("\n", " ")
            out.append((point, snippet))
        return out

    # ------------------------------------------------------------------
    # Views (footnote 1: dynamic region sets as views).
    # ------------------------------------------------------------------

    def define_view(self, name: str, query: str | A.Expr) -> None:
        """Register a named view; queries may use it like a region name."""
        if name in self.region_names:
            raise EvaluationError(
                f"view name {name!r} collides with a region name"
            )
        expr = parse(query) if isinstance(query, str) else query
        self._check_names(expr, allow_view=name)
        self._views[name] = expr

    def prepare(self, query: str | A.Expr) -> A.Expr:
        """The tree a query evaluates as: parsed (when given as text),
        views expanded, every region name checked.  Every method that
        takes a query also takes this tree, so a caller that needs it
        more than once — the query service, for its cache key — parses
        once."""
        expr = parse(query) if isinstance(query, str) else query
        expr = self._expand_views(expr, frozenset())
        self._check_names(expr)
        return expr

    def _expand_views(self, expr: A.Expr, expanding: frozenset[str]) -> A.Expr:
        if isinstance(expr, A.NameRef) and expr.name in self._views:
            if expr.name in expanding:
                raise EvaluationError(f"view {expr.name!r} is self-referential")
            return self._expand_views(
                self._views[expr.name], expanding | {expr.name}
            )
        for i, child in enumerate(A.children(expr)):
            new = self._expand_views(child, expanding)
            if new != child:
                expr = A.replace_child(expr, i, new)
        return expr

    def _check_names(self, expr: A.Expr, allow_view: str | None = None) -> None:
        known = set(self.region_names) | set(self._views)
        for name in A.region_names(expr):
            if name not in known and name != allow_view:
                raise UnknownRegionNameError(name, tuple(sorted(known)))

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        from repro.engine.storage import save_instance

        save_instance(self.instance, path)
