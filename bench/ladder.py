"""The traced pass: replay requests rung by rung for per-layer numbers.

Nothing inside ``src/`` is instrumented.  For every request of
``ladder_blocks`` cycles the harness makes the workload's real
top-level call inside a span, then replays — standalone, same query,
same corpus — the public call each layer below would make, each in a
span whose parent is its caller's span (see :mod:`bench.trace`).  A
layer's number is its span's self time.  Layers a workload's requests
never reach report 0 there.

A short untraced run comes first, so that tracing overhead and the
*ladder closure* — the layers' summed self times over the untraced
request time — are both measured against requests nobody was watching.
"""

from __future__ import annotations

import gc
import json
import statistics
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro import Engine
from repro.algebra import ast as A
from repro.algebra.cost import CostModel
from repro.algebra.evaluator import Evaluator
from repro.algebra.parser import parse
from repro.algebra.printer import to_text
from repro.backend.base import ShardBackend, SliceProvider, evaluate_slice
from repro.backend.frontier import BackendNode, FrontierExecutor
from repro.backend.inprocess import InProcessBackend
from repro.core.region import Region
from repro.core.regionset import RegionSet
from repro.engine.storage import load_instance, save_instance
from repro.engine.tagged import parse_tagged_text
from repro.faults.retry import CircuitBreaker
from repro.ingest.live import LiveCorpus
from repro.ingest.wal import WriteAheadLog
from repro.obs.metrics import MetricsRegistry
from repro.optimize.optimizer import optimize
from repro.shard.executor import ShardExecutor
from repro.shard.merge import merge_region_sets
from repro.shard.partition import partition_instance
from repro.shard.rewrite import rewrite
from repro.vm import kernels
from repro.vm.compiler import compile_expr
from repro.vm.machine import execute

from bench import stats
from bench.fixtures import Fixture
from bench.measure import Cycle, check_reply, run_cycles, set_up, summarize
from bench.spec import CORPUS, MIX16, PER_LAYER, QUERIES
from bench.trace import Span, Tracer, layer_seconds, self_seconds
from bench.workloads import (
    EvalMix,
    IngestMixed,
    ServeHttp,
    ServeSharded,
    Workload,
    file_size,
)

UNTRACED_SHARE = 0.25  #: of ``--seconds``, spent untraced before the ladder
GROUPS = 2  #: shard groups, as the serve_sharded service is configured
PROBE_REPEATS = 3  #: repeats of each once-per-run probe (median reported)
KERNELS = ("including", "included_in", "union", "intersection",
           "difference", "preceding", "select")


def mix_weighted(per_template: Mapping[str, float]) -> float:
    """A per-request mean from per-template values, by ``mix16`` shares."""
    return sum(per_template[t] * w for t, (_, w) in MIX16.items()) / 16


class RecordingBackend(ShardBackend):
    """A backend that notes what the frontier asks of it, then asks the
    real one — so the same calls can be replayed standalone."""

    def __init__(self, inner: ShardBackend, calls: list[tuple]):
        self.inner = inner
        self.node_id = inner.node_id
        self.calls = calls

    def shard_query(self, corpus, group, groups, queries, want, bounds,
                    deadline=None, trace=None, floor=0):
        self.calls.append((group, list(queries), want, dict(bounds)))
        return self.inner.shard_query(
            corpus, group, groups, queries, want, bounds,
            deadline=deadline, trace=trace, floor=floor,
        )


class Ladder:
    """One traced pass over one workload's live context ``ctx``."""

    def __init__(self, ctx: Workload, fx: Fixture):
        self.ctx = ctx
        self.fx = fx
        self.attempted = 0
        self.failures: list[str] = []
        self.exact: dict[str, float] = {}  #: counts that repeat exactly
        self.forget()
        self.text = fx.text_path.read_text(encoding="utf-8")
        # Rungs below the service run on the harness's own engine over
        # the same corpus (the service keeps its engine private).
        if isinstance(ctx, EvalMix):
            self._use(ctx.engine)
        elif isinstance(ctx, IngestMixed):
            self._start_mirror(ctx)
        else:
            self._use(Engine(load_instance(fx.index_path)))
        if isinstance(ctx, ServeSharded):
            self._start_frontier()

    def forget(self) -> None:
        """Drop what has been recorded (after the priming cycle)."""
        self.tracer = Tracer()
        self.requests = 0
        self.envelopes: list[dict[str, Any]] = []  #: service replies seen
        self.acks: list[dict[str, Any]] = []
        self.counts: dict[str, list[float]] = {}

    def _use(self, engine: Engine) -> None:
        self.engine = engine
        engine.instance.forest()  # as the service warms what it installs
        self.evaluator = Evaluator()
        self.cost_model = CostModel.from_instance(engine.instance)

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    # The pass: cycles of requests, top rung first.
    # ------------------------------------------------------------------

    def run(self, schedule: Iterator[list[str]], cycles: int) -> None:
        """Each cycle: every top-level call back to back, exactly as the
        untraced loop makes them, and only then the replays beneath
        each — so the top rung runs in the cache state of a real cycle."""
        ctx, span = self.ctx, self.tracer.span
        root_name = {
            EvalMix: "engine.session.query",
            ServeHttp: "server.http.roundtrip",
        }.get(type(ctx), "server.service.execute")
        for _ in range(cycles):
            templates = [t for _ in range(ctx.cycle_blocks) for t in next(schedule)]
            ops = ctx.next_ops()
            roots = []
            for template in templates:
                self.requests += 1
                with span(root_name, request=self.requests) as root:
                    try:
                        reply = ctx.read(template)
                    except Exception as exc:  # noqa: BLE001 - counted below
                        reply = exc
                roots.append((template, root, reply))
            if ops is not None:
                self.requests += 1
                with span("server.service.ingest", request=self.requests) as ingest:
                    try:
                        ack = ctx.commit(ops)[0]
                    except Exception as exc:  # noqa: BLE001 - counted below
                        ack = exc
            self.attempted += len(templates) + (ops is not None)
            for template, root, reply in roots:
                problem = check_reply(ctx, template, reply, self.fx.oracle)
                if problem is None:
                    self.beneath(template, root, reply)
                else:
                    self.failures.append(problem)
            if ops is not None:
                self.commit_rungs(ops, ingest, ack)
            self.kernel_probes()

    def beneath(self, template: str, root: Span, reply: Any) -> None:
        """Replay what one answered request did beneath its top rung."""
        ctx, span = self.ctx, self.tracer.span
        self.count(f"mix.{template}", root.seconds * 1e3)
        if isinstance(ctx, EvalMix):
            self.engine_rungs(template, root, root_is_engine=True)
            return
        service_span = root
        if isinstance(ctx, ServeHttp):
            _, body = reply
            self.count("http_self_ms", (root.seconds - json.loads(body)["seconds"]) * 1e3)
            self.count("http_bytes", len(body))
            with span("server.service.execute", root) as service_span:
                envelope = ctx.service.execute(QUERIES[template], use_cache=False)
            with span("server.http.json_encode"):
                json.dumps(envelope)
        elif isinstance(ctx, IngestMixed):
            envelope = reply[0]
        else:
            envelope = reply
        # Keep the envelope's numbers, not its regions: thousands of live
        # pair lists would make every later collection slower.
        self.count("envelope_bytes", len(json.dumps(envelope)))
        self.envelopes.append({k: v for k, v in envelope.items() if k != "regions"})
        if envelope["cached"]:
            return  # a hit ends in the service: nothing beneath to replay
        if isinstance(ctx, ServeSharded):
            self.sharded_rungs(template, service_span)
            self.engine_rungs(template, None)  # the unsharded reference
        else:
            self.engine_rungs(template, service_span)

    # ------------------------------------------------------------------
    # Rungs every workload shares: engine -> parser, evaluator -> vm.
    # ------------------------------------------------------------------

    def engine_rungs(
        self, template: str, parent: Span | None, root_is_engine: bool = False
    ) -> None:
        """``Engine.query`` and the public calls beneath it.  Without a
        parent they are probes, part of no request's tree."""
        span, query, instance = self.tracer.span, QUERIES[template], self.engine.instance
        engine_span = parent
        if not root_is_engine:
            with span("engine.session.query", parent) as engine_span:
                self.engine.query(query)
        with span("algebra.parser.parse", engine_span):
            expr = parse(query)
        self.count("program_cache_hit", self.evaluator.program_cached(expr))
        with span("algebra.evaluator.evaluate", engine_span) as evaluate_span:
            result = self.evaluator.evaluate(expr, instance)
        program, _ = self.evaluator.compiled_program(expr)
        with span("vm.machine.execute", evaluate_span):
            execute(program, instance)
        # Probes: work a warm request does not do.
        with span("optimize.optimize"):
            optimize(expr, cost_model=self.cost_model)
        with span("vm.compiler.compile_expr"):
            cold = compile_expr(expr)
        self.count("instrs", cold.size)
        if template == "direct_union":
            with span("core.regionset.materialize"):
                result.regions  # noqa: B018 - the property does the work
        if template == "word_points":
            with span("core.wordindex.match_points"):
                instance.word_index.match_points("love")

    def kernel_probes(self) -> None:
        """Each core kernel once, on named region sets of this corpus."""
        instance = self.engine.instance
        speech, line, speaker = (
            instance.region_set(name) for name in ("speech", "line", "speaker")
        )
        half = RegionSet(list(speech)[::2])
        matches = instance.matches
        calls: dict[str, Callable[[], Any]] = {
            "including": lambda: kernels.including(speech, line),
            "included_in": lambda: kernels.included_in(line, speech),
            "union": lambda: kernels.union(speech, line),
            "intersection": lambda: kernels.intersection(speech, half),
            "difference": lambda: kernels.difference(speech, half),
            "preceding": lambda: kernels.preceding(speaker, line),
            "select": lambda: kernels.select(line, lambda r: matches(r, "love")),
        }
        for name in KERNELS:
            with self.tracer.span(f"vm.kernels.{name}"):
                calls[name]()

    def exact_counts(self) -> None:
        """Evaluation nodes and operand regions per query."""
        observed = Evaluator(metrics=MetricsRegistry())
        instance = self.engine.instance
        nodes, operands = {}, {}
        for template, query in QUERIES.items():
            expr = parse(query)
            observed.evaluate(expr, instance)
            nodes[template] = observed.last_stats.nodes_evaluated
            operands[template] = sum(
                len(self.evaluator.evaluate(child, instance))
                for node in A.walk(expr)
                for child in A.children(node)
            )
        self.exact["algebra.evaluator.nodes_per_query"] = mix_weighted(nodes)
        self.exact["vm.kernels.operand_regions_per_query"] = mix_weighted(operands)

    # ------------------------------------------------------------------
    # serve_sharded: frontier -> backend -> slice, and the merge.
    # ------------------------------------------------------------------

    def _start_frontier(self) -> None:
        instance = self.engine.instance
        self.provider = SliceProvider(lambda corpus: (instance, 1))
        self.backend = InProcessBackend("replay", self.provider)
        self.calls: list[tuple] = []
        nodes = [
            BackendNode(
                RecordingBackend(InProcessBackend(f"b{i}", self.provider), self.calls),
                CircuitBreaker(),
            )
            for i in range(GROUPS)
        ]
        self.frontier = FrontierExecutor(nodes, groups=GROUPS)
        self.shards = ShardExecutor(instance, GROUPS, pool="thread")

    def sharded_rungs(self, template: str, parent: Span) -> None:
        span = self.tracer.span
        expr = parse(QUERIES[template])
        self.calls.clear()
        with span("backend.frontier.run", parent) as frontier_span:
            _, run_stats = self.frontier.run(CORPUS, expr)
        self.count("frontier_calls", len(self.calls))
        self.count("frontier_failovers", run_stats.failovers)
        self.count("frontier_hedges", run_stats.hedges)
        finals: dict[int, RegionSet] = {}
        for group, queries, want, bounds in sorted(self.calls, key=lambda c: c[0]):
            # Calls of one scatter phase run side by side in the frontier.
            phase = f"{want}:{'|'.join(queries)}"
            with span("backend.inprocess.shard_query", frontier_span, group=phase) as call:
                answer = self.backend.shard_query(CORPUS, group, GROUPS, queries, want, bounds)
            slice_ = self.provider.slice_for(CORPUS, group, GROUPS)
            with span("backend.base.evaluate_slice", call):
                evaluate_slice(slice_, queries, want, bounds)
            if want == "sets":
                finals[group] = RegionSet(Region(l, r) for l, r in answer.payload[0])
                if group == 0:
                    self._rewrite_probe(expr, bounds, slice_.segment)
        with span("shard.merge.merge_region_sets", frontier_span):
            merge_region_sets([finals[g] for g in sorted(finals)])
        # The thread-pool executor: a rung of the ladder, not a workload.
        with span("shard.executor.run"):
            self.shards.run(expr)
        run = self.shards.last_stats
        self.count("executor_rounds", run.rounds)
        self.count("executor_merge_ms", run.merge_seconds * 1e3)
        if run.fallback:
            self.failures.append(f"{template}: shard executor fell back ({run.fallback})")

    def _rewrite_probe(self, expr: A.Expr, bounds: Mapping[str, Any], segment: Any) -> None:
        """``rewrite`` with what group 0's final scatter resolved."""
        node_bounds = {
            node: bounds[to_text(node)]
            for node in A.walk(expr)
            if isinstance(node, (A.Preceding, A.Following)) and to_text(node) in bounds
        }
        word_index = self.engine.instance.word_index
        points = {
            node.pattern: tuple(
                r for r in word_index.match_points(node.pattern) if segment.owns(r.left)
            )
            for node in A.walk(expr)
            if isinstance(node, A.MatchPoints)
        }
        with self.tracer.span("shard.rewrite.rewrite"):
            rewrite(expr, node_bounds, points)

    # ------------------------------------------------------------------
    # ingest_mixed: a mirror corpus and a shadow WAL replay the commit.
    # ------------------------------------------------------------------

    def _start_mirror(self, ctx: IngestMixed) -> None:
        base = parse_tagged_text(self.text)
        self.mirror = LiveCorpus(base.instance, base.text)
        self.mirror.apply(
            [{"op": "append", "id": i, "text": ctx.texts[i]} for i in ctx.live]
        )
        self.shadow_wal = WriteAheadLog(self.fx.directory / "shadow", CORPUS)
        self._use(Engine(self.mirror.instance))

    def commit_rungs(self, ops: list[dict[str, Any]], ingest: Span, ack: Any) -> None:
        """Replay an acknowledged commit on the mirror and the shadow WAL."""
        ctx, span = self.ctx, self.tracer.span
        if isinstance(ack, Exception):
            self.failures.append(f"commit: {ack!r}")
            return
        self.acks.append(ack)
        with span("ingest.live.prepare_commit", ingest):
            self.mirror.commit(self.mirror.prepare(ops))
        before = file_size(self.shadow_wal.path)
        with span("ingest.wal.append_batch", ingest):
            self.shadow_wal.append_batch(ops)
        self.count("wal_bytes", file_size(self.shadow_wal.path) - before)
        compactions = len(ctx.compact_seconds)
        ctx.maintain()
        if len(ctx.compact_seconds) > compactions:  # keep the mirror in step
            self.mirror.compact()
            self.shadow_wal.truncate()
        self._use(Engine(self.mirror.instance))

    # ------------------------------------------------------------------
    # Once-per-run probes: index build, storage, partition, slices.
    # ------------------------------------------------------------------

    def timed(self, name: str, call: Callable[[], Any]) -> Any:
        out = None
        for _ in range(PROBE_REPEATS):
            with self.tracer.span(name):
                out = call()
        return out

    def storage_probes(self) -> None:
        path = self.fx.directory / "probe.index.json"
        instance = self.engine.instance
        text = self.ctx.combined_text() if isinstance(self.ctx, IngestMixed) else self.text
        self.timed("engine.tagged.parse_tagged_text", lambda: parse_tagged_text(text))
        self.timed("engine.storage.save_instance", lambda: save_instance(instance, path))
        self.timed("engine.storage.load_instance", lambda: load_instance(path))
        self.exact["engine.storage.index_bytes"] = float(file_size(path))
        if isinstance(self.ctx, ServeSharded):
            partition = self.timed(
                "shard.partition.partition_instance",
                lambda: partition_instance(instance, GROUPS),
            )
            self.exact["shard.partition.segments"] = float(len(partition))
            self.timed(
                "backend.base.slice_for",
                lambda: SliceProvider(lambda corpus: (instance, 1)).slice_for(CORPUS, 0, GROUPS),
            )

    def close(self) -> None:
        if isinstance(self.ctx, ServeSharded):
            self.frontier.close()
            self.shards.close()


def traced_pass(fx: Fixture, seconds: float, trace_path: Path) -> dict[str, Any]:
    """Set up once, run a short untraced loop, then the ladder."""
    sizes = fx.sizes
    schedule = stats.blocks(fx.seed)
    ctx, _, warm = set_up(fx, schedule)
    try:
        gc.collect()
        gc.freeze()
        warm_up = run_cycles(ctx, schedule, fx.oracle, ctx.warmup_seconds)
        untraced = run_cycles(ctx, schedule, fx.oracle, seconds * UNTRACED_SHARE)
        quiet = summarize(untraced)
        ladder = Ladder(ctx, fx)
        try:
            # One cycle unrecorded, so that everything the ladder builds
            # lazily (slices, compiled programs, pools) exists and can be
            # frozen too; left unfrozen it slows every later collection.
            ladder.run(schedule, 1)
            ladder.forget()
            gc.collect()
            gc.freeze()
            ladder.run(schedule, sizes.ladder_blocks)
            ladder.exact_counts()
            ladder.storage_probes()
            metrics = layer_metrics(ladder, untraced, quiet)
        finally:
            ladder.close()
    finally:
        gc.unfreeze()
        ctx.close()
    ladder.tracer.dump(trace_path, workload=fx.workload, seed=fx.seed)
    checked = [warm, *warm_up, *untraced]
    failures = [f for c in checked for f in c.failures] + ladder.failures
    return {
        "metrics": metrics,
        "attempted": sum(c.attempted for c in checked) + ladder.attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "spans": len(ladder.tracer.spans),
        "trace_file": str(trace_path),
        **quiet,
    }


def layer_metrics(
    ladder: Ladder, untraced: Sequence[Cycle], quiet: Mapping[str, Any]
) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; 0 where the layer is
    not on this workload's request path.  ``quiet`` is the summary of
    the ``untraced`` cycles that ran ahead of the ladder."""
    tracer, ctx = ladder.tracer, ladder.ctx
    own = self_seconds(tracer.spans)
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(ladder.exact)

    def mean_ms(name: str) -> float:
        """Mean duration of the spans called ``name``."""
        values = [s.seconds for s in tracer.named(name)]
        return statistics.fmean(values) * 1e3 if values else 0.0

    def median_ms(name: str) -> float:
        values = [s.seconds for s in tracer.named(name)]
        return statistics.median(values) * 1e3 if values else 0.0

    def self_ms(name: str) -> float:
        """Mean self time of the spans called ``name``; a layer whose
        replays outran their caller on average (an inversion) reports 0."""
        values = [own[s.id] for s in tracer.named(name)]
        return max(0.0, statistics.fmean(values)) * 1e3 if values else 0.0

    def counted(name: str) -> float:
        values = ladder.counts.get(name, [])
        return statistics.fmean(values) if values else 0.0

    for template in QUERIES:
        values = ladder.counts.get(f"mix.{template}", [])
        out[f"mix.{template}_ms"] = statistics.median(values) if values else 0.0
    out["algebra.parser.parse_us"] = mean_ms("algebra.parser.parse") * 1e3
    out["optimize.optimize_us"] = mean_ms("optimize.optimize") * 1e3
    out["vm.compiler.compile_us"] = mean_ms("vm.compiler.compile_expr") * 1e3
    out["vm.compiler.instrs_per_query"] = counted("instrs")
    out["algebra.evaluator.program_cache_hit_share"] = counted("program_cache_hit")
    out["vm.machine.execute_ms"] = mean_ms("vm.machine.execute")
    out["algebra.evaluator.evaluate_ms"] = mean_ms("algebra.evaluator.evaluate")
    for kernel in KERNELS:
        out[f"vm.kernels.{kernel}_ms"] = median_ms(f"vm.kernels.{kernel}")
    out["core.wordindex.match_points_ms"] = mean_ms("core.wordindex.match_points")
    out["core.regionset.materialize_ms"] = mean_ms("core.regionset.materialize")
    out["engine.session.query_self_us"] = self_ms("engine.session.query") * 1e3
    out["engine.tagged.index_build_s"] = median_ms("engine.tagged.parse_tagged_text") / 1e3
    out["engine.storage.load_s"] = median_ms("engine.storage.load_instance") / 1e3
    out["engine.storage.save_s"] = median_ms("engine.storage.save_instance") / 1e3

    if isinstance(ctx, ServeSharded):
        out["shard.partition.partition_ms"] = median_ms("shard.partition.partition_instance")
        out["shard.rewrite.rewrite_us"] = mean_ms("shard.rewrite.rewrite") * 1e3
        out["shard.merge.merge_ms"] = mean_ms("shard.merge.merge_region_sets")
        out["shard.executor.run_ms"] = mean_ms("shard.executor.run")
        out["shard.executor.overhead_ratio"] = (
            out["shard.executor.run_ms"] / out["algebra.evaluator.evaluate_ms"]
        )
        out["shard.executor.exchange_rounds"] = counted("executor_rounds")
        out["shard.executor.merge_ms"] = counted("executor_merge_ms")
        out["backend.base.slice_build_ms"] = median_ms("backend.base.slice_for")
        out["backend.base.evaluate_slice_ms"] = mean_ms("backend.base.evaluate_slice")
        out["backend.inprocess.shard_query_ms"] = mean_ms("backend.inprocess.shard_query")
        out["backend.frontier.self_ms"] = self_ms("backend.frontier.run")
        out["backend.frontier.calls_per_query"] = counted("frontier_calls")
        out["backend.frontier.failovers"] = counted("frontier_failovers")
        out["backend.frontier.hedges"] = counted("frontier_hedges")

    envelopes = ladder.envelopes
    if envelopes:
        misses = [e for e in envelopes if not e["cached"]]
        out["server.service.execute_ms"] = statistics.fmean(
            e["seconds"] for e in envelopes) * 1e3
        out["server.service.self_ms"] = statistics.fmean(
            e["seconds"] - e["eval_seconds"] - e["queued_seconds"] for e in misses) * 1e3
        out["server.service.envelope_bytes"] = counted("envelope_bytes")
        out["server.pool.queued_ms"] = statistics.fmean(
            e["queued_seconds"] for e in misses) * 1e3
        out["server.pool.rejected"] = float(ctx.service.pool.stats()["rejected"])
    if isinstance(ctx, ServeHttp):
        out["server.http.roundtrip_ms"] = mean_ms("server.http.roundtrip")
        out["server.http.self_ms"] = counted("http_self_ms")
        out["server.http.response_bytes"] = counted("http_bytes")
        out["server.http.json_encode_us"] = mean_ms("server.http.json_encode") * 1e3

    if isinstance(ctx, IngestMixed):
        hits = [e for e in envelopes if e["cached"]]
        acks = ladder.acks
        out["server.cache.hit_share"] = len(hits) / len(envelopes)
        out["server.cache.hit_ms"] = statistics.fmean(e["seconds"] for e in hits) * 1e3
        out["server.cache.invalidated_per_commit"] = statistics.fmean(
            a["cache_invalidated"] for a in acks)
        for name in ("commits_per_s", "commit_p50_ms", "commit_p90_ms"):
            out[f"ingest.{name}"] = quiet["quiet"][f"ingest.{name}"]
        out["ingest.wal_bytes_per_ingested_byte"] = ctx.logged_bytes / ctx.ingested_bytes
        out["ingest.live.prepare_commit_ms"] = mean_ms("ingest.live.prepare_commit")
        out["ingest.live.segments"] = statistics.fmean(a["segments"] for a in acks)
        out["ingest.live.tombstones"] = statistics.fmean(a["tombstones"] for a in acks)
        out["ingest.wal.append_ms"] = mean_ms("ingest.wal.append_batch")
        out["ingest.wal.bytes_per_commit"] = counted("wal_bytes")
        out["server.service.ingest_self_ms"] = self_ms("server.service.ingest")
        out["server.service.compact_ms"] = (
            statistics.fmean(ctx.compact_seconds) * 1e3 if ctx.compact_seconds else 0.0
        )
        out["server.service.compactions"] = float(len(ctx.compact_seconds))

    out["client.cpu_ms_per_query"] = quiet["quiet"]["cpu_ms_per_query"]
    out["client.query_p99_ms"] = quiet["query_p99_ms"]
    out["client.rep_spread"] = quiet["rep_spread"]
    out["client.samples"] = float(quiet["samples"])
    out.update(closure(tracer.spans, untraced))
    return out


def closure(spans: Sequence[Span], untraced: Sequence[Cycle]) -> dict[str, float]:
    """Tracing overhead of the top-level call, and how well the layers'
    self times add up to the request time nobody was tracing."""
    roots = [s for s in spans if s.request is not None and s.parent is None]
    reads = [s.seconds for s in roots if s.name != "server.service.ingest"]
    commits = [s.seconds for s in roots if s.name == "server.service.ingest"]
    quiet_read = statistics.fmean(s for cycle in untraced for s, _ in cycle.reads)
    expected = quiet_read * len(reads)
    if commits:
        expected += len(commits) * statistics.fmean(
            s for cycle in untraced for s in cycle.commits)
    return {
        "bench.trace_overhead_share": 1.0 - quiet_read / statistics.fmean(reads),
        "bench.ladder_closure": sum(
            max(0.0, seconds) for seconds in layer_seconds(list(spans)).values()
        ) / expected,
    }
