"""Command-line interface: index, query, explain, stats, trace, querylog,
serve, loadgen, top, chaos.

A small operational wrapper over :class:`repro.engine.Engine`::

    python -m repro index  document.xml --format tagged -o doc.index.json
    python -m repro query  doc.index.json 'speech containing (speaker @ "ROMEO")'
    python -m repro query  doc.index.json 'Name within Proc' --text src.prog
    python -m repro explain doc.index.json 'Name within Proc_header within Proc'
    python -m repro stats  doc.index.json --telemetry
    python -m repro trace  doc.index.json 'speech within scene'
    python -m repro querylog doc.index.json 'speech' 'scene' --optimize
    python -m repro serve  doc.index.json --port 8600 --workers 4
    python -m repro loadgen --port 8600 --mix play --qps 25 --duration 5
    python -m repro chaos --seed 0 --fault-seconds 4

``serve`` runs the concurrent query service of :mod:`repro.server`
(endpoints, capacity knobs, and cache semantics: ``docs/server.md``);
``loadgen`` replays a named query mix against it and reports
p50/p95/p99 latencies; ``chaos`` runs the self-contained fault-injection
scenario of :mod:`repro.faults.chaos` (see ``docs/robustness.md``) and
exits non-zero if any resilience invariant is violated.

``index --format source`` uses the toy program language (Figure 1
structure); ``explain`` applies the Figure 1 RIG automatically for
source-derived indexes (``--rig figure1``).

The observability commands (``docs/observability.md``) ride on the
engine's telemetry layer: ``trace`` runs one query with span collection
on and prints the span tree (inclusive times, so children sum to at
most their parent); ``querylog`` runs a batch of queries and dumps the
engine's structured query log; ``stats --telemetry`` appends the
metrics snapshot.  All three speak ``--json`` for benchmarks and
scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.engine.session import Engine
from repro.errors import ReproError
from repro.rig.graph import figure_1_rig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Region-algebra text indexing and querying"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    index = commands.add_parser("index", help="build an index from a text file")
    index.add_argument("input", type=Path, help="document to index")
    index.add_argument(
        "--format",
        choices=("tagged", "source"),
        default="tagged",
        help="input format (default: tagged)",
    )
    index.add_argument(
        "-o", "--output", type=Path, required=True, help="index file to write"
    )

    query = commands.add_parser("query", help="run a query against an index")
    query.add_argument("index", type=Path)
    query.add_argument("query", help="region-algebra query text")
    query.add_argument("--optimize", action="store_true", help="optimize first")
    query.add_argument(
        "--rig", choices=("figure1",), help="schema graph for optimization"
    )
    query.add_argument(
        "--text", type=Path, help="original document, to print matched text"
    )
    query.add_argument("--json", action="store_true", help="machine-readable output")
    query.add_argument(
        "--profile",
        action="store_true",
        help="print per-operator cardinalities and timings",
    )
    query.add_argument(
        "--limit",
        type=int,
        default=None,
        help="print at most this many regions (document order)",
    )
    query.add_argument(
        "--annotate",
        action="store_true",
        help="print the whole document with result regions marked "
        "(requires --text)",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=None,
        help="evaluate with sharded scatter-gather over K segments",
    )

    explain = commands.add_parser("explain", help="show the optimizer's plan")
    explain.add_argument("index", type=Path)
    explain.add_argument("query")
    explain.add_argument("--rig", choices=("figure1",), default="figure1")

    stats = commands.add_parser("stats", help="print index statistics")
    stats.add_argument("index", type=Path)
    stats.add_argument("--json", action="store_true")
    stats.add_argument(
        "--telemetry",
        action="store_true",
        help="include the engine's metrics snapshot (index build timings)",
    )
    stats.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition into K shards and report the per-shard summary",
    )

    trace = commands.add_parser(
        "trace", help="run a query with tracing on and print the span tree"
    )
    trace.add_argument("index", type=Path)
    trace.add_argument("query", help="region-algebra query text")
    trace.add_argument("--optimize", action="store_true", help="optimize first")
    trace.add_argument(
        "--rig", choices=("figure1",), help="schema graph for optimization"
    )
    trace.add_argument("--json", action="store_true", help="machine-readable output")

    querylog = commands.add_parser(
        "querylog", help="run queries and dump the structured query log"
    )
    querylog.add_argument("index", type=Path)
    querylog.add_argument("queries", nargs="+", help="queries to run, in order")
    querylog.add_argument("--optimize", action="store_true", help="optimize each")
    querylog.add_argument(
        "--rig", choices=("figure1",), help="schema graph for optimization"
    )
    querylog.add_argument("--json", action="store_true", help="machine-readable output")
    querylog.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="query-log ring-buffer capacity (default: engine default)",
    )

    kwic = commands.add_parser(
        "kwic", help="keyword-in-context lines for a pattern in a document"
    )
    kwic.add_argument("input", type=Path, help="document to search")
    kwic.add_argument("pattern", help="word pattern (literal, prefix*, glob)")
    kwic.add_argument(
        "--format", choices=("tagged", "source"), default="tagged"
    )
    kwic.add_argument("--width", type=int, default=24, help="context width")

    serve = commands.add_parser(
        "serve",
        help="run the concurrent query service (docs/server.md)",
    )
    serve.add_argument(
        "corpora",
        nargs="*",
        type=Path,
        help="index files to serve (name = file stem); see also --synthetic",
    )
    serve.add_argument(
        "--synthetic",
        action="append",
        choices=("play", "dictionary", "report", "source"),
        default=None,
        help="also serve a generated corpus (repeatable)",
    )
    serve.add_argument("--scale", type=int, default=4, help="synthetic size")
    serve.add_argument("--seed", type=int, default=2024)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8600, help="0 = any free port")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="waiting requests beyond which new ones get 429",
    )
    serve.add_argument("--cache-capacity", type=int, default=512)
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=5.0,
        help="default per-query deadline, seconds",
    )
    serve.add_argument(
        "--max-deadline",
        type=float,
        default=60.0,
        help="largest deadline a request may ask for",
    )
    serve.add_argument(
        "--topology",
        default=None,
        metavar="GxR",
        help="serve through a backend topology of G shard groups with R "
        "replicas each, e.g. 2x2 (docs/server.md)",
    )
    serve.add_argument(
        "--backend-mode",
        choices=("inprocess", "http"),
        default="inprocess",
        help="where backend nodes live: this process, or supervised "
        "repro-serve subprocesses",
    )
    serve.add_argument(
        "--backend-nodes",
        type=int,
        default=None,
        help="backend node count (default: the R of --topology)",
    )
    serve.add_argument(
        "--hedge-budget",
        type=float,
        default=0.1,
        help="hedged requests as a fraction of primary calls (0 disables)",
    )
    # Hidden: how a supervisor hands corpora to backend subprocesses.
    serve.add_argument(
        "--corpus-json",
        action="append",
        default=None,
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--ingest",
        action="store_true",
        help="accept writes on POST /ingest (docs/server.md)",
    )
    serve.add_argument(
        "--ingest-dir",
        type=Path,
        default=None,
        help="directory for WALs and checkpoints (default: a temp dir "
        "that vanishes on shutdown)",
    )
    serve.add_argument(
        "--no-ingest-fsync",
        action="store_true",
        help="skip fsync on WAL commits (faster, loses the crash-"
        "durability guarantee; tests only)",
    )
    serve.add_argument(
        "--compaction-interval",
        type=float,
        default=5.0,
        help="seconds between background compactor ticks",
    )
    serve.add_argument(
        "--no-compaction",
        action="store_true",
        help="disable the background compactor (POST /compact still works)",
    )
    serve.add_argument(
        "--no-replication",
        action="store_true",
        help="serve HTTP backends without WAL log shipping; ingest on "
        "remote topologies then answers 409 ingest_unreplicated",
    )
    serve.add_argument(
        "--replication-interval",
        type=float,
        default=2.0,
        help="seconds between anti-entropy sweeps over backend replicas",
    )
    serve.add_argument(
        "--trace", action="store_true", help="collect span trees per request"
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.1,
        help="head-sampling rate for per-operator trace detail (0..1)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    loadgen = commands.add_parser(
        "loadgen", help="replay a query mix against a running server"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--corpus", default=None, help="corpus to query")
    loadgen.add_argument(
        "--mix",
        choices=("play", "source", "dictionary", "report"),
        default=None,
        help="named query mix from repro.workloads",
    )
    loadgen.add_argument(
        "--query",
        action="append",
        default=None,
        help="literal query to add to the mix (repeatable)",
    )
    loadgen.add_argument("--qps", type=float, default=20.0)
    loadgen.add_argument("--duration", type=float, default=3.0)
    loadgen.add_argument("--concurrency", type=int, default=4)
    loadgen.add_argument(
        "--no-cache", action="store_true", help="ask the server to skip its cache"
    )
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument(
        "--ingest-rate",
        type=float,
        default=0.0,
        help="writes per second to POST /ingest alongside the query mix "
        "(0 = read-only; needs a server started with --ingest)",
    )
    loadgen.add_argument("--json", action="store_true")

    ingest = commands.add_parser(
        "ingest",
        help="commit a mutation batch against a running server (docs/server.md)",
    )
    ingest.add_argument("corpus", help="corpus to write to")
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument("--port", type=int, required=True)
    ingest.add_argument(
        "--append",
        action="append",
        nargs=2,
        metavar=("ID", "PATH"),
        default=None,
        help="append the tagged text in PATH as document ID (repeatable)",
    )
    ingest.add_argument(
        "--update",
        action="append",
        nargs=2,
        metavar=("ID", "PATH"),
        default=None,
        help="replace document ID with the tagged text in PATH (repeatable)",
    )
    ingest.add_argument(
        "--delete",
        action="append",
        metavar="ID",
        default=None,
        help="tombstone document ID (repeatable)",
    )
    ingest.add_argument(
        "--ops",
        type=Path,
        default=None,
        help="JSON file holding a full ops list (overrides the flags above)",
    )
    ingest.add_argument("--json", action="store_true")

    compact = commands.add_parser(
        "compact",
        help="merge a corpus's ingest segments and checkpoint its WAL",
    )
    compact.add_argument("corpus", help="corpus to compact")
    compact.add_argument("--host", default="127.0.0.1")
    compact.add_argument("--port", type=int, required=True)
    compact.add_argument("--json", action="store_true")

    backends = commands.add_parser(
        "backends",
        help="show a running server's backend topology (docs/server.md)",
    )
    backends.add_argument("--host", default="127.0.0.1")
    backends.add_argument("--port", type=int, required=True)
    backends.add_argument("--json", action="store_true")

    top = commands.add_parser(
        "top",
        help="live terminal dashboard for a running server (docs/observability.md)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N frames (default: run until ctrl-c)",
    )
    top.add_argument(
        "--json", action="store_true", help="one JSON frame per line"
    )

    chaos = commands.add_parser(
        "chaos",
        help="run the fault-injection scenario (docs/robustness.md)",
    )
    chaos.add_argument(
        "--mode",
        choices=("service", "backend-kill", "ingest", "replication"),
        default="service",
        help="service = fault-point injection against an in-process "
        "service; backend-kill = SIGKILL shard backend subprocesses "
        "under load; ingest = concurrent writes under WAL faults and a "
        "mid-run restart, verified against a rebuilt-from-scratch "
        "oracle; replication = writes against a replicated HTTP "
        "topology with ship faults and a replica SIGKILL, verified for "
        "read-your-writes and bit-identical convergence "
        "(docs/robustness.md)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--scale", type=int, default=2, help="corpus size")
    chaos.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard groups each corpus is scattered over (at least 2)",
    )
    chaos.add_argument("--qps", type=float, default=60.0)
    chaos.add_argument("--concurrency", type=int, default=4)
    chaos.add_argument("--warmup-seconds", type=float, default=1.0)
    chaos.add_argument("--fault-seconds", type=float, default=4.0)
    chaos.add_argument("--recovery-seconds", type=float, default=3.0)
    chaos.add_argument(
        "--fault-rate",
        type=float,
        default=0.05,
        help="probability for the storage fault points; evaluator and "
        "kill rates scale down from it",
    )
    chaos.add_argument(
        "--no-disk-corruption",
        action="store_true",
        help="skip the deliberate on-disk index corruption",
    )
    chaos.add_argument("--json", action="store_true")
    return parser


def _load_engine(path: Path, rig_name: str | None) -> Engine:
    rig = figure_1_rig() if rig_name == "figure1" else None
    return Engine.load(path, rig=rig)


def _shard_executor(engine: Engine, shards: int):
    """``--shards K``: the engine's instance cut into K pieces, recording
    into the engine's telemetry."""
    from repro.shard import ShardExecutor

    return ShardExecutor(
        engine.instance, shards, tracer=engine.tracer, metrics=engine.metrics
    )


def _shard_summary_lines(summary: dict) -> list[str]:
    """Human-readable partition summary for ``query``/``stats``."""
    lines = [
        f"shards: {len(summary['segments'])} segment(s) "
        f"(requested {summary['requested']}), {summary['cuts']} cut(s), "
        f"{len(summary['boundary_regions'])} boundary region pair(s)"
    ]
    for segment in summary["segments"]:
        left, right = segment["span"]
        span = f"[{left if left is not None else '?'},{right if right is not None else '?'}]"
        lines.append(
            f"  shard {segment['index']}: {segment['roots']} root(s), "
            f"{segment['regions']} region(s), spans {span}"
        )
    return lines


def _cmd_index(args: argparse.Namespace) -> int:
    text = args.input.read_text(encoding="utf-8")
    if args.format == "tagged":
        engine = Engine.from_tagged_text(text)
    else:
        engine = Engine.from_source(text)
    engine.save(args.output)
    stats = engine.statistics()
    print(f"indexed {stats['total']} regions -> {args.output}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = _load_engine(args.index, args.rig)
    if getattr(args, "profile", False):
        from repro.algebra.profile import profile

        report = profile(args.query, engine.instance)
        print(report)
        print(
            f"total: {report.total_seconds * 1e6:.0f} µs, "
            f"{report.cache_hits} memo hit(s)"
        )
        return 0
    summary = None
    if args.shards is not None:
        plan = (
            engine.plan(args.query).optimized
            if args.optimize
            else engine.prepare(args.query)
        )
        with _shard_executor(engine, args.shards) as executor:
            result = executor.run(plan)
            summary = executor.summary()
    else:
        result = engine.query(args.query, optimize_query=args.optimize)
    regions = sorted(result, key=lambda r: (r.left, r.right))
    limit = getattr(args, "limit", None)
    shown = regions if limit is None else regions[:limit]
    if args.json:
        print(json.dumps([[r.left, r.right] for r in shown]))
        return 0
    text = args.text.read_text(encoding="utf-8") if args.text else None
    if getattr(args, "annotate", False):
        if text is None:
            print("error: --annotate requires --text", file=sys.stderr)
            return 1
        from repro.core.regionset import RegionSet
        from repro.engine.highlight import annotate

        print(annotate(text, RegionSet(shown)))
        return 0
    print(f"{len(regions)} region(s)")
    if summary is not None:
        for line in _shard_summary_lines(summary):
            print(line)
    regions = shown
    for region in regions:
        if text is not None:
            snippet = text[region.left : region.right + 1]
            snippet = " ".join(snippet.split())
            if len(snippet) > 70:
                snippet = snippet[:67] + "..."
            print(f"  [{region.left},{region.right}] {snippet}")
        else:
            print(f"  [{region.left},{region.right}]")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    engine = _load_engine(args.index, args.rig)
    print(engine.explain(args.query))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    engine = _load_engine(args.index, None)
    stats = engine.statistics()
    if args.shards is not None:
        with _shard_executor(engine, args.shards) as executor:
            stats["shards"] = executor.summary()
    telemetry = getattr(args, "telemetry", False)
    if telemetry:
        stats["telemetry"] = engine.telemetry()
    if args.json:
        print(json.dumps(stats))
        return 0
    print(f"regions: {stats['total']}, nesting depth: {stats['nesting_depth']}")
    for name, count in sorted(stats["regions"].items()):
        print(f"  {name:20s} {count}")
    if "shards" in stats:
        for line in _shard_summary_lines(stats["shards"]):
            print(line)
    if telemetry:
        histograms = stats["telemetry"]["metrics"]["histograms"]
        for label, series in histograms.get("index_build_seconds", {}).items():
            print(
                f"  index build ({label})  {series['sum'] * 1e3:.2f} ms "
                f"over {series['count']} build(s)"
            )
    return 0


def _span_tree_lines(span, depth: int, lines: list[str]) -> None:
    label = span.name
    attrs = span.attributes
    if "cardinality" in attrs:
        label += f" -> {attrs['cardinality']} region(s)"
    lines.append(f"{'  ' * depth}{label}  {span.duration * 1e6:.0f} µs")
    for child in span.children:
        _span_tree_lines(child, depth + 1, lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import span_to_dict

    engine = _load_engine(args.index, args.rig)
    engine.enable_tracing()
    result = engine.query(args.query, optimize_query=args.optimize)
    root = engine.tracer.last_root
    assert root is not None  # tracing was just enabled
    if args.json:
        print(json.dumps(span_to_dict(root)))
        return 0
    lines: list[str] = []
    _span_tree_lines(root, 0, lines)
    print("\n".join(lines))
    eval_spans = [
        s for s in root.walk() if s.name.startswith("eval.")
    ]
    total = root.duration
    evaluated = sum(s.duration for s in root.walk() if s.name == "vm.execute")
    print(
        f"{len(result)} region(s) in {total * 1e6:.0f} µs "
        f"({len(eval_spans)} operator span(s), "
        f"evaluation {evaluated / total * 100 if total else 0:.0f}% of total)"
    )
    return 0


def _cmd_querylog(args: argparse.Namespace) -> int:
    from repro.engine.storage import load_instance
    from repro.obs import Telemetry

    rig = figure_1_rig() if args.rig == "figure1" else None
    if args.capacity is not None and args.capacity < 1:
        print("error: --capacity must be positive", file=sys.stderr)
        return 1
    telemetry = (
        Telemetry(query_log_capacity=args.capacity)
        if args.capacity is not None
        else None
    )
    engine = Engine(load_instance(args.index), rig=rig, telemetry=telemetry)
    for query in args.queries:
        engine.query(query, optimize_query=args.optimize)
    records = [record.to_dict() for record in engine.query_log]
    if args.json:
        print(
            json.dumps(
                {"summary": engine.query_log.summary(), "records": records}
            )
        )
        return 0
    for record in records:
        error = record["cardinality_error"]
        line = (
            f"[{record['kind']}] {record['query']!r} -> plan {record['plan']!r}: "
            f"{record['cardinality']} region(s), "
            f"{record['seconds'] * 1e6:.0f} µs, "
            f"{record['memo_hits']} memo hit(s)"
        )
        if error is not None:
            line += f", card.err {error:.2f}"
        if record.get("trace_id"):
            line += f", trace {record['trace_id']}"
        print(line)
    summary = engine.query_log.summary()
    print(
        f"{summary['retained']} record(s) retained "
        f"({summary['evicted']} evicted, capacity {summary['capacity']})"
    )
    return 0


def _cmd_kwic(args: argparse.Namespace) -> int:
    text = args.input.read_text(encoding="utf-8")
    if args.format == "tagged":
        engine = Engine.from_tagged_text(text)
    else:
        engine = Engine.from_source(text)
    lines = engine.keyword_in_context(args.pattern, width=args.width)
    for point, snippet in sorted(lines, key=lambda pair: pair[0].left):
        print(f"  [{point.left:6d}] …{snippet}…")
    print(f"{len(lines)} occurrence(s) of {args.pattern!r}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.server import CorpusSpec, QueryService, ServerConfig, create_server

    specs = [
        CorpusSpec(name=path.name.split(".")[0], kind="index", path=str(path))
        for path in args.corpora
    ]
    for kind in args.synthetic or ():
        specs.append(
            CorpusSpec(
                name=kind,
                kind="synthetic",
                path=kind,
                seed=args.seed,
                scale=args.scale,
            )
        )
    for raw in args.corpus_json or ():
        # The supervisor's wire format: one CorpusSpec as JSON per flag.
        specs.append(CorpusSpec(**json.loads(raw)))
    if not specs:
        print(
            "error: nothing to serve (pass index files and/or --synthetic)",
            file=sys.stderr,
        )
        return 1
    groups, replicas = 1, 1
    if args.topology is not None:
        try:
            left, _, right = args.topology.lower().partition("x")
            groups, replicas = int(left), int(right)
        except ValueError:
            print(
                f"error: --topology wants GxR (e.g. 2x2), got {args.topology!r}",
                file=sys.stderr,
            )
            return 1
    nodes = args.backend_nodes
    if nodes is None:
        nodes = replicas if args.topology is not None else 0
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_capacity=args.cache_capacity,
        cache_enabled=not args.no_cache,
        default_deadline=args.deadline,
        max_deadline=args.max_deadline,
        tracing=args.trace,
        trace_sample_rate=args.trace_sample,
        corpora=tuple(specs),
        backend_nodes=nodes,
        backend_groups=groups,
        backend_replicas=replicas,
        backend_mode=args.backend_mode,
        backend_hedge_budget=args.hedge_budget,
        ingest_enabled=args.ingest,
        ingest_dir=str(args.ingest_dir) if args.ingest_dir else None,
        ingest_fsync=not args.no_ingest_fsync,
        compaction_enabled=not args.no_compaction,
        compaction_interval=args.compaction_interval,
        replication_enabled=not args.no_replication,
        replication_interval=args.replication_interval,
    )
    service = QueryService(config)
    server = create_server(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    names = ", ".join(service.corpus_names)
    print(
        f"serving {len(specs)} corpus(es) [{names}] on "
        f"http://{args.host}:{server.bound_port}  "
        f"({config.workers} workers, queue {config.queue_depth}, "
        f"cache {'off' if args.no_cache else config.cache_capacity})",
        flush=True,
    )
    if config.backend_nodes:
        print(
            f"backend topology: {config.backend_groups} group(s) x "
            f"{config.backend_replicas} replica(s) on "
            f"{config.backend_nodes} {config.backend_mode} node(s)",
            flush=True,
        )
    if config.ingest_enabled:
        where = config.ingest_dir or "a temporary directory"
        print(
            f"ingest enabled: WALs in {where}, compaction "
            f"{'off' if not config.compaction_enabled else f'every {config.compaction_interval:g}s'}",
            flush=True,
        )
    # serve_forever runs on a helper thread so the main thread can wait
    # for SIGINT/SIGTERM and drive one clean shutdown path for both.
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    thread = server.serve_in_background()
    stop.wait()
    server.stop()
    thread.join(timeout=5.0)
    requests = service.telemetry.metrics.counter("server_requests_total")
    print(f"shut down cleanly after {requests.total():.0f} request(s)")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.server.loadgen import run_load
    from repro.workloads.queries import QUERY_MIXES

    mix: dict[str, str] = {}
    if args.mix:
        mix.update(QUERY_MIXES[args.mix])
    for i, text in enumerate(args.query or ()):
        mix[f"query_{i}"] = text
    if not mix:
        print("error: pass --mix and/or --query", file=sys.stderr)
        return 1
    result = run_load(
        args.host,
        args.port,
        mix,
        corpus=args.corpus,
        qps=args.qps,
        duration=args.duration,
        concurrency=args.concurrency,
        use_cache=not args.no_cache,
        seed=args.seed,
        ingest_rate=args.ingest_rate,
    )
    if args.json:
        print(json.dumps(result.summary()))
    else:
        print(result.format_report())
    # Non-zero exit when nothing succeeded, so smoke scripts fail loudly.
    return 0 if result.status_counts.get("200", 0) > 0 else 1


def _post_json(host: str, port: int, path: str, body: dict) -> tuple[int, dict]:
    """POST a JSON body, returning ``(status, parsed_response)`` —
    error statuses come back as values (their envelope carries the
    machine-readable ``code``), not exceptions."""
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = response.read()
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            parsed = {"error": payload.decode("utf-8", "replace")}
        return response.status, parsed
    finally:
        connection.close()


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.ops is not None:
        ops = json.loads(args.ops.read_text(encoding="utf-8"))
    else:
        ops = []
        for doc_id, path in args.append or ():
            ops.append(
                {
                    "op": "append",
                    "id": doc_id,
                    "text": Path(path).read_text(encoding="utf-8"),
                }
            )
        for doc_id, path in args.update or ():
            ops.append(
                {
                    "op": "update",
                    "id": doc_id,
                    "text": Path(path).read_text(encoding="utf-8"),
                }
            )
        for doc_id in args.delete or ():
            ops.append({"op": "delete", "id": doc_id})
    if not ops:
        print(
            "error: nothing to do (pass --append/--update/--delete or --ops)",
            file=sys.stderr,
        )
        return 1
    status, body = _post_json(
        args.host, args.port, "/ingest", {"corpus": args.corpus, "ops": ops}
    )
    if args.json:
        print(json.dumps(body))
    elif status == 200:
        print(
            f"committed batch {body['batch_seq']} ({body['applied']} op(s)) "
            f"to {body['corpus']}: generation {body['generation']}, "
            f"{body['documents']} live doc(s), {body['segments']} segment(s), "
            f"{body['tombstones']} tombstone(s)"
        )
    else:
        print(
            f"error: {body.get('error')} (code {body.get('code')}, "
            f"http {status})",
            file=sys.stderr,
        )
    return 0 if status == 200 else 1


def _cmd_compact(args: argparse.Namespace) -> int:
    status, body = _post_json(
        args.host, args.port, "/compact", {"corpus": args.corpus}
    )
    if args.json:
        print(json.dumps(body))
    elif status == 200:
        merged = body.get("merged_segments")
        action = (
            f"merged {merged} segment(s), dropped "
            f"{body.get('dropped_tombstones', 0)} tombstone(s)"
            if body["compacted"]
            else "nothing to merge"
        )
        checkpoint = (
            "checkpointed + truncated WAL"
            if body["checkpointed"]
            else "WAL already empty"
        )
        print(f"{body['corpus']}: {action}; {checkpoint}")
    else:
        print(
            f"error: {body.get('error')} (code {body.get('code')}, "
            f"http {status})",
            file=sys.stderr,
        )
    return 0 if status == 200 else 1


def _cmd_backends(args: argparse.Namespace) -> int:
    import urllib.request

    url = f"http://{args.host}:{args.port}/backends"
    with urllib.request.urlopen(url, timeout=5.0) as response:
        info = json.loads(response.read().decode("utf-8"))
    if args.json:
        print(json.dumps(info))
        return 0
    if not info.get("enabled"):
        print("backend topology: disabled (single-process evaluation)")
        return 0
    hedge = info.get("hedge", {})
    print(
        f"backend topology: {info.get('groups')} group(s) x "
        f"{info.get('replicas')} replica(s), mode {info.get('mode')}"
    )
    print(
        f"hedging: budget {hedge.get('budget')} "
        f"(p{int(100 * (hedge.get('quantile') or 0))} trigger, "
        f"{hedge.get('hedges', 0)} hedged / {hedge.get('primaries', 0)} primary)"
    )
    for node in info.get("nodes", ()):
        breaker = node.get("breaker", {})
        latency = node.get("latency_ms", {})
        address = f" {node['address']}" if "address" in node else ""
        print(
            f"  {node.get('node')}{address}: {breaker.get('state', '?')}, "
            f"{node.get('requests', 0)} request(s), "
            f"p50 {latency.get('p50')}ms p95 {latency.get('p95')}ms"
        )
    for process in info.get("processes", ()):
        state = "alive" if process.get("alive") else "dead"
        print(
            f"  process {process.get('node')} pid {process.get('pid')}: "
            f"{state}, {process.get('respawns', 0)} respawn(s)"
        )
    placements = info.get("placement", {})
    for corpus, by_group in sorted(placements.items()):
        owners = ", ".join(
            f"g{group}->{'/'.join(nodes)}"
            for group, nodes in sorted(by_group.items(), key=lambda kv: int(kv[0]))
        )
        print(f"  placement[{corpus}]: {owners}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.server.dashboard import run_top

    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 1
    run_top(
        args.host,
        args.port,
        interval=args.interval,
        iterations=args.iterations,
        json_output=args.json,
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import ChaosConfig, run_chaos

    report = run_chaos(
        ChaosConfig(
            mode=args.mode,
            seed=args.seed,
            scale=args.scale,
            shards=args.shards,
            qps=args.qps,
            concurrency=args.concurrency,
            warmup_seconds=args.warmup_seconds,
            fault_seconds=args.fault_seconds,
            recovery_seconds=args.recovery_seconds,
            fault_rate=args.fault_rate,
            corrupt_disk=not args.no_disk_corruption,
        )
    )
    print(json.dumps(report.summary()) if args.json else report.format_report())
    return 0 if report.ok else 1


_COMMANDS = {
    "index": _cmd_index,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "querylog": _cmd_querylog,
    "kwic": _cmd_kwic,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "ingest": _cmd_ingest,
    "compact": _cmd_compact,
    "backends": _cmd_backends,
    "top": _cmd_top,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
