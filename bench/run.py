"""The benchmark's command line.

``python3 -m bench.run --workload W --seed N --seconds S --trace 0|1``
runs one pass of one workload and prints, as the last line of standard
output, the JSON object the driver reads (``BENCHMARK.json`` names the
metrics: the end-to-end ones with ``--trace 0``, the per-layer ones
with ``--trace 1``).  Without ``--workload`` it runs every workload,
both passes, each in a process of its own so that no run inherits
another's heap; ``--selfcheck`` runs the untraced suite twice and
fails if the two disagree by more than a metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import OUT, ROOT, fixtures, spec


def commit_id() -> str | None:
    """The checkout's commit, when it is a git checkout at all."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_one(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One pass of one workload in this process; returns the run record."""
    sizes = spec.QUICK if quick else spec.FULL
    header = {
        "workload": workload,
        "why": spec.WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": "quick" if quick else "full",
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "claim": None,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="tmp-"))
    try:
        fx = fixtures.make(workload, seed, sizes, scratch)
        if trace:
            from bench.ladder import traced_pass

            record = traced_pass(fx, seconds, out_path(f"trace_{workload}", quick))
        else:
            from bench.measure import measure

            record = measure(fx, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {**header, **record}
    path = out_path(f"run_{workload}_trace{int(trace)}", quick)
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def out_path(stem: str, quick: bool) -> Path:
    """Where a run leaves its record or spans; quick runs (bench/tests)
    keep theirs apart from real ones."""
    return OUT / f"{stem}{'_quick' if quick else ''}.json"


def contract_line(record: dict) -> str:
    """The driver's result object: exactly these four keys."""
    catalogue = spec.PER_LAYER if record["trace"] else spec.END_TO_END
    metrics = {
        name: {"value": record["metrics"][name], "unit": entry["unit"]}
        for name, entry in catalogue.items()
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_record(record: dict) -> None:
    catalogue = spec.PER_LAYER if record["trace"] else spec.END_TO_END
    kind = "per-layer (traced pass)" if record["trace"] else "end-to-end (untraced)"
    print(f"== {record['workload']}: {kind}, seed {record['seed']}, "
          f"{record['seconds']} s, quiet {record['quiet_repetitions']} of "
          f"{record['repetitions']} repetitions, {record['samples']} read samples ==")
    print(f"   {record['why']}")
    for name, entry in catalogue.items():
        value = record["metrics"][name]
        bound = f"  [bound {entry['bound']:.0%}]" if "bound" in entry else ""
        print(f"  {name:<44} {value:>14.4f} {entry['unit']:<6}{bound}")
    print(f"  failed_share {record['failed']}/{record['attempted']}"
          f"   rep_spread {record['rep_spread']:.3f}"
          f"{'   NOISY' if record['noisy'] else ''}")
    print(f"  p50 band is made of {record['p50_band']}; p90 band of {record['p90_band']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def suite(options: argparse.Namespace, traces: tuple[int, ...]) -> list[dict]:
    """Every workload, each pass in a fresh process (no run inherits
    another's heap); output streams through, run records are read back."""
    records = []
    for workload in spec.WORKLOADS:
        for trace in traces:
            command = [sys.executable, "-m", "bench.run", "--workload", workload,
                       "--trace", str(trace), "--seed", str(options.seed),
                       "--seconds", str(options.seconds)]
            subprocess.run(command + ["--quick"] * options.quick, cwd=ROOT, check=True)
            path = out_path(f"run_{workload}_trace{trace}", options.quick)
            records.append(json.loads(path.read_text(encoding="utf-8")))
    return records


def selfcheck(options: argparse.Namespace) -> int:
    """A/A: two untraced suites on the same checkout must agree within
    every end-to-end metric's bound."""
    first, second = suite(options, (0,)), suite(options, (0,))
    offending = []
    print("== selfcheck: run A vs run B ==")
    for a, b in zip(first, second):
        for name, entry in spec.END_TO_END.items():
            x, y = a["metrics"][name], b["metrics"][name]
            gap = abs(x - y) / min(x, y)
            verdict = "ok" if gap <= entry["bound"] else "DIFFERS"
            print(f"  {a['workload'] + '/' + name:<48} {x:>12.4f} {y:>12.4f}"
                  f"  gap {gap:6.2%}  bound {entry['bound']:.0%}  {verdict}")
            if gap > entry["bound"]:
                offending.append(f"{a['workload']}/{name}")
        for record in (a, b):
            if record["noisy"]:
                print(f"  noisy run: {record['workload']} "
                      f"rep_spread {record['rep_spread']:.3f}")
            if record["failed"]:
                offending.append(f"{record['workload']}/failed_share")
    if offending:
        print("selfcheck FAILED: " + ", ".join(offending))
        return 1
    print("selfcheck passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for bench/tests only")
    parser.add_argument("--selfcheck", action="store_true")
    options = parser.parse_args(argv)
    if options.selfcheck:
        return selfcheck(options)
    if options.workload is None:
        traces = (0, 1) if options.trace is None else (options.trace,)
        records = suite(options, traces)
        print(json.dumps({f"{r['workload']}/trace{int(r['trace'])}":
                          json.loads(contract_line(r)) for r in records}))
        return 0
    record = run_one(options.workload, options.seed, options.seconds,
                     bool(options.trace), options.quick)
    print_record(record)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
