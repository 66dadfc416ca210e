"""``BENCHMARK.json`` obeys the driver's contract, and a run emits
exactly the names it lists."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, spec
from bench.run import contract_line, run_one

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_within_the_contract():
    doc = spec.CATALOGUE
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = spec.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 15) < 3420  # the driver's time cap


def test_every_mix_template_has_its_per_layer_metric():
    for template in spec.MIX16:
        assert f"mix.{template}_ms" in spec.PER_LAYER


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_a_quick_run_emits_exactly_the_catalogued_names(workload):
    for trace, catalogue in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
        record = run_one(workload, seed=5, seconds=0.4, trace=trace, quick=True)
        line = json.loads(contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, record["failures"]
        assert line["attempted"] >= 16
        assert set(line["metrics"]) == set(catalogue)
        for name, entry in line["metrics"].items():
            assert entry["unit"] == catalogue[name]["unit"]
            assert isinstance(entry["value"], (int, float))
        if not trace:
            assert all(entry["value"] > 0 for entry in line["metrics"].values())
    if workload == "serve_sharded":
        assert record["metrics"]["shard.partition.segments"] >= 2
        assert record["metrics"]["backend.frontier.calls_per_query"] >= 2


def test_it_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "eval_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
