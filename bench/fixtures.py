"""Fixture generation, run as a child process of the measuring process.

``python3 -m bench.fixtures <workload> <seed> <full|quick> <dir>`` writes
the workload's corpus text, its saved index and ``manifest.json`` with the oracle's answers into
``<dir>``.  It is a separate process so that parsing, indexing and the
quadratic oracle never touch the measuring process's heap: its
``peak_rss_mb`` and set-up times are those of a process that only
loads and serves.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from bench import ROOT
from bench.spec import FULL, QUICK, Sizes

#: Workloads over the big many-play corpus (their set-up loads its
#: saved index; the others parse their text).
BIG_CORPUS = ("eval_mix", "serve_sharded")


@dataclass(frozen=True)
class Fixture:
    workload: str
    seed: int
    sizes: Sizes
    directory: Path
    text_bytes: int
    oracle: dict[str, tuple[int, str]]

    @property
    def text_path(self) -> Path:
        return self.directory / "corpus.txt"

    @property
    def index_path(self) -> Path:
        return self.directory / "corpus.index.json"


def corpus_text(workload: str, seed: int, sizes: Sizes) -> str:
    from repro.workloads.corpora import generate_play

    rng = random.Random(f"{seed}/corpus")
    if workload == "serve_http":
        return generate_play(rng, *sizes.http_play_shape)
    plays = sizes.plays if workload in BIG_CORPUS else sizes.ingest_plays
    # Many roots, not one: a single <play> root partitions into one
    # segment and the sharded path silently falls back to unsharded.
    return "\n".join(generate_play(rng, *sizes.play_shape) for _ in range(plays))


def build(workload: str, seed: int, sizes: Sizes, directory: Path) -> None:
    """Child-side: write corpus, index and manifest into ``directory``."""
    from repro import Engine

    from bench.oracle import expected_answers

    text = corpus_text(workload, seed, sizes)
    (directory / "corpus.txt").write_text(text, encoding="utf-8")
    engine = Engine.from_tagged_text(text)
    engine.save(directory / "corpus.index.json")
    oracle = {}
    if workload != "ingest_mixed":  # its corpus changes with every commit
        oracle = expected_answers(engine.instance)
    manifest = {"text_bytes": len(text.encode("utf-8")), "oracle": oracle}
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def make(workload: str, seed: int, sizes: Sizes, directory: Path) -> Fixture:
    """Parent-side: build the fixture in a child process and load it."""
    subprocess.run(
        [
            sys.executable,
            "-m",
            "bench.fixtures",
            workload,
            str(seed),
            "quick" if sizes is QUICK else "full",
            str(directory),
        ],
        cwd=ROOT,
        check=True,
    )
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    return Fixture(
        workload=workload,
        seed=seed,
        sizes=sizes,
        directory=directory,
        text_bytes=manifest["text_bytes"],
        oracle={k: (v[0], v[1]) for k, v in manifest["oracle"].items()},
    )


if __name__ == "__main__":
    _workload, _seed, _sizes, _directory = sys.argv[1:5]
    build(_workload, int(_seed), QUICK if _sizes == "quick" else FULL, Path(_directory))
