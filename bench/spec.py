"""What the benchmark runs: the query mix, the sizes, the metric catalogue.

Metric and workload *names* live in ``BENCHMARK.json`` at the checkout
root (the file the driver reads); this module loads them from there so
the two can never disagree.  ``bench/README.md`` defines each metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from bench import ROOT

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in CATALOGUE["workloads"]}
END_TO_END: dict[str, dict] = {m["name"]: m for m in CATALOGUE["end_to_end"]}
PER_LAYER: dict[str, dict] = {m["name"]: m for m in CATALOGUE["per_layer"]}
RUN_SECONDS: int = CATALOGUE["run_seconds"]

#: ``mix16``: template -> (query text, requests per 16-request block).
#: Template names are part of the benchmark (``mix.<template>_ms``).
MIX16: dict[str, tuple[str, int]] = {
    "contain_order": ("speech containing (speaker before line)", 3),
    "isect_after": ("(speech containing line) isect (speech after scene)", 3),
    "within_chain": ("line within (speech within (scene within act))", 3),
    "direct_union": ("(speech dwithin scene) union (line within speech)", 2),
    "word_points": ('scene containing ("love" within line)', 2),
    "select_except": (
        '(speech containing line) except (speech containing (line @ "love"))',
        2,
    ),
    "bi_scene": ("bi(scene, speaker, line)", 1),
}
QUERIES: dict[str, str] = {name: query for name, (query, _) in MIX16.items()}
BLOCK: tuple[str, ...] = tuple(
    name for name, (_, weight) in MIX16.items() for _ in range(weight)
)

CORPUS = "bench"  #: the served corpus name on every service workload
DEFAULT_SEED = 12


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetition counts.  ``FULL`` is the benchmark;
    ``QUICK`` exists only so ``bench/tests`` run in seconds."""

    plays: int  #: concatenated plays of the eval_mix / serve_sharded corpus
    play_shape: tuple[int, int, int, int]
    http_play_shape: tuple[int, int, int, int]
    ingest_plays: int  #: base plays of the ingest_mixed corpus
    ingest_docs: int  #: live ingested documents (constant through the run)
    ramp_batch: int  #: appends per set-up ramp batch
    doc_shape: tuple[int, int, int, int]
    compact_every: int  #: commits between explicit ``service.compact()``
    setups: int  #: fresh set-ups per run at least (setup_s is their minimum)
    setup_budget_s: float  #: keep setting up (12 at most) while under this
    steady_state: bool  #: warm until the service's sliding windows are full
    ladder_blocks: int  #: cycles replayed rung by rung in the traced pass


FULL = Sizes(
    plays=64,
    play_shape=(3, 3, 6, 3),
    http_play_shape=(4, 4, 8, 3),
    ingest_plays=16,
    ingest_docs=64,
    ramp_batch=8,
    doc_shape=(1, 2, 3, 2),
    compact_every=32,
    setups=5,
    setup_budget_s=3.0,
    steady_state=True,
    ladder_blocks=8,
)
QUICK = Sizes(
    plays=4,
    play_shape=(2, 2, 3, 2),
    http_play_shape=(2, 2, 3, 2),
    ingest_plays=2,
    ingest_docs=8,
    ramp_batch=4,
    doc_shape=(1, 1, 2, 2),
    compact_every=2,
    setups=2,
    setup_budget_s=0.0,
    steady_state=False,
    ladder_blocks=1,
)
