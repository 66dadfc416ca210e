"""The four workloads: what a set-up builds and what one request is.

Each class is one workload.  Constructing it *is* the set-up the
benchmark times (load or index the corpus, construct the service, bind
the socket); ``read`` is the one call a timed request makes; ``pairs``
turns a reply into ``(left, right)`` pairs for the oracle check and
raises if the reply is not a good answer — it runs outside the timed
interval.  Everything runs in this process with one client thread and
``WORKERS`` server workers, because five processes on two cores is what
made the previous benchmark unrepeatable (see ``bench/README.md``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import tempfile
from time import perf_counter
from typing import Any, Iterable

from repro import Engine
from repro.engine.corpus import DOCUMENT_REGION_NAME
from repro.server.config import CorpusSpec, ServerConfig
from repro.server.http import create_server
from repro.server.service import QueryService
from repro.workloads.corpora import generate_play

from bench.fixtures import Fixture
from bench.spec import CORPUS, QUERIES

WORKERS = 2  #: server-side evaluation threads (= cores of the sandbox)


class BadReply(Exception):
    """A reply that is not a correct answer (counted in ``failed``)."""


class Workload:
    """Shared shape; see the module docstring."""

    cycle_blocks = 1  #: read blocks per cycle (a cycle is the unit timed)
    warmup_seconds = 0.0  #: untimed cycles before measuring (one at least)

    def read(self, template: str) -> Any:
        raise NotImplementedError

    def pairs(self, reply: Any) -> Iterable[Any]:
        raise NotImplementedError

    def next_ops(self) -> list[dict[str, Any]] | None:
        """The commit batch that ends the next cycle (write workloads)."""
        return None

    def commit(self, ops: list[dict[str, Any]]) -> tuple[dict[str, Any], float]:
        raise NotImplementedError

    def maintain(self) -> None:
        """Untimed housekeeping between cycles."""

    def close(self) -> None:
        raise NotImplementedError


class EvalMix(Workload):
    def __init__(self, fx: Fixture):
        self.engine = Engine.load(fx.index_path)

    def read(self, template: str) -> Any:
        return self.engine.query(QUERIES[template])

    def pairs(self, reply: Any) -> Iterable[Any]:
        return reply

    def close(self) -> None:
        self.engine.close()


class ServeSharded(Workload):
    def __init__(self, fx: Fixture):
        self.service = QueryService(
            ServerConfig(
                workers=WORKERS,
                corpora=(CorpusSpec(CORPUS, "index", str(fx.index_path)),),
                backend_nodes=2,
                backend_groups=2,
                backend_mode="inprocess",
            )
        )

    def read(self, template: str) -> Any:
        return self.service.execute(QUERIES[template], use_cache=False)

    def pairs(self, reply: Any) -> Iterable[Any]:
        backend = reply["backend"]
        if "fallback" in backend or backend["groups"] < 2:
            raise BadReply(f"not evaluated by the sharded path: {backend}")
        return reply["regions"]

    def close(self) -> None:
        self.service.close()


class ServeHttp(Workload):
    def __init__(self, fx: Fixture):
        self.service = QueryService(
            ServerConfig(
                workers=WORKERS,
                corpora=(CorpusSpec(CORPUS, "tagged", str(fx.text_path)),),
            )
        )
        self.server = create_server(self.service, port=0)
        self.server.serve_in_background()
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.bound_port
        )
        self.bodies = {
            template: json.dumps({"query": query, "use_cache": False})
            for template, query in QUERIES.items()
        }

    def read(self, template: str) -> Any:
        self.connection.request(
            "POST",
            "/query",
            body=self.bodies[template],
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def pairs(self, reply: Any) -> Iterable[Any]:
        status, body = reply
        if status != 200:
            raise BadReply(f"HTTP {status}: {body[:200]!r}")
        return json.loads(body)["regions"]

    def close(self) -> None:
        self.connection.close()
        self.server.stop()  # also closes the service


class IngestMixed(Workload):
    """Reads with the result cache on, beside commit batches of one
    fixed shape; the live ingested document count never changes."""

    cycle_blocks = 2

    def __init__(self, fx: Fixture):
        sizes = fx.sizes
        self.base_text = fx.text_path.read_text(encoding="utf-8")
        self.ingest_dir = tempfile.mkdtemp(dir=fx.directory, prefix="wal-")
        self.service = QueryService(
            ServerConfig(
                workers=WORKERS,
                corpora=(CorpusSpec(CORPUS, "tagged", str(fx.text_path)),),
                ingest_enabled=True,
                ingest_dir=self.ingest_dir,
                # No timers: compaction happens every ``compact_every``
                # commits, so segment and byte counts repeat exactly.
                compaction_enabled=False,
            )
        )
        # The health monitor scans a sliding window of recent requests on
        # every request, so a cached read gets slower until the window
        # is full; measuring starts once it is, as in a long-lived server.
        if sizes.steady_state:
            self.warmup_seconds = self.service.config.health_window
        self._rng = random.Random(f"{fx.seed}/docs")
        self._doc_shape = sizes.doc_shape
        self._compact_every = sizes.compact_every
        self._next_id = 0
        self.live: list[str] = []  #: ids in assembled (segment) order
        self.texts: dict[str, str] = {}
        self.acked_generation = 0
        self.commits = 0
        self.compact_seconds: list[float] = []
        self.ingested_bytes = 0
        self.logged_bytes = 0  #: WAL + checkpoint bytes written
        while len(self.live) < sizes.ingest_docs:
            self.commit([self._append() for _ in range(sizes.ramp_batch)])
        self.compact()
        self.commits = 0  # the compaction schedule counts loop commits
        self.compact_seconds.clear()

    def _text(self) -> str:
        return generate_play(self._rng, *self._doc_shape)

    def _append(self) -> dict[str, Any]:
        self._next_id += 1
        return {"op": "append", "id": f"doc{self._next_id}", "text": self._text()}

    def next_ops(self) -> list[dict[str, Any]]:
        return [
            self._append(),
            {"op": "update", "id": self.live[len(self.live) // 2], "text": self._text()},
            {"op": "delete", "id": self.live[0]},
        ]

    def commit(self, ops: list[dict[str, Any]]) -> tuple[dict[str, Any], float]:
        """One acknowledged batch and its latency, then the bookkeeping
        that mirrors it (outside the latency)."""
        wal = self._wal_size()
        started = perf_counter()
        ack = self.service.ingest(CORPUS, ops)
        seconds = perf_counter() - started
        self.logged_bytes += self._wal_size() - wal
        self.acked_generation = ack["generation"]
        self.commits += 1
        for op in ops:
            if op["op"] != "append":
                self.live.remove(op["id"])
            if op["op"] != "delete":
                self.live.append(op["id"])
                self.texts[op["id"]] = op["text"]
                self.ingested_bytes += len(op["text"].encode("utf-8"))
        return ack, seconds

    def maintain(self) -> None:
        """Between cycles: the explicit compaction schedule."""
        if self.commits % self._compact_every == 0:
            self.compact()

    def compact(self) -> None:
        summary = self.service.compact(CORPUS)
        self.compact_seconds.append(summary["seconds"])
        snapshot = f"{self.ingest_dir}/{CORPUS}.snapshot.json"
        self.logged_bytes += file_size(snapshot)

    def _wal_size(self) -> int:
        return file_size(f"{self.ingest_dir}/{CORPUS}.wal")

    def read(self, template: str) -> Any:
        # The reply is checked after the cycle's commit, so it carries
        # the generation that was acknowledged when it was *sent*.
        return self.service.execute(QUERIES[template]), self.acked_generation

    def pairs(self, reply: Any) -> Iterable[Any]:
        envelope, acknowledged = reply
        if envelope["generation"] < acknowledged:
            raise BadReply(
                f"read at generation {envelope['generation']} after commit "
                f"{acknowledged} was acknowledged"
            )
        return envelope["regions"]

    def combined_text(self) -> str:
        """The corpus the service should now be serving, rebuilt from
        the acknowledged operations alone (``LiveCorpus`` layout)."""
        tag = DOCUMENT_REGION_NAME
        documents = [f"<{tag}>\n{self.texts[i]}\n</{tag}>" for i in self.live]
        return "\n".join([self.base_text, *documents])

    def close(self) -> None:
        self.service.close()


def file_size(path: str | os.PathLike) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    "eval_mix": EvalMix,
    "serve_sharded": ServeSharded,
    "serve_http": ServeHttp,
    "ingest_mixed": IngestMixed,
}
