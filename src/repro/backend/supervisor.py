"""Spawning, watching, and respawning backend shard subprocesses.

Each backend node is a plain ``repro serve`` process — the same binary,
HTTP server, and query service as the frontier, reached through its
``POST /shard/query`` endpoint.  There is no slice-specific
configuration to ship: a backend builds slices lazily from the
``(group, groups)`` coordinates in each request, so every node can
serve any replica role the ring assigns it, and a frontier restart
never has to re-plan who holds what.

The supervisor owns the children end to end: allocate a port, spawn,
wait for ``/healthz``, and keep a monitor thread watching for exits.  A
child that dies (a crash, or the chaos harness's SIGKILL) is respawned
on the *same* port after ``respawn_delay`` — same port so the frontier's
:class:`~repro.backend.httpclient.HTTPBackend` needs no re-addressing:
its next connection attempt simply succeeds again, and the node's
circuit breaker closes on the first healthy probe.
"""

from __future__ import annotations

import http.client
import json
import socket
import subprocess
import sys
import threading
from time import monotonic, sleep
from typing import Any, Sequence

from repro.errors import BackendError
from repro.server.config import CorpusSpec

__all__ = ["BackendSupervisor"]


def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _corpus_json(spec: CorpusSpec) -> str:
    # ``to_dict()`` omits generator parameters (they are noise in
    # ``/healthz``), but a child must reproduce the corpus exactly.
    return json.dumps({**spec.to_dict(), "seed": spec.seed, "scale": spec.scale})


class _Child:
    """One supervised backend process slot (fixed node id, host, port)."""

    def __init__(self, node_id: str, host: str, port: int):
        self.node_id = node_id
        self.host = host
        self.port = port
        self.process: subprocess.Popen | None = None
        self.respawns = 0


class BackendSupervisor:
    """See the module docstring."""

    def __init__(
        self,
        corpora: Sequence[CorpusSpec],
        count: int,
        host: str = "127.0.0.1",
        workers: int = 2,
        respawn_delay: float = 0.5,
        ready_timeout: float = 20.0,
        extra_args: Sequence[str] = (),
    ):
        if count < 1:
            raise ValueError("the supervisor needs at least one backend")
        self._corpora = list(corpora)
        self._host = host
        self._workers = workers
        self.respawn_delay = respawn_delay
        self.ready_timeout = ready_timeout
        self._extra_args = list(extra_args)
        self._children = [
            _Child(f"b{i}", host, _free_port(host)) for i in range(count)
        ]
        self._lock = threading.Lock()
        self._stopping = False
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------

    def start(self) -> list[tuple[str, str, int]]:
        """Spawn every backend, wait until all are ready, and return
        ``(node_id, host, port)`` triples for the frontier's transports."""
        for child in self._children:
            self._spawn(child)
        for child in self._children:
            self._wait_ready(child)
        self._monitor = threading.Thread(
            target=self._watch, name="repro-backend-supervisor", daemon=True
        )
        self._monitor.start()
        return [(c.node_id, c.host, c.port) for c in self._children]

    def _spawn(self, child: _Child) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            child.host,
            "--port",
            str(child.port),
            "--workers",
            str(self._workers),
        ]
        for spec in self._corpora:
            argv += ["--corpus-json", _corpus_json(spec)]
        argv += self._extra_args
        child.process = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
        )

    def _wait_ready(self, child: _Child) -> None:
        deadline = monotonic() + self.ready_timeout
        while monotonic() < deadline:
            process = child.process
            if process is not None and process.poll() is not None:
                raise BackendError(
                    f"backend {child.node_id} exited with "
                    f"{process.returncode} during startup"
                )
            try:
                connection = http.client.HTTPConnection(
                    child.host, child.port, timeout=1.0
                )
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status in (200, 503):
                        return
                finally:
                    connection.close()
            except (OSError, http.client.HTTPException):
                pass
            sleep(0.05)
        raise BackendError(
            f"backend {child.node_id} ({child.host}:{child.port}) "
            f"not ready within {self.ready_timeout:.0f}s"
        )

    # ------------------------------------------------------------------

    def _watch(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
                dead = [
                    c
                    for c in self._children
                    if c.process is not None and c.process.poll() is not None
                ]
            for child in dead:
                sleep(self.respawn_delay)
                with self._lock:
                    if self._stopping:
                        return
                    # allow_reuse_address on the server side lets the
                    # replacement rebind the same port through TIME_WAIT.
                    self._spawn(child)
                try:
                    self._wait_ready(child)
                except BackendError:
                    continue  # next sweep retries; the slot stays dead
                with self._lock:
                    child.respawns += 1
            sleep(0.2)

    # ------------------------------------------------------------------

    def kill(self, node_id: str) -> None:
        """SIGKILL one backend (the chaos harness's hammer).  The
        monitor thread will respawn it after ``respawn_delay``."""
        child = self._child(node_id)
        if child.process is not None:
            child.process.kill()

    def respawns(self, node_id: str) -> int:
        with self._lock:
            return self._child(node_id).respawns

    def describe(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                {
                    "node": c.node_id,
                    "address": f"{c.host}:{c.port}",
                    "pid": c.process.pid if c.process is not None else None,
                    "alive": c.process is not None and c.process.poll() is None,
                    "respawns": c.respawns,
                }
                for c in self._children
            ]

    def _child(self, node_id: str) -> _Child:
        for child in self._children:
            if child.node_id == node_id:
                return child
        raise KeyError(node_id)

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        for child in self._children:
            process = child.process
            if process is None or process.poll() is not None:
                continue
            process.terminate()
        for child in self._children:
            process = child.process
            if process is None:
                continue
            try:
                process.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=3.0)
