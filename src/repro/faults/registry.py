"""A deterministic, seedable fault-injection registry.

The serving stack is sprinkled with named **fault points** — call sites
that ask the active registry "should something go wrong here?" before
doing their real work:

====================  ==================================================
``storage.read``      reading an index file (:func:`load_instance`)
``storage.write``     writing an index file (:func:`save_instance`)
``index.build``       building an engine from text or a saved index
``evaluator.step``    one operator evaluation inside the evaluator
``vm.kernel``         one kernel execution inside the plan VM (repro.vm)
``cache.get``         a result-cache probe in the query service
``backend.rpc``       one frontier→backend shard call attempt (any
                      transport, ``ShardExecutor`` included)
``replication.ship``  one WAL-batch ship from the frontier to a replica
====================  ==================================================

With no registry active (the default, and the only production state)
every fault point is a single ``is None`` check — the hot paths stay
within noise of their unfaulted cost (bench E13 guards the request
path).  Activating a registry arms any subset of points with
:class:`FaultSpec`\\ s; each spec fires with a configured probability
drawn from one seeded RNG, so a chaos run with a fixed seed injects a
reproducible fault load.

Three fault modes:

* ``error`` — raise a typed :class:`~repro.errors.FaultInjected`;
* ``latency`` — sleep ``spec.latency`` seconds, then continue;
* ``corrupt`` — deterministically flip bytes in the payload flowing
  through the point (only points that pass data, e.g. storage reads).

Every fire is counted per ``(point, mode)`` (:meth:`FaultRegistry.fires`,
and ``/healthz``'s ``faults`` snapshot), so the chaos harness can tell
exactly what it did.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import sleep
from typing import Any, Iterator

from repro.errors import FaultInjected, ReproError

__all__ = [
    "FAULT_POINTS",
    "FAULT_MODES",
    "FaultSpec",
    "FaultRegistry",
    "activate",
    "deactivate",
    "active",
    "fire",
    "injected_faults",
]

#: The named fault points the codebase exposes.
FAULT_POINTS = (
    "storage.read",
    "storage.write",
    "index.build",
    "evaluator.step",
    "vm.kernel",
    "cache.get",
    "backend.rpc",
    "replication.ship",
)

#: The ways a fault point can misbehave.
FAULT_MODES = ("error", "latency", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, how, how often, and for how long.

    ``probability`` is the chance of firing per traversal of the point;
    ``max_fires`` bounds the total number of fires (``None`` = no
    budget), letting a chaos scenario inject exactly-N faults.
    ``skip_fires`` swallows the first N would-be fires — with
    ``probability=1.0`` and ``max_fires=1`` this targets exactly the
    (N+1)-th traversal, which is how the WAL recovery property test
    kills a writer at every record boundary in turn.
    """

    point: str
    mode: str = "error"
    probability: float = 1.0
    latency: float = 0.0  #: seconds slept per fire in ``latency`` mode
    max_fires: int | None = None
    skip_fires: int = 0
    error: type[ReproError] = field(default=FaultInjected)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ReproError(
                f"unknown fault point {self.point!r} "
                f"(available: {', '.join(FAULT_POINTS)})"
            )
        if self.mode not in FAULT_MODES:
            raise ReproError(
                f"unknown fault mode {self.mode!r} "
                f"(available: {', '.join(FAULT_MODES)})"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ReproError("fault probability must be within [0, 1]")
        if self.latency < 0:
            raise ReproError("fault latency cannot be negative")
        if self.max_fires is not None and self.max_fires < 0:
            raise ReproError("max_fires cannot be negative")
        if self.skip_fires < 0:
            raise ReproError("skip_fires cannot be negative")


def corrupt_bytes(data: bytes, rng: random.Random) -> bytes:
    """Flip a deterministic handful of bytes (at least one)."""
    if not data:
        return data
    out = bytearray(data)
    flips = 1 + len(out) // 512
    for _ in range(flips):
        out[rng.randrange(len(out))] ^= 0xFF
    return bytes(out)


class FaultRegistry:
    """Armed fault specs plus the seeded RNG that rolls them.

    Thread-safe: the serving layer fires points from HTTP handler
    threads and reload threads concurrently; all RNG draws and counters
    sit behind one lock (fault points are not hot enough for that to
    matter — the *disabled* path never takes it).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._specs: list[FaultSpec] = []
        self._spec_fires: list[int] = []
        self._spec_skips: list[int] = []
        self._fires: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------

    def arm(self, spec: FaultSpec | None = None, /, **kwargs: Any) -> FaultSpec:
        """Arm one fault spec (given directly, or built from kwargs)."""
        if spec is None:
            spec = FaultSpec(**kwargs)
        elif kwargs:
            raise ReproError("pass a FaultSpec or keyword arguments, not both")
        with self._lock:
            self._specs.append(spec)
            self._spec_fires.append(0)
            self._spec_skips.append(0)
        return spec

    def disarm(self, point: str | None = None) -> None:
        """Drop every spec at ``point`` (or all specs)."""
        with self._lock:
            if point is None:
                self._specs, self._spec_fires, self._spec_skips = [], [], []
                return
            kept = [
                (s, n, k)
                for s, n, k in zip(
                    self._specs, self._spec_fires, self._spec_skips
                )
                if s.point != point
            ]
            self._specs = [s for s, _, _ in kept]
            self._spec_fires = [n for _, n, _ in kept]
            self._spec_skips = [k for _, _, k in kept]

    # ------------------------------------------------------------------

    def fire(self, point: str, data: bytes | None = None) -> bytes | None:
        """Traverse ``point``: roll every armed spec there, in order.

        Returns ``data`` (possibly corrupted); raises for ``error``
        fires.  Latency fires sleep outside the lock.
        """
        delay = 0.0
        raise_exc: ReproError | None = None
        with self._lock:
            for i, spec in enumerate(self._specs):
                if spec.point != point:
                    continue
                if (
                    spec.max_fires is not None
                    and self._spec_fires[i] >= spec.max_fires
                ):
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                if self._spec_skips[i] < spec.skip_fires:
                    self._spec_skips[i] += 1
                    continue
                self._spec_fires[i] += 1
                key = (point, spec.mode)
                self._fires[key] = self._fires.get(key, 0) + 1
                if spec.mode == "latency":
                    delay += spec.latency
                elif spec.mode == "corrupt":
                    if data is not None:
                        data = corrupt_bytes(data, self._rng)
                else:  # "error"
                    error = spec.error
                    raise_exc = (
                        error(point)
                        if issubclass(error, FaultInjected)
                        else error(f"injected fault at {point!r}")
                    )
                    break
        if delay > 0:
            sleep(delay)
        if raise_exc is not None:
            raise raise_exc
        return data

    # ------------------------------------------------------------------

    def fires(self, point: str | None = None, mode: str | None = None) -> int:
        """Total fires, optionally filtered by point and/or mode."""
        with self._lock:
            return sum(
                count
                for (p, m), count in self._fires.items()
                if (point is None or p == point) and (mode is None or m == mode)
            )

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of armed specs and fire counts (``/healthz``)."""
        with self._lock:
            return {
                "seed": self.seed,
                "armed": [
                    {
                        "point": s.point,
                        "mode": s.mode,
                        "probability": s.probability,
                        "latency": s.latency,
                        "max_fires": s.max_fires,
                        "fires": n,
                    }
                    for s, n in zip(self._specs, self._spec_fires)
                ],
                "fires": {
                    f"{p}:{m}": count for (p, m), count in sorted(self._fires.items())
                },
            }


# ----------------------------------------------------------------------
# The process-wide active registry.  ``_active`` is read (unlocked) on
# hot paths — a plain attribute load of None — and written only by
# activate()/deactivate(), which tests and the chaos harness serialize.
# ----------------------------------------------------------------------

_active: FaultRegistry | None = None


def activate(registry: FaultRegistry) -> FaultRegistry:
    """Install ``registry`` as the process's active fault registry."""
    global _active
    _active = registry
    return registry


def deactivate() -> None:
    """Remove the active registry; every fault point goes quiet."""
    global _active
    _active = None


def active() -> FaultRegistry | None:
    return _active


def fire(point: str, data: bytes | None = None) -> bytes | None:
    """Module-level fault point used by call sites that are not hot
    enough to inline the ``_active`` check themselves."""
    registry = _active
    if registry is None:
        return data
    return registry.fire(point, data)


@contextmanager
def injected_faults(*specs: FaultSpec, seed: int = 0) -> Iterator[FaultRegistry]:
    """Scoped activation: arm ``specs``, yield the registry, deactivate.

    The unit tests' front door::

        with injected_faults(FaultSpec("storage.read", "error")) as reg:
            ...
    """
    registry = FaultRegistry(seed=seed)
    for spec in specs:
        registry.arm(spec)
    activate(registry)
    try:
        yield registry
    finally:
        deactivate()
