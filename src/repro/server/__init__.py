"""The serving layer: a concurrent query service over the region engine.

The region algebra is read-only and side-effect-free, which makes a
query over an immutable corpus a pure function — the property this
package exploits end to end:

* :mod:`repro.server.service` — :class:`QueryService`: named corpora
  with generation counters, bounded admission, per-request
  deadlines, and an LRU result cache;
* :mod:`repro.server.pool` — :class:`AdmissionGate`: requests run on
  the thread they arrived on, inside bounds (reject-early instead of
  queue-forever);
* :mod:`repro.server.cache` — :class:`ResultCache`, thread-safe LRU
  keyed by (corpus, generation, normalized plan);
* :mod:`repro.server.http` — stdlib JSON/HTTP endpoints
  (``/query /explain /corpora /healthz /metrics``);
* :mod:`repro.server.loadgen` — an open-loop load generator reporting
  p50/p95/p99.

``repro serve`` and ``repro loadgen`` (see :mod:`repro.engine.cli`) are
the operational entry points; ``docs/server.md`` is the operator guide.
"""

from repro.server.cache import CacheStats, ResultCache
from repro.server.config import CorpusSpec, ServerConfig
from repro.server.http import QueryHTTPServer, create_server, render_prometheus
from repro.server.loadgen import LoadResult, percentile, run_load
from repro.server.pool import AdmissionGate
from repro.server.service import QueryService, UnknownCorpusError

__all__ = [
    "AdmissionGate",
    "CacheStats",
    "CorpusSpec",
    "LoadResult",
    "QueryHTTPServer",
    "QueryService",
    "ResultCache",
    "ServerConfig",
    "UnknownCorpusError",
    "create_server",
    "percentile",
    "render_prometheus",
    "run_load",
]
