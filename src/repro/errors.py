"""Exception hierarchy for the region-algebra library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the common cases.

Every class carries a stable, machine-readable ``code`` — the string the
query server puts in its JSON error envelope (``{"error": …, "code":
…}``) so clients can branch on failures without parsing prose — and,
next to it, the HTTP ``status`` the server answers it with (inherited
unless a class says otherwise).  The taxonomy is documented in
``docs/server.md``; codes are append-only (renaming one is a breaking
API change).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable identifier for this error family.
    code = "internal"
    #: HTTP status the query server answers this error family with: a
    #: library error is the caller's (malformed query, bad data) unless
    #: its class says otherwise.
    status = 400


def error_code(exc: BaseException) -> str:
    """The stable ``code`` for any exception.  Outside the
    :class:`ReproError` hierarchy there are two: the transport's own
    validation (a missing field, a malformed number) is raised as plain
    :class:`ValueError` and is ``"invalid_request"``; anything else is a
    bug, ``"internal"``."""
    if isinstance(exc, ReproError):
        return exc.code
    return "invalid_request" if isinstance(exc, ValueError) else "internal"


def http_status(exc: BaseException) -> int:
    """The HTTP status for any exception — the one place the decision
    is made, for the response the HTTP layer sends and the ``status``
    label the service's request metrics carry alike."""
    if isinstance(exc, ReproError):
        return exc.status
    return 400 if isinstance(exc, ValueError) else 500


class InvalidRegionError(ReproError):
    """A region with inconsistent endpoints was constructed or supplied."""

    code = "invalid_region"


class HierarchyError(ReproError):
    """An instance violates the hierarchical nesting constraints.

    The paper (Section 2.1) requires that every region belongs to exactly
    one region set, and that any two regions are either disjoint or one
    strictly includes the other.
    """

    code = "hierarchy_violation"


class UnknownRegionNameError(ReproError):
    """A query referenced a region name that the index does not define."""

    code = "unknown_region_name"

    def __init__(self, name: str, known: tuple[str, ...] = ()):
        self.name = name
        self.known = known
        hint = f"; known names: {', '.join(sorted(known))}" if known else ""
        super().__init__(f"unknown region name {name!r}{hint}")


class ParseError(ReproError):
    """The textual query (or document) could not be parsed."""

    code = "parse_error"

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvaluationError(ReproError):
    """An expression could not be evaluated against an instance."""

    code = "evaluation_error"


class QueryTimeout(EvaluationError):
    """A query exceeded its deadline and was cooperatively aborted.

    The evaluator checks the deadline between operator evaluations, so a
    timed-out query stops within one node of the budget running out —
    the resource-limit enforcement the Co-NP-hardness of emptiness
    (FMFT Theorem 3.5) makes mandatory for a shared serving layer.
    """

    code = "query_timeout"
    status = 504

    def __init__(self, budget: float, elapsed: float | None = None):
        self.budget = budget
        self.elapsed = elapsed
        detail = f" after {elapsed:.3f}s" if elapsed is not None else ""
        super().__init__(
            f"query exceeded its {budget:.3f}s deadline{detail}"
        )


class QueryCancelled(EvaluationError):
    """A query was cancelled while (or before) evaluating."""

    code = "query_cancelled"

    def __init__(self, message: str = "query was cancelled"):
        super().__init__(message)


class ServerOverloadedError(ReproError):
    """The query service rejected a request at admission time.

    Raised when every run slot and every place to wait for one is
    taken; HTTP callers see it as ``429 Too Many Requests`` with a
    ``Retry-After`` hint.
    """

    code = "server_overloaded"
    status = 429

    def __init__(self, message: str, retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(message)


class ServiceUnhealthyError(ReproError):
    """The service is shedding load because it judged itself unhealthy.

    Raised on the request path while the health state machine (see
    ``docs/robustness.md``) is in its ``unhealthy`` state; HTTP callers
    see ``503 Service Unavailable`` with a ``Retry-After`` hint.
    """

    code = "service_unhealthy"
    status = 503

    def __init__(self, message: str, retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(message)


class CorpusUnavailableError(ReproError):
    """A corpus cannot be (re)loaded right now — its circuit breaker is
    open after repeated load failures.  HTTP callers see ``503``."""

    code = "corpus_unavailable"
    status = 503

    def __init__(self, name: str, retry_after: float = 1.0):
        self.name = name
        self.retry_after = retry_after
        super().__init__(
            f"corpus {name!r} is unavailable (circuit breaker open); "
            f"retry in {retry_after:.1f}s"
        )


class PatternError(ReproError):
    """A pattern string was malformed for the selected pattern language."""

    code = "pattern_error"


class GrammarError(ReproError):
    """A grammar definition was malformed."""

    code = "grammar_error"


class OptimizationError(ReproError):
    """The optimizer was given inputs it cannot handle."""

    code = "optimization_error"


class StorageError(ReproError):
    """An index could not be serialized or deserialized."""

    code = "storage_error"


class CorruptIndexError(StorageError):
    """An index file exists but its contents fail validation — no magic
    line, checksum mismatch, a malformed header, columns of the wrong
    length, or columns that are not a hierarchical instance.

    Distinguished from :class:`StorageError` so the serving layer can
    quarantine the file and rebuild from source text instead of merely
    reporting an I/O failure.
    """

    code = "corrupt_index"


class FaultInjected(ReproError):
    """An error deliberately raised by the fault-injection registry
    (:mod:`repro.faults`).  Never raised in production configurations —
    it surfaces only when a :class:`~repro.faults.FaultRegistry` is
    active, and maps to HTTP 500 so chaos runs can tell injected
    failures from client errors."""

    code = "fault_injected"
    status = 500

    def __init__(self, point: str, message: str | None = None):
        self.point = point
        super().__init__(message or f"injected fault at {point!r}")


class BackendError(ReproError):
    """A shard-backend RPC failed: transport trouble (connection refused
    or reset while a backend process is down) or a remote-side error the
    frontier should treat as "this replica is unhealthy".  The frontier
    records it on the replica's circuit breaker and fails over to the
    next replica of the group."""

    code = "backend_error"


class ReplicaLaggingError(BackendError):
    """A backend was asked for a read at one corpus generation while
    its replica was at another (still behind it, or already past it).
    A :class:`BackendError` subclass so the frontier's normal failover
    machinery (breaker bookkeeping, next-replica retry, hedging)
    applies; HTTP callers that hit such a backend directly see ``503``
    with a ``Retry-After`` hint sized to the replication interval."""

    code = "replica_lagging"
    status = 503

    def __init__(
        self,
        corpus: str,
        applied: int,
        floor: int,
        retry_after: float = 0.5,
    ):
        self.corpus = corpus
        self.applied = applied
        self.floor = floor
        self.retry_after = retry_after
        super().__init__(
            f"replica of corpus {corpus!r} is at generation {applied}, "
            f"the read needs {floor}"
        )


class BackendUnsupportedError(ReproError):
    """A backend cannot evaluate its slice of this query soundly (a word
    occurrence spans a partition cut, or the corpus has no text-backed
    word index).  Not a replica failure: retrying another replica would
    fail identically, so the frontier falls back to local single-process
    evaluation — the same always-correct fallback the in-process shard
    executor uses."""

    code = "backend_unsupported"


class BackendUnavailableError(ReproError):
    """Every replica of some shard group failed (or had an open
    breaker).  The frontier degrades to local single-process evaluation;
    the response is still complete and correct, but marked degraded —
    unless ``superseded``: every replica refused only because it had
    already committed past the read's generation, and nothing is
    unhealthy."""

    code = "backend_unavailable"

    def __init__(
        self,
        corpus: str,
        group: int,
        attempts: "list[str] | None" = None,
        superseded: bool = False,
    ):
        self.corpus = corpus
        self.group = group
        self.attempts = list(attempts or [])
        self.superseded = superseded
        detail = f" ({'; '.join(self.attempts)})" if self.attempts else ""
        super().__init__(
            f"no live replica for shard group {group} of corpus {corpus!r}{detail}"
        )


class IngestError(ReproError):
    """Base class for live-ingestion failures.

    Raised when an ingest batch is malformed or cannot be applied; the
    corpus is left exactly as it was (batches are all-or-nothing)."""

    code = "ingest_error"


class IngestDisabledError(IngestError):
    """Ingestion was requested for a corpus that does not accept writes
    (the server was started without ``--ingest``, or the corpus kind
    has no text-backed index to extend)."""

    code = "ingest_disabled"


class UnknownDocumentError(IngestError):
    """An update or delete referenced a document id that does not exist
    (or was already deleted) in the target corpus."""

    code = "unknown_document"
    status = 404


class DuplicateDocumentError(IngestError):
    """An append used a document id that is already live in the target
    corpus, or the same id appeared twice in one batch."""

    code = "duplicate_document"
    status = 409


class IngestUnreplicatedError(IngestError):
    """A write targeted a corpus that is actively served through remote
    backend processes while WAL shipping to those backends is disabled —
    committing it would silently fork the frontier's view from what the
    replicas keep serving.  HTTP callers see ``409 Conflict``; enable
    replication (the default) or drop to in-process backends to write."""

    code = "ingest_unreplicated"
    status = 409

    def __init__(self, corpus: str):
        self.corpus = corpus
        super().__init__(
            f"corpus {corpus!r} is served by remote backends but "
            f"replication is disabled; writes would diverge"
        )
