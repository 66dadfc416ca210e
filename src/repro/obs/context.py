"""Request-scoped trace context: the propagation half of tracing.

A :class:`TraceContext` is the serializable identity of one request's
trace — a 16-hex-digit ``trace_id``, the ``span_id`` of the span that
should adopt remote work, and the head-sampling decision.  It is minted
once per HTTP request by the query service, carried across thread pools
via :func:`contextvars.copy_context` (the :class:`~repro.obs.trace.Tracer`
and this module share that mechanism), and crosses to backend
*processes* as a plain dict (:meth:`TraceContext.to_dict`) because
context variables do not leave the process — the backend re-activates
it and the frontier re-parents the returned span tree with
:meth:`Tracer.adopt`.

The ``sampled`` flag is the per-request detail gate: when tracing is
enabled every request records the coarse request→pool→shard skeleton
(cheap, and the tail-keep ring needs it to retain slow/error/fault
traces), but only head-sampled requests record the per-operator
``eval.*`` spans, whose volume dominates trace cost.  Code that emits
detail spans asks :func:`detail_enabled` — true when no request context
is active (CLI tracing, tests) or when the active context is sampled.
"""

from __future__ import annotations

import os
from contextvars import ContextVar, Token
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "TraceContext",
    "new_trace_id",
    "current",
    "current_trace_id",
    "activate",
    "restore",
    "detail_enabled",
]


def new_trace_id() -> str:
    """A fresh 64-bit trace id as 16 lowercase hex digits."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The serializable identity of one request's trace."""

    trace_id: str
    span_id: int | None = None  #: parent span for adopted remote spans
    sampled: bool = True  #: head-sampling decision (detail spans on/off)

    def child(self, span_id: int) -> "TraceContext":
        """The same trace, re-rooted at a new parent span."""
        return TraceContext(self.trace_id, span_id=span_id, sampled=self.sampled)

    def to_dict(self) -> dict[str, Any]:
        """A picklable/JSON-ready form for crossing process boundaries."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(data.get("trace_id", "")),
            span_id=data.get("span_id"),
            sampled=bool(data.get("sampled", True)),
        )


#: The active request context, if any.  Propagates exactly like the
#: tracer's current-span variable: copied into thread-pool tasks via
#: ``contextvars.copy_context``, absent in unrelated threads.
_current: ContextVar[TraceContext | None] = ContextVar(
    "repro-trace-context", default=None
)


def current() -> TraceContext | None:
    """The active request's trace context, or ``None`` outside one."""
    return _current.get()


def current_trace_id() -> str | None:
    """The active request's trace id, or ``None`` outside one."""
    context = _current.get()
    return context.trace_id if context is not None else None


def activate(context: TraceContext) -> Token:
    """Install ``context`` as the active one; pair with :func:`restore`."""
    return _current.set(context)


def restore(token: Token) -> None:
    """Undo a matching :func:`activate`."""
    _current.reset(token)


def detail_enabled() -> bool:
    """Whether per-operator detail spans should be recorded right now:
    true outside any request context, else the context's head-sampling
    decision."""
    context = _current.get()
    return context is None or context.sampled


class _Active:
    """Context manager form of activate/restore (tests, CLI helpers)."""

    __slots__ = ("_context", "_token")

    def __init__(self, context: TraceContext):
        self._context = context
        self._token: Token | None = None

    def __enter__(self) -> TraceContext:
        self._token = activate(self._context)
        return self._context

    def __exit__(self, *exc_info: Any) -> None:
        assert self._token is not None
        restore(self._token)


def active(context: TraceContext) -> _Active:
    """``with active(ctx): ...`` — scoped activation."""
    return _Active(context)
