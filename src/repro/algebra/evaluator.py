"""Evaluation of region-algebra expressions against instances.

Two strategies, each one table of operator bodies with one executor:

* ``"indexed"`` (the default) — the production engine.  The expression
  is lowered once to a cached :mod:`repro.vm` program whose kernels are
  the array bodies on :class:`~repro.core.regionset.RegionSet` (plus the
  instance forest for the direct operators).  This reproduces the
  set-at-a-time efficiency the paper attributes to the PAT engine.
* ``"naive"`` — the semantic oracle: a plain tree walk over
  :mod:`repro.algebra.oracle`, the paper's definitions verbatim,
  quadratic or cubic per operator.  The test suite and ``bench/`` check
  the indexed strategy against it; it shares no operator body with what
  it checks and carries no instrumentation.

Common sub-expressions are evaluated once per query: the compiler reads
a repeated sub-expression from its register (the oracle walk memoizes on
the hashable expression nodes).  ``memoize=False`` turns both off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Literal, Protocol, runtime_checkable

from repro.algebra import ast as A
from repro.algebra import oracle
from repro.algebra.parser import parse
from repro.core.instance import Instance
from repro.core.regionset import RegionSet
from repro.errors import EvaluationError, QueryCancelled, QueryTimeout
from repro.obs import context as _context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.vm.program import Program

__all__ = ["Evaluator", "EvalStats", "evaluate", "Strategy", "CancelToken"]

Strategy = Literal["indexed", "naive"]


@runtime_checkable
class CancelToken(Protocol):
    """Anything with ``is_set()`` — e.g. :class:`threading.Event`."""

    def is_set(self) -> bool: ...  # pragma: no cover - protocol


@dataclass
class EvalStats:
    """Per-:meth:`Evaluator.evaluate` accounting (observed mode only).

    Read off the executed program: ``nodes_evaluated = instructions +
    cse_hits`` (the nodes of the expression tree) and ``memo_hits =
    cse_hits`` (the visits satisfied by a register re-read).
    """

    nodes_evaluated: int = 0
    memo_hits: int = 0
    compiled: bool = False


class _Limits:
    """Per-call deadline/cancellation state, checked once per operator.

    Created by one :meth:`Evaluator.evaluate` call and passed down to
    its executor, so concurrent queries on a shared evaluator (the
    server's worker threads) never see each other's deadlines.
    """

    __slots__ = ("budget", "started", "deadline_at", "cancel")

    def __init__(self, budget: float | None, cancel: CancelToken | None):
        self.budget = budget
        self.cancel = cancel
        self.started = monotonic()
        self.deadline_at = (
            self.started + budget if budget is not None else None
        )

    def check(self) -> None:
        """Raise if the deadline passed or the token was cancelled."""
        if self.cancel is not None and self.cancel.is_set():
            raise QueryCancelled()
        if self.deadline_at is not None:
            now = monotonic()
            if now > self.deadline_at:
                raise QueryTimeout(self.budget, elapsed=now - self.started)


def limits_for(
    deadline: float | None, cancel: CancelToken | None
) -> _Limits | None:
    """The limits of one call (``None`` without a deadline or a token);
    an already-expired budget aborts here, up front."""
    if deadline is None and cancel is None:
        return None
    if deadline is not None and deadline < 0:
        raise EvaluationError("deadline must be non-negative")
    limits = _Limits(deadline, cancel)
    limits.check()
    return limits


class Evaluator:
    """Evaluates expressions against instances with a chosen strategy.

    ``memoize`` controls per-query sharing of common sub-expressions;
    disabling it exists for the ablation benchmarks.

    ``tracer``/``metrics`` attach the observability layer to the indexed
    strategy: with either present :attr:`last_stats` is kept; with
    metrics every instruction is timed into the
    ``eval_node_seconds{op=...}`` histogram; with the tracer enabled the
    program runs under a ``vm.execute`` span, and a detail-sampled
    request additionally gets one ``eval.<op>`` span per executed
    instruction.  With both absent — the default — the program runs
    untimed.
    """

    #: Capacity of the per-evaluator compiled-program LRU cache.
    PROGRAM_CACHE_CAPACITY = 256

    def __init__(
        self,
        strategy: Strategy = "indexed",
        memoize: bool = True,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if strategy not in ("indexed", "naive"):
            raise EvaluationError(f"unknown strategy {strategy!r}")
        self.strategy: Strategy = strategy
        self.memoize = memoize
        self.tracer = tracer
        self.metrics = metrics
        self._observed = tracer is not None or metrics is not None
        self._node_hist = None
        self._nodes_counter = self._memo_hits_counter = None
        self._vm_compile_counter = None
        self._vm_kernel_counter = None
        self._vm_exec_hist = None
        if metrics is not None:
            from repro.obs.metrics import (
                EVAL_NODE_SECONDS,
                EVAL_NODES_TOTAL,
                MEMO_HITS_TOTAL,
                VM_COMPILE_TOTAL,
                VM_EXEC_SECONDS,
                VM_KERNEL_INVOCATIONS_TOTAL,
            )

            self._node_hist = metrics.histogram(EVAL_NODE_SECONDS)
            self._nodes_counter = metrics.counter(EVAL_NODES_TOTAL)
            self._memo_hits_counter = metrics.counter(MEMO_HITS_TOTAL)
            self._vm_compile_counter = metrics.counter(VM_COMPILE_TOTAL)
            self._vm_kernel_counter = metrics.counter(VM_KERNEL_INVOCATIONS_TOTAL)
            self._vm_exec_hist = metrics.histogram(VM_EXEC_SECONDS)
        # Compiled-program cache (expr -> Program).  A program only
        # names region sets, so it stays valid across index generations:
        # a live corpus's next engine adopts this cache (adopt_programs).
        self._programs: "OrderedDict[A.Expr, Program]" = OrderedDict()
        self._programs_lock = threading.Lock()
        # Per-thread last stats, so one evaluator instance is safe to
        # share across server workers.
        self._local = threading.local()

    @property
    def last_stats(self) -> EvalStats | None:
        """Accounting for this thread's most recent ``evaluate`` call;
        ``None`` unless a tracer or metrics registry is attached."""
        return getattr(self._local, "stats", None)

    def evaluate(
        self,
        expr: A.Expr | str,
        instance: Instance,
        deadline: float | None = None,
        cancel: CancelToken | None = None,
    ) -> RegionSet:
        """The result ``e(I)`` of Definition 2.3.

        Accepts either an expression tree or query text (parsed first).

        ``deadline`` is a wall-clock budget in seconds for this call;
        when it runs out the evaluation aborts with
        :class:`~repro.errors.QueryTimeout`.  ``cancel`` is a
        :class:`threading.Event`-like token polled alongside the
        deadline; once set, evaluation aborts with
        :class:`~repro.errors.QueryCancelled`.  Both are checked
        cooperatively, once per operator evaluation, so an abort lands
        within one operator of the trigger.  With neither given there is
        no per-operator clock read.
        """
        if isinstance(expr, str):
            expr = parse(expr)
        limits = limits_for(deadline, cancel)
        if self.strategy == "naive":
            memo = {} if self.memoize else None
            return oracle.evaluate(expr, instance, memo, limits)
        program, _ = self.compiled_program(expr)
        if self._observed:
            self._local.stats = EvalStats(
                nodes_evaluated=program.size + program.cse_hits,
                memo_hits=program.cse_hits,
                compiled=True,
            )
        return self._run_program(program, instance, limits)

    # ------------------------------------------------------------------
    # Compiled execution (repro.vm).
    # ------------------------------------------------------------------

    def compiled_program(self, expr: A.Expr) -> "tuple[Program, bool]":
        """``(program, was_cached)`` for ``expr``; an expression the
        compiler has no opcode for raises :class:`EvaluationError`."""
        with self._programs_lock:
            program = self._programs.get(expr)
            if program is not None:
                self._programs.move_to_end(expr)
                if self._vm_compile_counter is not None:
                    self._vm_compile_counter.inc(outcome="hit")
                return program, True
        program = self.compile_uncached(expr)
        with self._programs_lock:
            self._programs[expr] = program
            while len(self._programs) > self.PROGRAM_CACHE_CAPACITY:
                self._programs.popitem(last=False)
        return program, False

    def compile_uncached(self, expr: A.Expr) -> "Program":
        """A program for ``expr`` that bypasses the cache: for one-off
        forms, such as a plan with its order bounds inlined."""
        from repro.vm.compiler import compile_expr

        program = compile_expr(expr, cse=self.memoize)
        if self._vm_compile_counter is not None:
            self._vm_compile_counter.inc(outcome="compiled")
        return program

    def run(
        self, program: "Program", instance: Instance, limits: _Limits | None
    ) -> RegionSet:
        """One of several runs that answer a query together: instructions
        are timed as in :meth:`evaluate`, but the query is accounted once,
        by :meth:`account`, after its last run."""
        from repro.vm.machine import execute

        return execute(program, instance, limits, self._node_hist)

    def account(self, programs: "list[Program]", seconds: float) -> None:
        """Account one query answered by ``programs`` run in ``seconds``
        in all: this thread's :attr:`last_stats`, the VM execution
        histogram (observed once) and the kernel and node counters."""
        if not self._observed:
            return
        cse_hits = sum(program.cse_hits for program in programs)
        nodes = sum(program.size for program in programs) + cse_hits
        self._local.stats = EvalStats(
            nodes_evaluated=nodes, memo_hits=cse_hits, compiled=True
        )
        if self.metrics is None:
            return
        self._vm_exec_hist.observe(seconds)
        kernel_counter = self._vm_kernel_counter
        for program in programs:
            for op, count in program.op_counts.items():
                kernel_counter.inc(count, op=op)
        self._nodes_counter.inc(nodes)
        if cse_hits:
            self._memo_hits_counter.inc(cse_hits)

    def adopt_programs(self, other: "Evaluator") -> None:
        """Share ``other``'s compiled-program cache from now on."""
        self._programs = other._programs
        self._programs_lock = other._programs_lock

    def program_cached(self, expr: A.Expr) -> bool:
        """Is a compiled program for ``expr`` already in the cache?"""
        with self._programs_lock:
            return expr in self._programs

    def _run_program(
        self, program: "Program", instance: Instance, limits: _Limits | None
    ) -> RegionSet:
        """Execute under whatever observability is attached."""
        from repro.vm.machine import execute

        metrics = self.metrics
        tracer = self.tracer
        started = perf_counter() if metrics is not None else 0.0
        if tracer is not None and tracer.enabled:
            # Per-instruction detail is the expensive part of a trace, so
            # it is double-gated: the tracer must be on, and the active
            # request's head-sampling decision (if a request context
            # exists) must say yes — asked once per call.  The coarse
            # vm.execute skeleton is recorded regardless.
            detail = tracer if _context.detail_enabled() else None
            with tracer.span(
                "vm.execute",
                instructions=program.size,
                cse_hits=program.cse_hits,
            ) as span:
                result = execute(program, instance, limits, self._node_hist, detail)
                span.set("cardinality", len(result))
        else:
            result = execute(program, instance, limits, self._node_hist)
        if metrics is not None:
            self._vm_exec_hist.observe(perf_counter() - started)
            kernel_counter = self._vm_kernel_counter
            for op, count in program.op_counts.items():
                kernel_counter.inc(count, op=op)
            self._nodes_counter.inc(program.size + program.cse_hits)
            if program.cse_hits:
                self._memo_hits_counter.inc(program.cse_hits)
        return result


_DEFAULT = Evaluator("indexed")
_ORACLE = Evaluator("naive")


def evaluate(
    expr: A.Expr | str,
    instance: Instance,
    strategy: Strategy = "indexed",
    deadline: float | None = None,
    cancel: CancelToken | None = None,
) -> RegionSet:
    """Module-level convenience wrapper around :class:`Evaluator`."""
    evaluator = _DEFAULT if strategy == "indexed" else _ORACLE
    return evaluator.evaluate(expr, instance, deadline=deadline, cancel=cancel)
