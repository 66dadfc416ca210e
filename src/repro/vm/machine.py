"""The register VM: execute a compiled :class:`Program` over an instance.

One pass over the instruction list; each step checks cooperative
deadline/cancel limits, fires the ``evaluator.step`` and ``vm.kernel``
fault points, and dispatches to the operator's indexed body — a
:class:`~repro.core.regionset.RegionSet` method, the instance's word
index for ``σ_p`` and match points, or its forest for the direct
operators.  Instructions run untimed unless a tracer is attached (the
caller passes one only for detail-sampled requests): then each records
one ``eval.<label>`` span carrying its expression, output cardinality
and kernel time under the caller's open span.  Register re-reads (CSE)
record nothing: nothing ran.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.core.regionset import RegionSet
from repro.errors import EvaluationError
from repro.faults import registry as _faults
from repro.vm import program as P
from repro.vm.program import Program

if TYPE_CHECKING:
    from repro.core.instance import Instance

__all__ = ["execute"]


def execute(
    program: Program,
    instance: "Instance",
    limits: Any = None,
    tracer: Any = None,
) -> RegionSet:
    """Run ``program`` against ``instance`` and return the final register."""
    regs: list[RegionSet | None] = [None] * len(program.instructions)
    for ins in program.instructions:
        if limits is not None:
            limits.check()
        active = _faults._active
        if active is not None:
            active.fire("evaluator.step")
            active.fire("vm.kernel")
        if tracer is None:
            regs[ins.dest] = _step(ins, regs, instance, program.constants)
            continue
        started = perf_counter()
        regs[ins.dest] = result = _step(ins, regs, instance, program.constants)
        tracer.record_span(
            f"eval.{ins.label}",
            perf_counter() - started,
            expression=ins.expr,
            cardinality=len(result),
        )
    return regs[-1]


def _step(ins, regs, instance, constants) -> RegionSet:
    op = ins.op
    if op == P.OP_INCLUDING:
        return regs[ins.a].including(regs[ins.b])
    if op == P.OP_INCLUDED_IN:
        return regs[ins.a].included_in(regs[ins.b])
    if op == P.OP_PRECEDING:
        return regs[ins.a].preceding(regs[ins.b])
    if op == P.OP_FOLLOWING:
        return regs[ins.a].following(regs[ins.b])
    if op == P.OP_UNION:
        return regs[ins.a].union(regs[ins.b])
    if op == P.OP_INTERSECT:
        return regs[ins.a].intersection(regs[ins.b])
    if op == P.OP_DIFFERENCE:
        return regs[ins.a].difference(regs[ins.b])
    if op == P.OP_LOAD_NAME:
        return instance.region_set(ins.arg)
    if op == P.OP_LOAD_EMPTY:
        return RegionSet.empty()
    if op == P.OP_LOAD_CONST:
        return constants[ins.arg]
    if op == P.OP_SELECT:
        return instance.select(regs[ins.a], ins.arg)
    if op == P.OP_MATCH_POINTS:
        return instance.match_points(ins.arg)
    if op == P.OP_ORDER_BOUND_PRE:
        return regs[ins.a].ending_before(ins.arg)
    if op == P.OP_ORDER_BOUND_FOL:
        return regs[ins.a].starting_after(ins.arg)
    if op == P.OP_DIRECT_INCLUDING:
        return instance.forest().directly_including(regs[ins.a], regs[ins.b])
    if op == P.OP_DIRECT_INCLUDED:
        return instance.forest().directly_included(regs[ins.a], regs[ins.b])
    if op == P.OP_BOTH_INCLUDED:
        return regs[ins.a].both_included(regs[ins.b], regs[ins.c])
    raise EvaluationError(f"unknown VM opcode {op}")  # pragma: no cover
