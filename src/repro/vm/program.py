"""Linear register programs for the plan VM.

A :class:`Program` is a straight-line sequence of :class:`Instr`
records.  Instruction ``i`` writes register ``i`` (registers are in SSA
form — assigned exactly once, never reused), and the last register holds
the query result.  Common sub-expressions are compiled once and read
from their register thereafter; the number of elided re-evaluations is
recorded in :attr:`Program.cse_hits`, which is what ``EvalStats`` reports
as memo hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Instr", "Program", "OP_NAMES"]

# Opcodes: leaves.
OP_LOAD_NAME = 0
OP_LOAD_EMPTY = 1
OP_LOAD_CONST = 2
OP_MATCH_POINTS = 3
# Unary.
OP_SELECT = 4
OP_ORDER_BOUND_PRE = 5
OP_ORDER_BOUND_FOL = 6
# Binary set-at-a-time kernels.
OP_UNION = 7
OP_INTERSECT = 8
OP_DIFFERENCE = 9
OP_INCLUDING = 10
OP_INCLUDED_IN = 11
OP_PRECEDING = 12
OP_FOLLOWING = 13
OP_DIRECT_INCLUDING = 14
OP_DIRECT_INCLUDED = 15
# Ternary.
OP_BOTH_INCLUDED = 16

OP_NAMES = {
    OP_LOAD_NAME: "load_name",
    OP_LOAD_EMPTY: "load_empty",
    OP_LOAD_CONST: "load_const",
    OP_MATCH_POINTS: "match_points",
    OP_SELECT: "select",
    OP_ORDER_BOUND_PRE: "order_bound_preceding",
    OP_ORDER_BOUND_FOL: "order_bound_following",
    OP_UNION: "union",
    OP_INTERSECT: "intersect",
    OP_DIFFERENCE: "difference",
    OP_INCLUDING: "including",
    OP_INCLUDED_IN: "included_in",
    OP_PRECEDING: "preceding",
    OP_FOLLOWING: "following",
    OP_DIRECT_INCLUDING: "direct_including",
    OP_DIRECT_INCLUDED: "direct_included",
    OP_BOTH_INCLUDED: "both_included",
}


@dataclass(frozen=True, slots=True)
class Instr:
    """One VM instruction: ``r<dest> = op(operands…)``.

    ``expr`` is the sub-expression the instruction computes: per-op
    metrics are labelled with its class name (:attr:`label`) and sampled
    traces attach it to the instruction's ``eval.<label>`` span.
    """

    op: int
    dest: int
    expr: Any
    a: int = -1
    b: int = -1
    c: int = -1
    arg: Any = None

    @property
    def label(self) -> str:
        return type(self.expr).__name__

    def render(self) -> str:
        name = OP_NAMES[self.op]
        operands = [f"r{reg}" for reg in (self.a, self.b, self.c) if reg >= 0]
        if self.op == OP_LOAD_CONST:
            operands.append(f"#{self.arg}")
        elif self.arg is not None:
            operands.append(repr(self.arg))
        tail = f" {', '.join(operands)}" if operands else ""
        return f"r{self.dest} = {name}{tail}"


@dataclass(frozen=True)
class Program:
    """A compiled query plan: straight-line kernels over SSA registers."""

    instructions: tuple[Instr, ...]
    constants: tuple[Any, ...] = ()
    cse_hits: int = 0

    @property
    def size(self) -> int:
        return len(self.instructions)

    @property
    def n_registers(self) -> int:
        return len(self.instructions)

    def listing(self) -> tuple[str, ...]:
        """Human-readable program text, one line per instruction."""
        return tuple(ins.render() for ins in self.instructions)
