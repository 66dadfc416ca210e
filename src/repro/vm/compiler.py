"""Lowering optimized algebra expressions into VM programs.

The compiler walks the expression DFS, children left to right (Select →
child; BothIncluded → source, first, second; binary ops → left, right),
emitting one instruction per distinct sub-expression.  A repeated
sub-expression compiles to a register re-read and bumps ``cse_hits``, so

    ``instructions + cse_hits == nodes of the expression tree``

With ``cse=False`` (the ``memoize=False`` ablation) every visit emits its
own instruction and ``cse_hits`` stays 0.

A node type the VM has no opcode for is an :class:`EvaluationError` at
compile time — there is no second executor to hand it to.
"""

from __future__ import annotations

from repro.algebra import ast as A
from repro.errors import EvaluationError
from repro.vm import program as P
from repro.vm.program import Instr, Program

__all__ = ["compile_expr"]

_BINARY_OPS = {
    A.Union: P.OP_UNION,
    A.Intersection: P.OP_INTERSECT,
    A.Difference: P.OP_DIFFERENCE,
    A.Including: P.OP_INCLUDING,
    A.IncludedIn: P.OP_INCLUDED_IN,
    A.Preceding: P.OP_PRECEDING,
    A.Following: P.OP_FOLLOWING,
    A.DirectlyIncluding: P.OP_DIRECT_INCLUDING,
    A.DirectlyIncluded: P.OP_DIRECT_INCLUDED,
}


def compile_expr(expr: A.Expr, cse: bool = True) -> Program:
    """Lower ``expr`` to a :class:`Program`."""
    instrs: list[Instr] = []
    registers: dict[A.Expr, int] = {}
    constants: list[object] = []
    cse_hits = 0

    def emit(e: A.Expr, op: int, a: int = -1, b: int = -1, c: int = -1,
             arg: object = None) -> int:
        dest = len(instrs)
        instrs.append(Instr(op=op, dest=dest, expr=e, a=a, b=b, c=c, arg=arg))
        return dest

    def lower(e: A.Expr) -> int:
        nonlocal cse_hits
        reg = registers.get(e) if cse else None
        if reg is not None:
            cse_hits += 1
            return reg
        if isinstance(e, A.NameRef):
            reg = emit(e, P.OP_LOAD_NAME, arg=e.name)
        elif isinstance(e, A.Empty):
            reg = emit(e, P.OP_LOAD_EMPTY)
        elif isinstance(e, A.Select):
            reg = emit(e, P.OP_SELECT, a=lower(e.child), arg=e.pattern)
        elif isinstance(e, A.MatchPoints):
            reg = emit(e, P.OP_MATCH_POINTS, arg=e.pattern)
        elif isinstance(e, A.BothIncluded):
            source = lower(e.source)
            first = lower(e.first)
            second = lower(e.second)
            reg = emit(e, P.OP_BOTH_INCLUDED, a=source, b=first, c=second)
        elif type(e) in _BINARY_OPS:
            left = lower(e.left)
            right = lower(e.right)
            reg = emit(e, _BINARY_OPS[type(e)], a=left, b=right)
        else:
            reg = _lower_shard_node(e, lower, emit, constants)
        registers[e] = reg
        return reg

    lower(expr)
    return Program(
        instructions=tuple(instrs),
        constants=tuple(constants),
        cse_hits=cse_hits,
    )


def _lower_shard_node(e, lower, emit, constants) -> int:
    # The shard planner's node types are resolved lazily so plain
    # expressions never import the shard layer.
    from repro.core.regionset import RegionSet
    from repro.shard.rewrite import OrderBound, RegionLiteral

    if isinstance(e, RegionLiteral):
        routed = e.regions
        constants.append(routed if isinstance(routed, RegionSet) else RegionSet(routed))
        return emit(e, P.OP_LOAD_CONST, arg=len(constants) - 1)
    if isinstance(e, OrderBound):
        child = lower(e.child)
        op = P.OP_ORDER_BOUND_PRE if e.kind == "preceding" else P.OP_ORDER_BOUND_FOL
        return emit(e, op, a=child, arg=e.bound)
    raise EvaluationError(f"cannot evaluate node {type(e).__name__}")
