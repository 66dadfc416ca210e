"""Compiled plan execution: flat region arrays, set-at-a-time kernels,
and a register plan VM.

The paper claims the region algebra admits "a very efficient evaluation
engine"; this package takes that claim seriously.  Optimized plans from
:mod:`repro.optimize` are lowered once (:mod:`repro.vm.compiler`) into
straight-line register programs (:mod:`repro.vm.program`) and executed
by a tiny VM (:mod:`repro.vm.machine`) whose kernels are the indexed
operator bodies of :class:`~repro.core.regionset.RegionSet`
(:mod:`repro.vm.kernels` names them).  This is the only executor of the
indexed table; the paper's definitions verbatim are a separate table,
:mod:`repro.algebra.oracle`, which the VM never calls.
"""

from repro.vm.compiler import compile_expr
from repro.vm.machine import execute
from repro.vm.program import Instr, Program

__all__ = ["compile_expr", "execute", "Instr", "Program"]
