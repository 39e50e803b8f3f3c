"""Execution substrate: kernel language, memory layout, instrumented executor.

This package replaces the paper's binary-instrumentation infrastructure: a
kernel written with :mod:`repro.lang.builder` executes under
:class:`repro.lang.executor.Executor` and produces the same event stream
(scope entry/exit + per-reference memory accesses) that instrumented object
code would.
"""

from repro.lang.ast import (
    Access, Add, Call, Const, Expr, FloorDiv, Load, Loop, Max, Min, Mod, Mul,
    Program, RefInfo, Routine, ScalarAssign, ScopeInfo, Stmt, Sub, Var,
    as_expr,
)
from repro.lang.builder import (
    assign, call, idx, load, loop, program, routine, stmt, store,
)
from repro.lang.events import EventHandler, Tee, TraceRecorder
from repro.lang.executor import Executor, RunStats, run_program
from repro.lang.batch import (
    BatchExecutor, LoopBatchPlan, compile_loop, run_program_batched,
)
from repro.lang.memory import (
    DOUBLE, INT, DataObject, MemoryLayout, SymbolTable,
    column_major_strides, row_major_strides,
)

__all__ = [
    "Access", "Add", "BatchExecutor", "Call", "Const", "DOUBLE",
    "DataObject", "EventHandler", "Executor", "Expr", "FloorDiv", "INT",
    "Load", "Loop", "LoopBatchPlan", "Max", "MemoryLayout", "Min", "Mod",
    "Mul", "Program", "RefInfo", "Routine", "RunStats", "ScalarAssign",
    "ScopeInfo", "Stmt", "Sub", "SymbolTable", "Tee", "TraceRecorder",
    "Var", "as_expr", "assign", "call", "column_major_strides",
    "compile_loop", "idx", "load", "loop", "program", "routine",
    "row_major_strides", "run_program", "run_program_batched", "stmt",
    "store",
]
