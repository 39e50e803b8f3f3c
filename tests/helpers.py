"""Shared test utilities: naive reference implementations and tiny kernels.

The naive oracles here are deliberately simple (O(n^2) scans, explicit LRU
stacks) so their correctness is obvious; the real implementations are tested
against them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang import (
    MemoryLayout, Program, Var, load, loop, program, routine, stmt, store,
)


class NaiveReuseDistance:
    """Reference reuse-distance computation: an explicit LRU stack."""

    def __init__(self, block_size: int = 1) -> None:
        self.block_size = block_size
        self.stack: List[int] = []  # most recent last

    def access(self, addr: int) -> Optional[int]:
        """Return the reuse distance, or None for a first access."""
        block = addr // self.block_size
        if block in self.stack:
            pos = self.stack.index(block)
            distance = len(self.stack) - pos - 1
            self.stack.pop(pos)
            self.stack.append(block)
            return distance
        self.stack.append(block)
        return None


class NaiveLRUCache:
    """Reference fully-associative LRU cache."""

    def __init__(self, capacity_blocks: int, block_size: int) -> None:
        self.capacity = capacity_blocks
        self.block_size = block_size
        self.stack: List[int] = []
        self.misses = 0

    def access(self, addr: int) -> bool:
        block = addr // self.block_size
        if block in self.stack:
            self.stack.remove(block)
            self.stack.append(block)
            return True
        self.misses += 1
        if len(self.stack) >= self.capacity:
            self.stack.pop(0)
        self.stack.append(block)
        return False


def naive_binomial_sf(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p), by direct summation."""
    from math import comb
    return sum(comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1))


def two_array_kernel(n: int = 16, m: int = 16,
                     transposed_b: bool = False) -> Program:
    """A(i,j) = A(i,j) + B(...) over a 2D nest; the workhorse fixture."""
    lay = MemoryLayout()
    a = lay.array("A", n, m)
    b = lay.array("B", max(n, m), max(n, m))
    i, j = Var("i"), Var("j")
    b_ref = load(b, j, i) if transposed_b else load(b, i, j)
    nest = loop("j", 1, m,
                loop("i", 1, n,
                     stmt(load(a, i, j), b_ref, store(a, i, j), ops=1,
                          loc="k.f:3"),
                     name="I"),
                name="J")
    return program("two_array", lay, [routine("main", nest)])


def collect_trace(prog: Program) -> List[Tuple[int, int, bool]]:
    """Run a program and return its (rid, addr, is_store) access trace."""
    from repro.lang import TraceRecorder, run_program
    rec = TraceRecorder()
    run_program(prog, rec)
    return [(e[1], e[2], e[3]) for e in rec.accesses()]


class OpCollector:
    """Event handler that keeps a stream as comparable op tuples.

    ``("enter", sid)`` / ``("exit", sid)``, ``("batch", rids, addrs,
    stores, period)`` with list payloads, and ``("rows", rids, stores,
    bases, strides, m)`` with tuple vectors; store flags as bools.
    """

    def __init__(self) -> None:
        self.ops: List[tuple] = []

    def enter_scope(self, sid: int) -> None:
        self.ops.append(("enter", sid))

    def exit_scope(self, sid: int) -> None:
        self.ops.append(("exit", sid))

    def access_batch(self, rids, addrs, stores, period: int = 0) -> None:
        self.ops.append(("batch", list(rids), list(addrs),
                         [bool(s) for s in stores], period))

    def access_rows(self, rids, stores, bases, strides, m: int) -> None:
        self.ops.append(("rows", tuple(rids),
                         tuple(bool(s) for s in stores), tuple(bases),
                         tuple(strides), m))


def replayed_ops(sl) -> List[tuple]:
    """The op stream one shard slice replays."""
    from repro.core.tracestore import TraceStore, replay_slice
    got = OpCollector()
    replay_slice(TraceStore(sl.trace), sl, got)
    return got.ops


def record_ops(ops) -> "StoredTrace":
    """An in-memory trace recorded from :class:`OpCollector`-style ops."""
    from repro.core.shard import StreamRecorder
    rec = StreamRecorder()
    handlers = {"enter": rec.enter_scope, "exit": rec.exit_scope,
                "batch": rec.access_batch, "rows": rec.access_rows}
    for op in ops:
        handlers[op[0]](*op[1:])
    return rec.finish()
