"""Shared test utilities: naive reference implementations, tiny kernels,
a hypothesis strategy drawing generated kernels, and seeded on-disk state
for the GC tests.

The naive oracles here are deliberately simple (O(n^2) scans, explicit LRU
stacks) so their correctness is obvious; the real implementations are tested
against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Tuple

from hypothesis import strategies as st

from repro.core.npengine import FLUSH_ACCESSES, WindowArrays
from repro.core.tracestore import record_spilled
from repro.lang import (
    MemoryLayout, Program, Var, assign, call, idx, load, loop, program,
    routine, stmt, store,
)
from repro.lang.ast import Const, FloorDiv, Max, Min, Mod
from repro.service.jobs import JobSpec, JobStore
from repro.tools.atomicio import atomic_write_text
from repro.tools.cache import AnalysisCache


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


def slice_windows(sl, threshold: int = FLUSH_ACCESSES) -> list:
    """Every window a shard slice feeds, materialised, in time order."""
    return [materialise() for _n, materialise in sl.windows(threshold)]


def window_stream(sl, threshold: int = FLUSH_ACCESSES) -> Tuple[list, list]:
    """The ``(rids, addrs)`` of a shard slice's windows, concatenated."""
    rids: List[int] = []
    addrs: List[int] = []
    for win in slice_windows(sl, threshold):
        rids.extend(win.rids.tolist())
        addrs.extend(win.addrs.tolist())
    return rids, addrs


def same_windows(left: list, right: list) -> bool:
    """Do two window lists hold equal arrays, slot by slot?"""
    return len(left) == len(right) and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tolist() == getattr(b, name).tolist()
        for a, b in zip(left, right) for name in WindowArrays.__slots__)


def record_ops(ops) -> "StoredTrace":
    """An in-memory trace recorded from op tuples: ``("enter", sid)`` /
    ``("exit", sid)``, ``("batch", rids, addrs, stores, period)`` and
    ``("rows", rids, stores, bases, strides, m)``."""
    from repro.core.tracestore import StreamRecorder
    rec = StreamRecorder()
    handlers = {"enter": rec.enter_scope, "exit": rec.exit_scope,
                "batch": rec.access_batch, "rows": rec.access_rows}
    for op in ops:
        handlers[op[0]](*op[1:])
    return rec.finish()


# ---------------------------------------------------------------------------
# Seeded state for the GC pass (repro.tools.gc).  Files a test creates are
# fresh, and the pass pins fresh files by time, so candidates are backdated.
# ---------------------------------------------------------------------------

DAY = 86400.0
#: far enough back that no time pin covers it
LONG_AGO = time.time() - 30 * DAY
TINY_SPEC = JobSpec(workload="fig1", params={"n": 24, "m": 24})


def backdate(path: str, ts: float) -> None:
    """Set atime and mtime of a file, or of every file under a dir."""
    paths = ([os.path.join(root, name)
              for root, _dirs, files in os.walk(path) for name in files]
             if os.path.isdir(path) else [path])
    for p in paths:
        os.utime(p, (ts, ts))


def spilled_store(trace_dir, n: int, ts: float) -> str:
    """Record a trace store under ``trace_dir``, last used at ``ts``."""
    stored, _ = record_spilled(two_array_kernel(n, n), str(trace_dir))
    backdate(stored.path, ts)
    return stored.path


def cache_entries(cache: AnalysisCache, n: int,
                  payload_bytes: int = 4096) -> List[str]:
    """n entries, oldest first, each 100 s apart and all past the pin."""
    keys = []
    for i in range(n):
        key = f"{i:02x}" + "0" * 62
        cache.put(key, {"pad": b"x" * payload_bytes, "i": i})
        backdate(cache._path(key), LONG_AGO + 100 * i)
        keys.append(key)
    return keys


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, files in os.walk(path) for name in files)


def blob_artifact(cache: AnalysisCache, data: bytes,
                  ts: float = LONG_AGO) -> dict:
    """Publish ``data`` as a blob written at ``ts``; its artifact entry."""
    digest = hashlib.sha256(data).hexdigest()
    cache.put_blob(digest, data)
    backdate(cache._blob_path(digest), ts)
    return {"name": "patterns", "file": "patterns.pkl", "digest": digest,
            "bytes": len(data)}


def finish_job(jobs: JobStore, artifacts: List[dict],
               finished: Optional[float] = None):
    """Submit and complete one job, optionally backdating its finish."""
    job = jobs.submit("a", TINY_SPEC)
    jobs.mark_started(job.id)
    jobs.mark_done(job.id, {"L1": 1}, artifacts)
    if finished is not None:
        job.finished = finished
        with open(jobs.record_path(job.id), encoding="utf-8") as fh:
            record = json.load(fh)
        record["finished"] = finished
        atomic_write_text(jobs.record_path(job.id), json.dumps(record))
    return job


def removed_paths(result, kind: str) -> List[str]:
    """The paths of one kind a GC pass removed, in pass order."""
    return [path for k, path, _size in result.removed if k == kind]


def service_state(tmp_path) -> Tuple[str, JobStore, AnalysisCache]:
    """A service state dir with its job store and shared cache."""
    state = str(tmp_path / "svc")
    os.makedirs(state)
    return (state, JobStore(state),
            AnalysisCache(os.path.join(state, "cache"), shared=True))


# ---------------------------------------------------------------------------
# Registry workloads at small sizes, and generated kernels
# ---------------------------------------------------------------------------

#: every registry workload's parameters at a size a test runs in well
#: under a second
SMALLER = {
    "fig1": {"n": 12, "m": 10},
    "fig2": {"n": 16, "m": 8},
    "triad": {"n": 64, "steps": 2},
    "gather": {"n": 64, "m": 256},
    "cg": {"grid": 6},
    "sweep3d": {"mesh": 4, "mm": 3, "nm": 2, "noct": 1},
    "gtc": {"micell": 1, "mpsi": 4, "mtheta": 6, "mzeta": 2,
            "timesteps": 1},
}


SCALARS = ("s0", "s1", "s2")


class _Gen:
    """Draws one kernel: affine nests to depth 4 with mixed and negative
    steps, zero-trip loops, bounds on outer variables, indirect
    subscripts (loads nested in them included), scalar assigns with
    loads (loop-carried and escaping ones included), FloorDiv/Mod/Min/Max
    on negative values, and calls inside loops."""

    def __init__(self, draw):
        self.draw = draw
        lay = MemoryLayout()
        self.lay = lay
        self.a = lay.array("A", 40)
        self.b = lay.array("B", 6, 5,
                           order=draw(st.sampled_from(["F", "C"])))
        self.c = lay.array("C", 48, elem_size=4, origin=0)
        self.ix = lay.index_array("IX", 16)
        self.ix.values[:] = draw(st.lists(st.integers(-9, 30),
                                          min_size=16, max_size=16))

    def expr(self, names, depth=0):
        """An index expression; an indirect subscript may hold another
        load (``IX(IX(i) + 1)``)."""
        draw = self.draw
        leaf = draw(st.integers(0, 9 if depth < 2 else 3))
        if leaf <= 1 or not names:
            return Const(draw(st.integers(-4, 4)))
        if leaf <= 3:
            var = Var(draw(st.sampled_from(names)))
            return var * draw(st.integers(-2, 3)) + draw(st.integers(-3, 3))
        left = self.expr(names, depth + 1)
        if leaf == 4:
            return left + self.expr(names, depth + 1)
        if leaf == 5:
            return FloorDiv(left, draw(st.integers(1, 4)))
        if leaf == 6:
            return Mod(left, draw(st.integers(1, 5)))
        if leaf == 7:
            return Min(left, self.expr(names, depth + 1))
        if leaf == 8:
            return Max(left, self.expr(names, depth + 1))
        return idx(self.ix, Mod(left, 16) + 1)

    def access(self, names):
        draw = self.draw
        which = draw(st.integers(0, 3))
        if which == 0:
            return load(self.a, self.expr(names))
        if which == 1:
            return store(self.a, self.expr(names))
        if which == 2:
            return load(self.b, self.expr(names), self.expr(names))
        return store(self.c, self.expr(names))

    def body(self, names, loop_vars, depth, callee):
        draw = self.draw
        names = list(names)  # a body's own scalars join after assignment
        nodes = []
        loops = 0
        for n in range(draw(st.integers(1, 3))):
            # a routine's body opens with a loop: most of the stream
            kind = 9 if depth <= 1 and n == 0 else draw(st.integers(0, 9))
            if kind >= 6 and loops == 2:
                kind = 0  # at most two loops per body bounds the stream
            if kind <= 3 or (kind <= 6 and depth >= 4):
                accs = [self.access(names)
                        for _ in range(draw(st.integers(1, 3)))]
                nodes.append(stmt(*accs, ops=draw(st.integers(0, 2))))
            elif kind == 4:
                # mostly a scalar of this body, read only after it is
                # assigned; else a parameter or the loop variable, which
                # reads elsewhere see from another iteration
                local = f"t{depth}"
                target = draw(st.sampled_from(
                    (local,) * 6 + SCALARS + tuple(loop_vars[-1:])))
                nodes.append(assign(target, self.expr(names)))
                if target not in names:
                    names.append(target)
            elif kind == 5 and callee is not None:
                nodes.append(call(callee))
            elif depth < 4:
                loops += 1
                nodes.append(self.loop(names, loop_vars, depth, callee))
        return nodes

    def loop(self, names, loop_vars, depth, callee):
        draw = self.draw
        var = f"{'ij'[callee is None]}{depth}"
        step = draw(st.sampled_from([1, 1, 2, -1, -2]))
        trips = draw(st.integers(1 if depth == 0 else -1,
                                 5 if depth < 2 else 3))
        lo = self.expr(names) if draw(st.booleans()) else \
            Const(draw(st.integers(-3, 3)))
        if names and draw(st.booleans()):
            # a bound on an outer variable, capped at a few trips
            hi = Var(draw(st.sampled_from(names))) + trips * step
            cap = lo + (trips - 1) * step
            hi = Min(hi, cap) if step > 0 else Max(hi, cap)
        else:
            hi = lo + (trips - 1) * step
        inner = names + [var]
        return loop(var, lo, hi,
                    *self.body(inner, loop_vars + [var], depth + 1, callee),
                    step=step)


@st.composite
def kernels(draw):
    """Hypothesis strategy: one generated kernel (see ``_Gen``)."""
    gen = _Gen(draw)
    names = list(SCALARS)
    routines = []
    nsubs = draw(st.integers(0, 2))
    callee = None
    for k in reversed(range(nsubs)):
        name = f"sub{k}"
        routines.append(routine(name, *gen.body(names, [], 1, callee)))
        callee = name
    routines.insert(0, routine("main", *gen.body(names, [], 0, callee)))
    params = {name: draw(st.integers(-3, 5)) for name in SCALARS}
    return program("gen", gen.lay, routines, params=params)
