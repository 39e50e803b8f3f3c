"""Batched trace pipeline: compile innermost loops into access chunks.

The scalar :class:`~repro.lang.executor.Executor` crosses a Python call
boundary per memory access (``addr_fn(env)`` + ``handler.access``), which
dominates analysis cost.  :class:`BatchExecutor` compiles every innermost
loop whose body holds only :class:`~repro.lang.ast.Stmt` and
:class:`~repro.lang.ast.ScalarAssign` nodes into a plan, and hands whole
chunks of iterations to the handler's
``access_batch(rids, addrs, stores, period)`` entry point in one call.
A plan comes in one of two kinds, differing only in how a chunk's
addresses are produced:

* **affine** — a body of plain statements whose subscripts are affine in
  the loop variable: every reference walks an arithmetic address
  sequence, materialized as ``range`` objects (C-level iteration) or
  handed over unmaterialized to row-aware handlers (``access_rows``,
  which the recorder implements);
* **gather** — everything else: indirect (``Load``) subscripts, scalar
  assignments, non-affine subscripts.  The body compiles to one
  generated function that runs the chunk's iterations, evaluating the
  same subscript and assignment source the scalar closures are built
  from, in body order, and updating the environment as the scalar walk
  does.

``period`` is the number of accesses per loop iteration: chunks always hold
a whole number of iterations, so a recording
(:class:`~repro.core.tracestore.StreamRecorder`) keeps the iteration
structure that the numpy engine's run compression exploits when the
recording is fed to it.  Handlers without ``access_batch`` get a
per-access fallback loop, so any event consumer works unmodified and
sees the identical event stream.

Loops that contain a nested loop or a call keep the scalar walk, statement
by statement (their innermost loops are batched in turn).  The two paths
are semantically identical: same events in the same order, same
:class:`~repro.lang.executor.RunStats`, same environment afterwards; the
test suite cross-checks both against each other.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.ast import (
    Add, Const, Expr, FloorDiv, Loop, Max, Min, Mod, Mul, Program,
    ScalarAssign, Stmt, Sub, Var,
)
from repro.lang.executor import Executor, RunStats
from repro.lang.events import EventHandler, _batch_fallback
from repro.obs import metrics as _obs

#: Target accesses per access_batch call; chunks are rounded to whole
#: iterations.  Large enough to amortize per-chunk setup, small enough to
#: keep the materialized address list cache-resident.
CHUNK_ACCESSES = 1 << 16

#: Sentinel distinguishing "not yet compiled" from "not batchable".
_UNCOMPILED = object()


class LoopBatchPlan:
    """Compiled batch schedule for one innermost loop.

    ``rids``/``stores`` describe one iteration's accesses in event order
    (``k`` of them); ``ops`` is its non-memory operation count.  Affine
    plans carry the per-access address closures (``addr_fns``), probed
    for base and stride; gather plans carry ``gather(env, values)``,
    which runs the iterations ``values`` and returns their addresses.
    """

    __slots__ = ("addr_fns", "gather", "rids", "stores", "k", "ops",
                 "n_loads", "n_stores")

    def __init__(self, rids: Tuple[int, ...], stores: Tuple[bool, ...],
                 ops: int, addr_fns: Optional[List[Callable]] = None,
                 gather: Optional[Callable] = None) -> None:
        self.addr_fns = addr_fns
        self.gather = gather
        self.rids = rids
        self.stores = stores
        self.k = len(rids)
        self.ops = ops
        self.n_stores = sum(1 for s in stores if s)
        self.n_loads = self.k - self.n_stores

    @property
    def kind(self) -> str:
        return "affine" if self.gather is None else "gather"


# ---------------------------------------------------------------------------
# Affinity analysis
# ---------------------------------------------------------------------------

def _var_free(expr: Expr, var: str) -> bool:
    """True if ``expr`` never reads ``var`` and performs no Load."""
    cls = expr.__class__
    if cls is Const:
        return True
    if cls is Var:
        return expr.name != var
    if cls in (Add, Sub, Mul, FloorDiv, Mod):
        return _var_free(expr.left, var) and _var_free(expr.right, var)
    if cls in (Min, Max):
        return all(_var_free(a, var) for a in expr.args)
    return False  # Load (an access of its own) or an unknown node


def _affine_in(expr: Expr, var: str) -> bool:
    """True if ``expr`` is degree <= 1 in ``var`` with Load-free terms.

    Affine subscripts make the byte address an exact arithmetic sequence
    over the iteration space, so a two-point probe recovers the stride.
    """
    cls = expr.__class__
    if cls is Const or cls is Var:
        return True
    if cls in (Add, Sub):
        return _affine_in(expr.left, var) and _affine_in(expr.right, var)
    if cls is Mul:
        left_free = _var_free(expr.left, var)
        right_free = _var_free(expr.right, var)
        if left_free and right_free:
            return True
        if left_free:
            return _affine_in(expr.right, var)
        if right_free:
            return _affine_in(expr.left, var)
        return False  # var * var: quadratic
    if cls in (FloorDiv, Mod, Min, Max):
        # Non-linear operators are fine only when the whole subtree is
        # iteration-invariant (an env constant for this loop).
        return _var_free(expr, var)
    return False  # Load: data-dependent address


def compile_loop(loop: Loop, program: Program) -> Optional[LoopBatchPlan]:
    """Return a batch plan for ``loop`` of ``program``, or None.

    None means the body holds a nested :class:`Loop` or a call, or makes
    no memory access at all: those loops keep the scalar walk.  A body of
    plain :class:`Stmt` nodes whose subscripts are all affine in the loop
    variable (no :class:`Load`) compiles to an affine plan; any other
    body of statements and scalar assignments compiles to a gather plan.
    """
    body = loop.body
    if any(node.__class__ not in (Stmt, ScalarAssign) for node in body):
        return None
    rids: List[int] = []
    stores: List[bool] = []
    ops = 0
    for node in body:
        for rid, _addr_fn, is_store in node.plan:
            rids.append(rid)
            stores.append(is_store)
        ops += node.ops if node.__class__ is Stmt else 1
    if not rids:
        return None  # nothing to batch
    var = loop.var
    if all(
            node.__class__ is Stmt
            and all(_affine_in(ix, var)
                    for acc in node.accesses for ix in acc.indices)
            for node in body):
        addr_fns = [fn for node in body for _rid, fn, _st in node.plan]
        return LoopBatchPlan(tuple(rids), tuple(stores), ops,
                             addr_fns=addr_fns)
    return LoopBatchPlan(tuple(rids), tuple(stores), ops,
                         gather=_compile_gather(loop, program))


def _compile_gather(loop: Loop, program: Program) -> Callable:
    """Generate ``gather(env, values)`` for a loop's body.

    Per iteration it binds the loop variable, then walks the body: each
    plan entry's address (subscript loads before the reference they
    feed, as in the plan) and each scalar assignment, in order.  The
    fragments are the ones the program's closures are compiled from, and
    the function runs in the same namespace, so every value — including
    ``//``, ``%``, ``min`` and ``max`` on negative operands — is the
    scalar walk's.
    """
    lines = ["def gather(env, values):",
             "    out = []",
             "    for v in values:",
             f"        env[{loop.var!r}] = v"]
    pending: List[str] = []
    for node in loop.body:
        pending += [program.refs[rid].access.compile_addr(program)
                    for rid, _addr_fn, _st in node.plan]
        if node.__class__ is ScalarAssign:
            if pending:
                lines.append(f"        out += ({', '.join(pending)},)")
                pending = []
            lines.append(f"        env[{node.var!r}] = "
                         f"{node.expr.compile(program)}")
    if pending:
        lines.append(f"        out += ({', '.join(pending)},)")
    lines.append("    return out")
    scope: Dict[str, Callable] = {}
    exec(compile("\n".join(lines), f"<gather {loop.name}>", "exec"),
         program.namespace, scope)
    return scope["gather"]


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------

class BatchExecutor(Executor):
    """Executor that batches innermost loops through access_batch.

    Drop-in replacement for :class:`Executor`: identical event semantics
    and statistics, ~an order of magnitude fewer Python-level call
    boundaries on loop-dominated kernels.
    """

    def __init__(self, program: Program,
                 handler: Optional[EventHandler] = None,
                 *extra_handlers: EventHandler,
                 chunk_accesses: int = CHUNK_ACCESSES) -> None:
        super().__init__(program, handler, *extra_handlers)
        self._chunk = max(1, chunk_accesses)
        self._access_batch = (getattr(self.handler, "access_batch", None)
                              or _batch_fallback(self.handler.access))
        # Row-aware handlers (the trace recorder) can take the affine row
        # description itself — reference pattern, per-reference
        # base/stride, iteration count — instead of a materialized address
        # list, skipping the per-chunk interleave entirely.  Semantically
        # identical: access_rows(rids, stores, bases, strides, m) covers
        # exactly the accesses of access_batch(rids*m, addrs, stores*m, k)
        # in the same order.
        self._access_rows = getattr(self.handler, "access_rows", None)
        # Batch plans are a property of the (finalized) program, shared by
        # every executor that runs it.
        self._plans: Dict[int, object] = program.__dict__.setdefault(
            "_batch_plans", {})
        # Obs counters: compile / loop-entry / chunk granularity, no-ops
        # when observability is disabled.
        self._obs_compiled = _obs.counter("batch.plans_compiled")
        self._obs_gather = _obs.counter("batch.gather_plans")
        self._obs_fallbacks = _obs.counter("batch.fallback_loops")
        self._obs_chunks = _obs.counter("batch.chunks")

    def _run_loop(self, loop: Loop, env: Dict[str, int]) -> None:
        plan = self._plans.get(loop.sid, _UNCOMPILED)
        if plan is _UNCOMPILED:
            plan = compile_loop(loop, self.program)
            self._plans[loop.sid] = plan
            if plan is not None:
                self._obs_compiled.inc()
                if plan.gather is not None:
                    self._obs_gather.inc()
        if plan is None:
            self._obs_fallbacks.inc()
            Executor._run_loop(self, loop, env)
            return

        stats = self.stats
        sid = loop.sid
        lo = loop._lo_fn(env)
        hi = loop._hi_fn(env)
        step = loop.step
        if step > 0:
            rng = range(lo, hi + 1, step)
        else:
            rng = range(lo, hi - 1, step)
        trips = len(rng)
        self._enter(sid)
        stats.loop_entries[sid] = stats.loop_entries.get(sid, 0) + 1
        stats.loop_iters[sid] = stats.loop_iters.get(sid, 0) + trips
        if trips:
            k = plan.k
            gather = plan.gather
            if gather is None:
                var = loop.var
                env[var] = lo
                bases = [fn(env) for fn in plan.addr_fns]
                if trips == 1:
                    strides = [0] * k
                else:
                    env[var] = lo + step
                    strides = [fn(env) - base
                               for fn, base in zip(plan.addr_fns, bases)]
                env[var] = rng[-1]  # the value the scalar loop leaves behind
            rows_per_chunk = max(1, self._chunk // k)
            batch = self._access_batch
            rows_fn = self._access_rows
            rids = plan.rids
            stores = plan.stores
            done = 0
            while done < trips:
                m = min(rows_per_chunk, trips - done)
                if gather is not None:
                    # Runs the chunk's iterations against env, as the
                    # scalar walk would, collecting their addresses.
                    addrs = gather(env, rng[done:done + m])
                    batch(rids * m, addrs, stores * m, k)
                elif rows_fn is not None:
                    if done:
                        chunk_bases = [base + done * st
                                       for base, st in zip(bases, strides)]
                    else:
                        chunk_bases = bases
                    rows_fn(rids, stores, chunk_bases, strides, m)
                else:
                    cols = []
                    for base, st in zip(bases, strides):
                        start = base + done * st
                        if st:
                            cols.append(range(start, start + st * m, st))
                        else:
                            cols.append(repeat(start, m))
                    if k == 1:
                        addrs = list(cols[0])
                    else:
                        # Iteration-major interleave: the scalar event order.
                        addrs = list(chain.from_iterable(zip(*cols)))
                    batch(rids * m, addrs, stores * m, k)
                self._obs_chunks.inc()
                done += m
            stats.accesses += trips * k
            stats.loads += trips * plan.n_loads
            stats.stores += trips * plan.n_stores
            stats.ops += trips * plan.ops
            stats.scope_insts[sid] = (
                stats.scope_insts.get(sid, 0) + trips * (k + plan.ops)
            )
        self._exit(sid)


def run_program_batched(program: Program, *handlers: EventHandler,
                        **param_overrides: int) -> RunStats:
    """Convenience wrapper: execute ``program`` through the batch pipeline."""
    if handlers:
        executor = BatchExecutor(program, handlers[0], *handlers[1:])
    else:
        executor = BatchExecutor(program)
    return executor.run(**param_overrides)
