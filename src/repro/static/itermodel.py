"""Vectorized iteration-space enumeration for the static estimation engine.

The dynamic engines replay every access; the static engine never runs the
program.  Instead this module *enumerates the loop structure* — not the
accesses — into a compact set of :class:`ItemClass` records:

* Every loop level whose body contains control structure (scalar assigns,
  calls, nested loops, or indirect ``Load`` subscripts) is **enumerated**:
  its iterations become vectorized occurrence points carried as numpy
  arrays (one entry per dynamic instance), with the loop variable, every
  scalar assignment, and every data-dependent bound evaluated by
  :func:`vec_eval` over whole occurrence arrays at once.
* Every innermost loop whose body is pure straight-line statements with
  affine subscripts stays **symbolic**: its (possibly data-dependent) trip
  count and per-reference address intervals are closed forms evaluated per
  occurrence, never iterated.

The result is O(loop structure × outer iterations) work instead of
O(accesses): for a sweep3d cell the six inner ``i`` nests collapse to six
items per cell, whatever ``n`` is.  Index-array contents are frozen at
Program build time (see :meth:`repro.lang.ast.Program.value_stores`), so
indirect subscripts are resolved by vectorized gathers from the same
backing stores the executor would read — "static" means no instrumented
execution, not no table lookups.

:class:`~repro.lang.executor.RunStats` are synthesized exactly during the
walk (access/op counts, loop entries/iterations, per-scope instruction
footprints), matching a real execution field for field.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lang.ast import (
    Access, Add, Call, Const, Expr, FloorDiv, Load, Loop, Max, Min, Mod, Mul,
    Program, ScalarAssign, Stmt, Sub, Var, event_accesses,
)
from repro.lang.batch import _affine_in
from repro.lang.executor import RunStats
from repro.lang.memory import column_major_strides, row_major_strides


class StaticUnsupported(ValueError):
    """The program falls outside the fragment the static engine models."""


#: Ceiling on enumerated occurrence points: beyond this the enumeration
#: itself would rival a dynamic run, which defeats the engine's purpose.
MAX_POINTS = 1 << 23

#: Ceiling on the occurrences the exact engine's segment table orders
#: (:mod:`repro.static.segments`): it holds a few dozen bytes per
#: occurrence, so past this a recorded ``BatchExecutor`` walk, which
#: keeps affine rows symbolic, is the feed.  The paper points need at
#: most 119,764 (GTC micell 6).
STREAM_MAX_POINTS = 1 << 20


# ---------------------------------------------------------------------------
# Vectorized expression evaluation
# ---------------------------------------------------------------------------

def vec_eval(expr: Expr, env: Dict):
    """Evaluate ``expr`` with env values that are ints or numpy arrays.

    Mirrors :meth:`Expr.eval` elementwise; ``Load`` nodes gather from the
    array's frozen backing store (numpy fancy indexing), so data-dependent
    values — diagonal tables, CSR row pointers, particle cell ids — come
    out exactly as the executor would compute them, one whole occurrence
    vector at a time.
    """
    t = type(expr)
    if t is Const:
        return expr.value
    if t is Var:
        try:
            return env[expr.name]
        except KeyError:
            raise StaticUnsupported(
                f"unbound variable {expr.name!r} in static evaluation"
            ) from None
    if t is Add:
        return vec_eval(expr.left, env) + vec_eval(expr.right, env)
    if t is Sub:
        return vec_eval(expr.left, env) - vec_eval(expr.right, env)
    if t is Mul:
        return vec_eval(expr.left, env) * vec_eval(expr.right, env)
    if t is FloorDiv:
        return vec_eval(expr.left, env) // vec_eval(expr.right, env)
    if t is Mod:
        return vec_eval(expr.left, env) % vec_eval(expr.right, env)
    if t is Min:
        out = vec_eval(expr.args[0], env)
        for arg in expr.args[1:]:
            out = np.minimum(out, vec_eval(arg, env))
        return out
    if t is Max:
        out = vec_eval(expr.args[0], env)
        for arg in expr.args[1:]:
            out = np.maximum(out, vec_eval(arg, env))
        return out
    if t is Load:
        return _gather(expr.access, env)
    raise StaticUnsupported(f"cannot statically evaluate {expr!r}")


def _gather(access: Access, env: Dict):
    """Vectorized ``Access.value``: gather from the frozen backing store."""
    arr = access.array
    if arr.values is None:
        return 0
    values = np.asarray(arr.values)
    strides = (column_major_strides(arr.shape) if arr.order == "F"
               else row_major_strides(arr.shape))
    flat = 0
    for ix, stride in zip(access.indices, strides):
        if stride == 0:
            continue
        flat = flat + (vec_eval(ix, env) - arr.origin) * stride
    out = values[flat]
    if isinstance(out, np.ndarray):
        return out.astype(np.int64, copy=False)
    return int(out)


def access_addr(access: Access, env: Dict):
    """Vectorized ``Access.address``: byte address per occurrence."""
    arr = access.array
    addr = arr.base
    if access.field is not None:
        addr += arr.field_offset(access.field)
    for ix, stride in zip(access.indices, arr.strides):
        if stride == 0:
            continue
        addr = addr + (vec_eval(ix, env) - arr.origin) * stride
    return addr


def _reads(expr: Expr) -> set:
    """Names an expression reads, through indirect subscripts too."""
    t = type(expr)
    if t is Var:
        return {expr.name}
    if t is Const:
        return set()
    if t is Load:
        return set().union(*map(_reads, expr.access.indices))
    if t in (Min, Max):
        return set().union(*map(_reads, expr.args))
    return _reads(expr.left) | _reads(expr.right)


def _writes(body, program: Program) -> set:
    """Names a body may rebind: scalar assigns and loop variables,
    through nested loops and calls."""
    out: set = set()
    for node in body:
        if isinstance(node, ScalarAssign):
            out.add(node.var)
        elif isinstance(node, Loop):
            out.add(node.var)
            out |= _writes(node.body, program)
        elif isinstance(node, Call):
            out |= _writes(program.routines[node.callee].body, program)
    return out


def check_scalar_flow(program: Program) -> None:
    """Raise :class:`StaticUnsupported` where the vectorised walk would
    read a different value than the executor.

    The walk evaluates all iterations of an enumerated loop at once, from
    the environment as it stood at loop entry, and keeps a loop body's
    assignments inside the loop.  So a name the body rebinds is *stale*
    when read before its rebinding in the same iteration (it carries the
    previous iteration's value) and after the loop (it carries the last
    iteration's).  A loop whose body rebinds the loop's own variable is
    stale too.  A rebinding before the read, in straight-line order,
    makes the name exact again.
    """
    def check(body, stale: set, where: str) -> None:
        for node in body:
            if isinstance(node, Stmt):
                reads = set().union(*(_reads(ix) for acc in node.accesses
                                      for ix in acc.indices))
            elif isinstance(node, ScalarAssign):
                reads = _reads(node.expr)
            elif isinstance(node, Loop):
                reads = _reads(node.lo) | _reads(node.hi)
            else:
                reads = set()
            late = reads & stale
            if late:
                raise StaticUnsupported(
                    f"{where}: {sorted(late)} read where the value comes "
                    f"from an earlier iteration of an enclosing loop")
            if isinstance(node, ScalarAssign):
                stale.discard(node.var)
            elif isinstance(node, Call):
                check(program.routines[node.callee].body, stale,
                      node.callee)
            elif isinstance(node, Loop):
                rebinds = _writes(node.body, program)
                if node.var in rebinds:
                    raise StaticUnsupported(
                        f"loop {node.name!r} rebinds its own variable "
                        f"{node.var!r}")
                check(node.body, (stale - {node.var}) | rebinds, node.name)
                stale |= rebinds

    check(program.routines[program.entry].body, set(), program.entry)


def _bcast(value, n: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.int64, copy=False)
    return np.full(n, int(value), dtype=np.int64)


# ---------------------------------------------------------------------------
# Item classes
# ---------------------------------------------------------------------------

class RefVec:
    """One reference of an item class, with per-occurrence address data.

    For ``"nest"`` items ``addr0`` is the byte address at the first inner
    iteration and ``stride`` the signed per-iteration byte stride; for
    ``"stmts"`` items ``addr0`` is the exact address and ``stride`` zero.
    """

    __slots__ = ("access", "rid", "array", "elem", "is_store",
                 "addr0", "stride")

    def __init__(self, access: Access, addr0: np.ndarray,
                 stride: np.ndarray) -> None:
        self.access = access
        self.rid = access.rid
        self.array = access.array.name
        self.elem = access.array.elem_size
        self.is_store = access.is_store
        self.addr0 = addr0
        self.stride = stride


class ItemClass:
    """One class of leaf work, vectorized over its dynamic occurrences.

    ``kind`` is ``"nest"`` (a symbolic innermost loop: ``trip`` holds the
    per-occurrence trip counts, ``inner_sid`` the loop's scope id) or
    ``"stmts"`` (a straight-line statement at an enumerated level:
    ``trip`` is all ones, ``inner_sid`` the innermost enclosing scope).

    ``chain`` is the root path of interleaved levels
    ``(kind, sid, digits)`` with kind ``"routine"`` | ``"loop"`` |
    ``"pos"``; digits are per-occurrence iteration numbers (arrays) or
    class-constant ints.  Chains of different classes align level-by-level
    because they are paths in one tree, which is what lets the profiler
    lexsort all events into the exact global interleaving and recover
    carrying scopes by digit comparison.
    """

    __slots__ = ("kind", "chain", "n_occ", "trip", "refs", "inner_sid")

    def __init__(self, kind: str, chain: List[Tuple], n_occ: int,
                 trip: np.ndarray, refs: List[RefVec],
                 inner_sid: int) -> None:
        self.kind = kind
        self.chain = chain
        self.n_occ = n_occ
        self.trip = trip
        self.refs = refs
        self.inner_sid = inner_sid

    def __repr__(self) -> str:
        return (f"<item {self.kind} x{self.n_occ} refs={len(self.refs)} "
                f"sid={self.inner_sid}>")


# ---------------------------------------------------------------------------
# The enumerator
# ---------------------------------------------------------------------------

class IterModel:
    """Walk a program into item classes + exact synthesized RunStats."""

    def __init__(self, program: Program,
                 params: Optional[Dict[str, int]] = None,
                 max_points: int = MAX_POINTS) -> None:
        self.program = program
        self.max_points = int(max_points)
        self.items: List[ItemClass] = []
        self.stats = RunStats(len(program.scopes))
        env: Dict = dict(program.params)
        if params:
            env.update(params)
        env = {k: int(v) for k, v in env.items()}
        check_scalar_flow(program)
        entry = program.routines[program.entry]
        chain: List[Tuple] = [("routine", entry.sid, 0)]
        self._body(entry.body, env, chain, 1)

    # -- body walk -------------------------------------------------------

    def _body(self, body, env: Dict, chain: List[Tuple], npts: int) -> None:
        for pos, node in enumerate(body):
            pchain = chain + [("pos", -2, pos)]
            if isinstance(node, Stmt):
                self._stmt_item(node, env, pchain, npts, node.ops)
            elif isinstance(node, ScalarAssign):
                self._stmt_item(node, env, pchain, npts, 1)
                value = vec_eval(node.expr, env)
                if isinstance(value, np.ndarray):
                    value = value.astype(np.int64, copy=False)
                env[node.var] = value
            elif isinstance(node, Call):
                callee = self.program.routines[node.callee]
                # Same env object: the executor shares one environment
                # across calls, so assignments propagate both ways.
                self._body(callee.body, env,
                           pchain + [("routine", callee.sid, 0)], npts)
            elif isinstance(node, Loop):
                self._loop(node, env, pchain, npts)
            else:  # pragma: no cover - defensive
                raise StaticUnsupported(f"unexpected node {node!r}")

    def _innermost_sid(self, chain: List[Tuple]) -> int:
        for kind, sid, _digits in reversed(chain):
            if kind in ("routine", "loop"):
                return sid
        raise AssertionError("chain has no scope level")  # pragma: no cover

    def _stmt_item(self, node, env: Dict, chain: List[Tuple], npts: int,
                   ops: int) -> None:
        evs = event_accesses(node)
        stats = self.stats
        n = len(evs)
        stats.accesses += n * npts
        stats.ops += ops * npts
        for acc in evs:
            if acc.is_store:
                stats.stores += npts
            else:
                stats.loads += npts
        sid = self._innermost_sid(chain)
        stats.scope_insts[sid] = (stats.scope_insts.get(sid, 0)
                                  + (n + ops) * npts)
        if not evs:
            return
        refs = []
        zero = np.zeros(npts, dtype=np.int64)
        for acc in evs:
            addr = _bcast(access_addr(acc, env), npts)
            refs.append(RefVec(acc, addr, zero))
        self.items.append(ItemClass(
            "stmts", chain, npts, np.ones(npts, dtype=np.int64), refs, sid))

    # -- loops -----------------------------------------------------------

    def _loop(self, node: Loop, env: Dict, chain: List[Tuple],
              npts: int) -> None:
        stats = self.stats
        step = node.step
        lo = _bcast(vec_eval(node.lo, env), npts)
        hi = _bcast(vec_eval(node.hi, env), npts)
        trips = np.maximum((hi - lo + step) // step, 0)
        stats.loop_entries[node.sid] = (
            stats.loop_entries.get(node.sid, 0) + npts)
        total = int(trips.sum())
        stats.loop_iters[node.sid] = (
            stats.loop_iters.get(node.sid, 0) + total)
        if total == 0:
            return
        if self._try_nest(node, env, chain, npts, lo, hi, trips):
            self._set_final(node, env, lo, trips, step)
            return
        if total > self.max_points:
            raise StaticUnsupported(
                f"loop {node.name!r} enumerates {total} points "
                f"(> {self.max_points}); the program is too irregular for "
                f"the static engine at this size")
        counts = trips
        starts = np.cumsum(counts) - counts
        idx = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        env2: Dict = {}
        for name, value in env.items():
            if isinstance(value, np.ndarray):
                env2[name] = np.repeat(value, counts)
            else:
                env2[name] = value
        env2[node.var] = np.repeat(lo, counts) + idx * step
        chain2 = [
            (kind, sid, np.repeat(d, counts) if isinstance(d, np.ndarray)
             else d)
            for kind, sid, d in chain
        ]
        chain2.append(("loop", node.sid, idx))
        self._body(node.body, env2, chain2, total)
        self._set_final(node, env, lo, trips, step)

    def _set_final(self, node: Loop, env: Dict, lo: np.ndarray,
                   trips: np.ndarray, step: int) -> None:
        """Post-loop value of the loop variable (Fortran do-loop exit)."""
        valid = trips > 0
        final = lo + (trips - 1) * step
        if bool(valid.all()):
            env[node.var] = final
        elif bool(valid.any()):
            prior = env.get(node.var)
            if prior is None:
                prior = lo
            env[node.var] = np.where(valid, final, _bcast(prior, lo.size))

    def _try_nest(self, node: Loop, env: Dict, chain: List[Tuple],
                  npts: int, lo: np.ndarray, hi: np.ndarray,
                  trips: np.ndarray) -> bool:
        """Emit a symbolic-nest item if the loop body qualifies.

        Qualifies = pure straight-line ``Stmt`` body whose subscripts are
        affine in the loop variable by construction (``_affine_in``, the
        rule ``BatchExecutor`` compiles affine plans by: no indirect
        subscript, and ``Mod``/``FloorDiv``/``Min``/``Max`` only over
        iteration-invariant operands), and numerically affine across the
        whole range at the first, second and last iteration per
        occurrence.  A probe alone is not enough: ``4*(i//4) + i%2``
        matches a line at three points and not between them.
        """
        refs: List[Access] = []
        ops = 0
        for sub in node.body:
            if not isinstance(sub, Stmt):
                return False
            for acc in sub.accesses:
                for ix in acc.indices:
                    if not _affine_in(ix, node.var):
                        return False
            refs.extend(sub.accesses)
            ops += sub.ops
        env0 = dict(env)
        env0[node.var] = lo
        env1 = dict(env)
        env1[node.var] = lo + node.step
        envh = dict(env)
        envh[node.var] = hi
        multi = trips >= 2
        addr0s: List[np.ndarray] = []
        strides: List[np.ndarray] = []
        for acc in refs:
            a0 = _bcast(access_addr(acc, env0), npts)
            ah = _bcast(access_addr(acc, envh), npts)
            stride = np.where(
                multi, _bcast(access_addr(acc, env1), npts) - a0, 0)
            if not bool(np.all(~multi | (ah - a0 == stride * (trips - 1)))):
                return False
            addr0s.append(a0)
            strides.append(stride)
        total = int(trips.sum())
        stats = self.stats
        n = len(refs)
        stats.accesses += n * total
        stats.ops += ops * total
        for acc in refs:
            if acc.is_store:
                stats.stores += total
            else:
                stats.loads += total
        if node.body:  # the executor counts per statement run
            stats.scope_insts[node.sid] = (
                stats.scope_insts.get(node.sid, 0) + (n + ops) * total)
        if not refs:
            return True
        keep = trips > 0
        if bool(keep.all()):
            kept_chain, kept_trips = chain, trips
        else:
            kept_trips = trips[keep]
            kept_chain = [
                (kind, sid, d[keep] if isinstance(d, np.ndarray) else d)
                for kind, sid, d in chain
            ]
            addr0s = [a[keep] for a in addr0s]
            strides = [s[keep] for s in strides]
        vecs = [RefVec(acc, a, s)
                for acc, a, s in zip(refs, addr0s, strides)]
        self.items.append(ItemClass(
            "nest", kept_chain, int(kept_trips.size), kept_trips, vecs,
            node.sid))
        return True


def enumerate_program(program: Program,
                      params: Optional[Dict[str, int]] = None,
                      max_points: int = MAX_POINTS
                      ) -> Tuple[List[ItemClass], RunStats]:
    """Enumerate ``program`` into item classes + exact synthesized stats."""
    model = IterModel(program, params, max_points)
    return model.items, model.stats
