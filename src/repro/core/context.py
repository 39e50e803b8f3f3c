"""Calling-context-sensitive reuse-pattern collection.

Section IV: "While for some applications the distribution of reuse
distances corresponding to a reuse pattern may be different depending on
the calling context ... At this point we do not collect data about the
memory reuse patterns separately for each context tree node to avoid the
additional complexity and run-time overhead.  If needed, the data
collection infrastructure can be extended to include calling context as
well."

This module is that extension: a calling-context tree (à la Ammons/Ball/
Larus, the paper's reference [2]) interned from routine-entry events, and
an analyzer variant that keys every reuse pattern additionally by the
destination access's context node.  ``collapse()`` folds the contexts away,
recovering exactly what the context-insensitive analyzer collects — the
equivalence is tested.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.analyzer import GranularityState, ReuseAnalyzer
from repro.core.patterns import PatternDB
from repro.lang.ast import Program


class CallingContextTree:
    """Interned tree of routine call paths.

    Node 0 is the root (no routine).  Every (parent, routine scope id)
    pair is interned once; node ids are stable within a run.
    """

    def __init__(self) -> None:
        self._parents: List[int] = [-1]
        self._routines: List[int] = [-1]
        self._intern: Dict[Tuple[int, int], int] = {}

    def child(self, parent: int, routine_sid: int) -> int:
        key = (parent, routine_sid)
        ctx = self._intern.get(key)
        if ctx is None:
            ctx = len(self._parents)
            self._intern[key] = ctx
            self._parents.append(parent)
            self._routines.append(routine_sid)
        return ctx

    def path(self, ctx: int) -> List[int]:
        """Routine scope ids from the root to ``ctx``."""
        out: List[int] = []
        while ctx > 0:
            out.append(self._routines[ctx])
            ctx = self._parents[ctx]
        out.reverse()
        return out

    def label(self, ctx: int, program: Program) -> str:
        names = [program.scope(sid).name for sid in self.path(ctx)]
        return " -> ".join(names) if names else "<root>"

    def __len__(self) -> int:
        return len(self._parents)


class ContextReuseAnalyzer(ReuseAnalyzer):
    """Reuse-pattern analysis keyed additionally by calling context.

    Pattern keys in the underlying raw databases become
    ``(rid, src_sid, carry_sid, dest_ctx)``.  Use :meth:`collapsed_db` to
    recover a standard :class:`PatternDB` for the ordinary pipeline, and
    :meth:`contexts_of` to inspect how one pattern splits across contexts.

    ``routine_sids`` tells the analyzer which scope ids are routines (only
    those push calling-context frames); pass
    ``{r.sid for r in program.routines.values()}`` or use
    :func:`for_program`.

    ``engine`` is ``"fenwick"`` or ``"treap"``: every access, batched or
    not, goes through the context-aware :meth:`access`.  The numpy
    engine resolves windows of a segment table or a recording, which
    carry no routine-entry events to build contexts from, so
    ``"numpy"`` is rejected.
    """

    def __init__(self, routine_sids: Iterable[int],
                 granularities: Optional[Dict[str, int]] = None,
                 engine: str = "fenwick") -> None:
        if engine == "numpy":
            raise ValueError("engine='numpy' resolves distances in "
                             "windows fed from a segment table or a "
                             "recording, which carry no calling "
                             "context; use 'fenwick' or 'treap'")
        super().__init__(granularities, engine=engine, table="flat")
        self.cct = CallingContextTree()
        self._routine_sids: Set[int] = set(routine_sids)
        self._ctx_stack: List[int] = [0]
        # The base class's specialized per-access closure bypasses
        # contexts; drop it so the context-aware method below runs (the
        # inherited access_batch calls it per element).
        self.__dict__.pop("access", None)

    # -- event handler -----------------------------------------------------

    def enter_scope(self, sid: int) -> None:
        super().enter_scope(sid)
        if sid in self._routine_sids:
            self._ctx_stack.append(self.cct.child(self._ctx_stack[-1], sid))

    def exit_scope(self, sid: int) -> None:
        super().exit_scope(sid)
        if sid in self._routine_sids:
            self._ctx_stack.pop()

    def access(self, rid: int, addr: int, is_store: bool) -> None:
        clock = self.clock + 1
        self.clock = clock
        stack_sids = self.stack._sids
        stack_clocks = self.stack._clocks
        cur_sid = stack_sids[-1] if stack_sids else -1
        ctx = self._ctx_stack[-1]
        for (shift, tget, tset, efirst, ereuse, raw, cold) in self._hot:
            block = addr >> shift
            prev = tget(block)
            if prev is None:
                efirst(clock)
                cold[rid] = cold.get(rid, 0) + 1
            else:
                t_prev = prev[0]
                d = ereuse(t_prev, clock)
                pos = bisect_left(stack_clocks, t_prev)
                carry = stack_sids[pos - 1] if pos else (
                    stack_sids[0] if stack_sids else -1)
                key = (rid, prev[2], carry, ctx)
                bins = raw.get(key)
                if bins is None:
                    bins = {}
                    raw[key] = bins
                from repro.core.histogram import bin_of
                b = bin_of(d)
                bins[b] = bins.get(b, 0) + 1
            tset(block, (clock, rid, cur_sid))

    # -- queries ------------------------------------------------------------

    def collapsed_db(self, granularity: str) -> PatternDB:
        """Fold contexts away: the context-insensitive pattern database."""
        out = PatternDB()
        source = self.db(granularity)
        for (rid, src, carry, _ctx), bins in source.raw.items():
            merged = out.raw.setdefault((rid, src, carry), {})
            for b, count in bins.items():
                merged[b] = merged.get(b, 0) + count
        out.cold = dict(source.cold)
        return out

    def contexts_of(self, granularity: str,
                    rid: int, src_sid: int, carry_sid: int) -> Dict[int, int]:
        """Per-context reuse counts of one (collapsed) pattern."""
        out: Dict[int, int] = {}
        for (r, s, c, ctx), bins in self.db(granularity).raw.items():
            if (r, s, c) == (rid, src_sid, carry_sid):
                out[ctx] = out.get(ctx, 0) + sum(bins.values())
        return out


def for_program(program: Program,
                granularities: Optional[Dict[str, int]] = None,
                engine: str = "fenwick") -> ContextReuseAnalyzer:
    """Build a context-sensitive analyzer wired to a program's routines."""
    routine_sids = {r.sid for r in program.routines.values()}
    return ContextReuseAnalyzer(routine_sids, granularities, engine=engine)
