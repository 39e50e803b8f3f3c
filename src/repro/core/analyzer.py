"""The online reuse-pattern analyzer: the paper's primary contribution.

:class:`ReuseAnalyzer` is an event handler (see :mod:`repro.lang.events`)
that, per memory access and per block granularity:

1. advances the logical access clock;
2. looks the block up in the block table to find its previous access
   (time, reference, scope);
3. queries the distance engine for the number of distinct blocks touched
   since then (the reuse distance);
4. finds the carrying scope by searching the dynamic scope stack for the
   most recent scope entered before the previous access;
5. increments the histogram of the reuse pattern
   ``(destination reference, source scope, carrying scope)``.

Multiple granularities run simultaneously off the same clock and scope
stack: cache levels share the line granularity, the TLB uses the page
granularity (reuse distance in distinct pages).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.blocktable import FlatBlockTable, HierarchicalBlockTable
from repro.core.fenwick import FenwickEngine
from repro.core.patterns import PatternDB
from repro.core.scopestack import ScopeStack
from repro.core.treap import TreapEngine
from repro.obs import metrics as _obs

#: Exact-bin limit, mirrored from repro.core.histogram for the inlined
#: binning in the hot loop.
_EXACT_LIMIT = 256
_EXACT_BITS = 8
_SUBBINS = 4

#: Serialization layout version for dump_state/load_state snapshots.
STATE_VERSION = 1


class GranularityState:
    """Per-block-size analysis state."""

    __slots__ = ("name", "block_bits", "table", "engine", "db",
                 "restored_blocks")

    def __init__(self, name: str, block_bits: int, table, engine) -> None:
        self.name = name
        self.block_bits = block_bits
        self.table = table
        self.engine = engine
        self.db = PatternDB()
        #: Footprint restored from a serialized state (the block table
        #: itself is not rehydrated; see ReuseAnalyzer.load_state).
        self.restored_blocks = 0

    @property
    def block_size(self) -> int:
        return 1 << self.block_bits


class ReuseAnalyzer:
    """Online reuse-distance analysis at one or more block granularities.

    Parameters
    ----------
    granularities:
        Mapping of granularity name to block size in bytes (must be powers
        of two), e.g. ``{"line": 64, "page": 512}``.
    engine:
        ``"fenwick"`` (default: the per-access reference, a binary indexed
        tree walked by an inlined closure), ``"treap"`` (the paper's
        balanced tree), or ``"numpy"`` (the buffered array engine, see
        :mod:`repro.core.npengine`, and the one batched implementation:
        :class:`~repro.tools.session.AnalysisSession` runs every batched
        fenwick or numpy analysis through it).  All three produce
        identical results.
    table:
        ``"flat"`` (default, dict) or ``"hierarchical"`` (the paper's
        three-level block table).  Both produce identical results.
    """

    def __init__(
        self,
        granularities: Optional[Dict[str, int]] = None,
        engine: str = "fenwick",
        table: str = "flat",
    ) -> None:
        if granularities is None:
            granularities = {"line": 64, "page": 512}
        if engine not in ("fenwick", "treap", "numpy"):
            raise ValueError(f"unknown engine {engine!r}")
        if table not in ("flat", "hierarchical"):
            raise ValueError(f"unknown table {table!r}")
        if engine == "numpy":
            try:
                from repro.core import npengine as _npengine
            except ImportError as exc:  # pragma: no cover - numpy present in CI
                raise ValueError(
                    "engine='numpy' requires the numpy package") from exc
        self.stack = ScopeStack()
        self.clock = 0
        self.grans: List[GranularityState] = []
        for name, size in granularities.items():
            if size & (size - 1):
                raise ValueError(f"block size must be a power of two: {size}")
            tbl = FlatBlockTable() if table == "flat" else HierarchicalBlockTable()
            if engine == "fenwick":
                eng = FenwickEngine()
            elif engine == "treap":
                eng = TreapEngine()
            else:
                eng = _npengine.NumpyFenwickEngine()
            self.grans.append(
                GranularityState(name, size.bit_length() - 1, tbl, eng)
            )
        # Hot-loop bindings: one tuple per granularity.
        self._hot: List[Tuple] = []
        for g in self.grans:
            if isinstance(g.table, FlatBlockTable):
                tget, tset = g.table.raw.get, g.table.raw.__setitem__
            else:
                tget, tset = g.table.get, g.table.set
            self._hot.append(
                (g.block_bits, tget, tset, g.engine.first, g.engine.reuse,
                 g.db.raw, g.db.cold)
            )
        # Observability: chunk-granularity counters only — the per-access
        # paths stay untouched, and while obs is disabled these are shared
        # no-op objects (see repro.obs.metrics).
        self._obs_batch_calls = _obs.counter("analyzer.batch_calls")
        self._obs_batch_events = _obs.counter("analyzer.batch_events")
        # Specialized per-access closure (fenwick + flat only): inlines the
        # Fenwick traversals and histogram binning, ~2x faster in CPython.
        # access_batch stays the generic per-element loop below.
        if (engine == "fenwick" and table == "flat"
                and len(self.grans) in (1, 2)):
            self.access = _specialized_access(self)
        elif engine == "numpy":
            # Buffered array path: accesses accumulate across calls and
            # scope events; the clock advances eagerly on append, results
            # are resolved in vectorised flushes (see repro.core.npengine).
            self._install_numpy_state(_npengine.NumpyBatchState(self))

    def _install_numpy_state(self, state) -> None:
        """Route the event-handler entry points through a buffered state.

        Called by ``__init__`` for ``engine="numpy"``; a subclassed state
        (such as :mod:`repro.core.shard`'s) is swapped in the same way.
        """
        self._np_state = state
        self._flush = state.flush
        self.access = state.scalar_access
        self.access_batch = state.append_batch
        self.access_rows = state.append_rows
        stack = self.stack

        # Scope events invalidate the state's cached stack snapshot
        # and close any open scalar segment (inlined from
        # NumpyBatchState.on_scope_event: these run once per loop
        # entry/exit, a measurable share of the batched hot path).
        # The closures live on the analyzer, so they reach it weakly: a
        # dropped analyzer is then freed by reference counting.
        def enter_scope(sid, _stack=stack, _state=state,
                        _self=weakref.proxy(self)):
            if _state._open_addrs is not None:
                _state._close_open()
            _state._cur_snap = -1
            _stack._sids.append(sid)
            _stack._clocks.append(_self.clock)

        def exit_scope(sid, _stack=stack, _state=state):
            if _state._open_addrs is not None:
                _state._close_open()
            _state._cur_snap = -1
            _stack._sids.pop()
            _stack._clocks.pop()

        self.enter_scope = enter_scope
        self.exit_scope = exit_scope

    # -- event handler protocol -------------------------------------------

    def enter_scope(self, sid: int) -> None:
        stack = self.stack
        stack._sids.append(sid)
        stack._clocks.append(self.clock)

    def exit_scope(self, sid: int) -> None:
        stack = self.stack
        stack._sids.pop()
        stack._clocks.pop()

    def access(self, rid: int, addr: int, is_store: bool) -> None:
        clock = self.clock + 1
        self.clock = clock
        stack_sids = self.stack._sids
        stack_clocks = self.stack._clocks
        cur_sid = stack_sids[-1] if stack_sids else -1
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
                key = (rid, prev[2], carry)
                bins = raw.get(key)
                if bins is None:
                    bins = {}
                    raw[key] = bins
                if d < _EXACT_LIMIT:
                    b = d
                else:
                    hb = d.bit_length() - 1
                    b = _EXACT_LIMIT + (hb - _EXACT_BITS) * _SUBBINS + (
                        (d >> (hb - 2)) & 3)
                bins[b] = bins.get(b, 0) + 1
            tset(block, (clock, rid, cur_sid))

    def access_batch(self, rids: Sequence[int], addrs: Sequence[int],
                     stores: Sequence[bool], period: int = 0) -> None:
        """Process a chunk of accesses in one call.

        ``period`` (optional) declares that the chunk is row-structured:
        ``rids``/``stores`` repeat with period ``period`` and the chunk
        holds a whole number of rows (one row per loop iteration).  This
        generic per-element loop ignores the hint; the numpy engine's
        buffered window (installed in ``__init__``) uses it for run
        compression.  Semantically identical to calling :meth:`access`
        per element.
        """
        self._obs_batch_calls.inc()
        self._obs_batch_events.inc(len(addrs))
        access = self.access
        for i, rid in enumerate(rids):
            access(rid, addrs[i], stores[i])

    # -- results -------------------------------------------------------------

    def _flush(self) -> None:
        """Resolve buffered work before a result read (no-op by default).

        The numpy engine replaces this with its buffer flush in
        ``__init__``; the per-access engines have nothing pending.
        """

    def granularity(self, name: str) -> GranularityState:
        self._flush()
        for g in self.grans:
            if g.name == name:
                return g
        raise KeyError(name)

    def db(self, name: str) -> PatternDB:
        return self.granularity(name).db

    def distinct_blocks(self, name: str) -> int:
        """Footprint: number of distinct blocks touched at granularity."""
        g = self.granularity(name)
        return len(g.table) or g.restored_blocks

    # -- serialization -----------------------------------------------------

    def dump_state(self) -> Dict:
        """Snapshot the analysis *results* as plain picklable data.

        Captures pattern databases, cold counts, footprints, and the clock
        — everything downstream consumers (prediction, scaling models,
        reports) read.  The block tables and distance-engine internals are
        deliberately excluded: a restored analyzer answers result queries
        but cannot resume the event stream.
        """
        self._flush()
        return {
            "version": STATE_VERSION,
            "clock": self.clock,
            "grans": [
                {
                    "name": g.name,
                    "block_size": g.block_size,
                    "raw": {k: dict(v) for k, v in g.db.raw.items()},
                    "cold": dict(g.db.cold),
                    "blocks": len(g.table) or g.restored_blocks,
                }
                for g in self.grans
            ],
        }

    def load_state(self, state: Dict) -> "ReuseAnalyzer":
        """Restore a :meth:`dump_state` snapshot into this analyzer.

        Granularity names and block sizes must match.  Pattern dicts are
        mutated in place so the specialized closures stay valid.
        """
        self._flush()
        version = state.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"analyzer state version {version!r} does not match this "
                f"build (expected {STATE_VERSION}); the snapshot was "
                "written by an incompatible layout — re-run the analysis "
                "instead of restoring it"
            )
        gran_states = state["grans"]
        if len(gran_states) != len(self.grans) or any(
            gs["name"] != g.name or gs["block_size"] != g.block_size
            for gs, g in zip(gran_states, self.grans)
        ):
            raise ValueError(
                "state granularities do not match this analyzer: "
                f"{[(gs['name'], gs['block_size']) for gs in gran_states]}"
            )
        self.clock = state["clock"]
        for g, gs in zip(self.grans, gran_states):
            g.db.raw.clear()
            g.db.raw.update({k: dict(v) for k, v in gs["raw"].items()})
            g.db.cold.clear()
            g.db.cold.update(gs["cold"])
            g.restored_blocks = gs["blocks"]
        return self

    @classmethod
    def from_state(cls, state: Dict) -> "ReuseAnalyzer":
        """Rebuild a results-only analyzer from a :meth:`dump_state` dict."""
        analyzer = cls({gs["name"]: gs["block_size"]
                        for gs in state["grans"]})
        return analyzer.load_state(state)

    def __repr__(self) -> str:
        self._flush()
        parts = ", ".join(
            f"{g.name}:{g.block_size}B×{len(g.table)}" for g in self.grans
        )
        return f"ReuseAnalyzer(clock={self.clock}, {parts})"


def _specialized_access(analyzer: "ReuseAnalyzer"):
    """Build a closure-based access handler with the Fenwick ops inlined.

    Semantically identical to :meth:`ReuseAnalyzer.access` (the test suite
    cross-checks them); exists purely because attribute lookups and function
    calls dominate the generic path's cost in CPython.
    """
    stack_sids = analyzer.stack._sids
    stack_clocks = analyzer.stack._clocks
    grans = []
    for g in analyzer.grans:
        eng = g.engine
        grans.append((
            g.block_bits, g.table.raw, eng, eng._tree, g.db.raw, g.db.cold,
        ))
    # The clock lives on the analyzer (shared with scope events).  The
    # closure is stored on the analyzer, so it holds it weakly: a strong
    # reference would make a cycle only the cyclic collector frees.
    state = weakref.proxy(analyzer)

    def access(rid: int, addr: int, is_store: bool,
               _grans=tuple(grans), _bisect=bisect_left) -> None:
        clock = state.clock + 1
        state.clock = clock
        cur_sid = stack_sids[-1] if stack_sids else -1
        for shift, table, eng, tree, raw, cold in _grans:
            if clock > eng._cap:
                eng._grow(clock)
            block = addr >> shift
            prev = table.get(block)
            if prev is None:
                cap = eng._cap
                i = clock
                while i <= cap:
                    tree[i] += 1
                    i += i & (-i)
                eng._active += 1
                cold[rid] = cold.get(rid, 0) + 1
            else:
                t_prev = prev[0]
                cap = eng._cap
                i = t_prev
                while i <= cap:
                    tree[i] -= 1
                    i += i & (-i)
                prefix = 0
                i = t_prev
                while i > 0:
                    prefix += tree[i]
                    i -= i & (-i)
                d = (eng._active - 1) - prefix
                i = clock
                while i <= cap:
                    tree[i] += 1
                    i += i & (-i)
                pos = _bisect(stack_clocks, t_prev)
                carry = stack_sids[pos - 1] if pos else (
                    stack_sids[0] if stack_sids else -1)
                key = (rid, prev[2], carry)
                bins = raw.get(key)
                if bins is None:
                    bins = {}
                    raw[key] = bins
                if d < 256:
                    b = d
                else:
                    hb = d.bit_length() - 1
                    b = 256 + (hb - 8) * 4 + ((d >> (hb - 2)) & 3)
                bins[b] = bins.get(b, 0) + 1
            table[block] = (clock, rid, cur_sid)

    return access
