"""The numpy window's input, built from the static enumeration.

:func:`~repro.static.itermodel.enumerate_program` describes a run as item
classes: every dynamic occurrence of a symbolic innermost loop (a
``"nest"``) or of a straight-line statement (a ``"stmts"`` item), each
with its root path of iteration digits.  :class:`SegmentTable` orders
those occurrences in time and cuts them into the segments the numpy
engine's flush pipeline consumes (:class:`~repro.core.npengine.
WindowArrays`), so the exact engine runs without a ``BatchExecutor``
walk.  The table is exact, not an estimate: the materialised
``(rid, addr)`` stream equals an executor's recording element by element.

* **Order and clocks.**  One sort of every occurrence by its chain
  digits, outer level first (as ``StaticProfiler._flatten`` orders
  events), gives program order.  An occurrence's start clock is the sum
  of the lengths before it: ``trip * k`` for a nest, ``k`` for stmts.
* **Snapshots.**  A routine or loop level's activation starts at the
  first occurrence whose digits above that level differ from the
  previous occurrence's; its entry clock is that occurrence's start
  clock.  (Equal digits above a level imply equal scopes down to it:
  chains are paths in one tree.)  A nest's own loop is one activation
  per occurrence.  Scopes that make no access never appear in a
  snapshot the engine reads, so leaving them out is exact.
* **Segments.**  Each nest occurrence is one segment of period ``k``,
  cut into chunks of at most :data:`~repro.lang.batch.CHUNK_ACCESSES`
  as ``BatchExecutor`` cuts them.  Consecutive stmts occurrences in one
  activation of their innermost scope form one segment; it gets period
  ``p`` (accesses per innermost iteration) only when its occurrence
  sequence, hence its rid sequence, repeats with that period, since run
  compression drops rows on block equality alone.  Long stmts segments
  are cut at whole rows (or, without a period, every
  ``CHUNK_ACCESSES``).  Segment boundaries never change results.
* **Windows.**  :meth:`SegmentTable.windows` cuts at segment boundaries
  once ``threshold`` accesses are pending, the rule the engine's
  ``append_*`` entry points apply, and each window is materialised only
  when its flush runs, one scatter per item.  No whole-program address
  array is built.
* **Slices.**  :meth:`SegmentTable.slices` cuts the table into time
  shards at segment boundaries for :mod:`repro.core.shard` (a recorded
  trace is cut between ops by the same rule); each slice is a table of
  its own holding only its segments, occurrences and snapshots (views
  of the parent's arrays), so K pickled slices cost about one table.
  :attr:`SegmentTable.digest` names a table's content for the shard
  partials' cache keys.

Programs over :data:`~repro.static.itermodel.STREAM_MAX_POINTS`
occurrences raise :class:`~repro.static.itermodel.StaticUnsupported`
like any program the enumeration rejects; the caller then walks it with
``BatchExecutor``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.npengine import WindowArrays
from repro.lang.ast import Program
from repro.lang.batch import CHUNK_ACCESSES
from repro.lang.executor import RunStats
from repro.static.itermodel import (
    STREAM_MAX_POINTS, ItemClass, StaticUnsupported, enumerate_program,
)


class _Item:
    """What materialising one item class needs: its occurrences' sorted
    positions, and per reference its rid and per-occurrence address
    data (the stride and trip arrays only for nests)."""

    __slots__ = ("pos", "k", "rids", "addr0", "stride", "trip")

    def __init__(self, item: ItemClass, pos: np.ndarray) -> None:
        self.pos = pos
        self.k = len(item.refs)
        self.rids = np.array([ref.rid for ref in item.refs], dtype=np.int64)
        self.addr0 = np.stack([ref.addr0 for ref in item.refs], axis=1)
        if item.kind == "nest":
            self.stride = np.stack([ref.stride for ref in item.refs], axis=1)
            self.trip = item.trip
        else:
            self.stride = self.trip = None

    def part(self, lo: int, hi: int, occ0: int) -> "_Item":
        """Occurrences ``lo .. hi - 1``, positions rebased by ``occ0``."""
        part = object.__new__(_Item)
        part.pos = self.pos[lo:hi] - occ0
        part.k = self.k
        part.rids = self.rids
        part.addr0 = self.addr0[lo:hi]
        part.stride = None if self.stride is None else self.stride[lo:hi]
        part.trip = None if self.trip is None else self.trip[lo:hi]
        return part


#: Format tag of :attr:`SegmentTable.digest`; bump when the table's
#: arrays change meaning.
_DIGEST_TAG = "repro-segment-table:1"


#: Bits of one packed sort key (an int64 that stays non-negative).
_PACK_BITS = 62


def _digit_packs(items: List[ItemClass], depth: int) -> List[List[int]]:
    """Chain levels grouped so each group's digits pack into one int64.

    Level ``l`` takes the bits of its largest digit plus one (padding
    past a chain's end is -1, stored as 0).
    """
    packs: List[List[int]] = [[]]
    used = 0
    for lvl in range(depth):
        top = 0
        for item in items:
            if lvl < len(item.chain):
                dig = item.chain[lvl][2]
                top = max(top, int(dig.max()) if isinstance(dig, np.ndarray)
                          else int(dig))
        bits = (top + 1).bit_length()
        if used + bits > _PACK_BITS and packs[-1]:
            packs.append([])
            used = 0
        packs[-1].append((lvl, bits))
        used += bits
    return packs


class SegmentTable:
    """A whole run's segments and scope snapshots, built from the
    enumeration's items; materialised one window at a time."""

    def __init__(self, items: List[ItemClass], stats: RunStats) -> None:
        self.stats = stats
        n_occ = np.array([item.n_occ for item in items], dtype=np.int64)
        total_occ = int(n_occ.sum())
        if total_occ > STREAM_MAX_POINTS:
            raise StaticUnsupported(
                f"{total_occ} item occurrences (> {STREAM_MAX_POINTS}); "
                f"too many to order as one segment table")
        self.accesses = stats.accesses
        self._items: List[_Item] = []
        if not total_occ:
            self._seg_clock = np.zeros(1, dtype=np.int64)
            return
        order = self._order(items, n_occ)
        self._build(items, n_occ, order)

    # -- build -----------------------------------------------------------

    def _order(self, items: List[ItemClass],
               n_occ: np.ndarray) -> np.ndarray:
        """Program order of every occurrence: a sort of the packed chain
        digits.  Keeps the packed keys (sorted) for the activation pass."""
        depth = max(len(item.chain) for item in items)
        packs = _digit_packs(items, depth)
        base = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(n_occ, out=base[1:])
        total = int(base[-1])
        keys = []
        #: level -> (pack index, shift, mask)
        self._level_bits: Dict[int, Tuple[int, int, int]] = {}
        for pi, pack in enumerate(packs):
            key = np.zeros(total, dtype=np.int64)
            shift = sum(bits for _lvl, bits in pack)
            for lvl, bits in pack:
                shift -= bits
                self._level_bits[lvl] = (pi, shift, (1 << bits) - 1)
                for it, item in enumerate(items):
                    if lvl < len(item.chain):
                        dig = item.chain[lvl][2]
                        key[base[it]:base[it + 1]] += (dig + 1) << shift
            keys.append(key)
        if len(keys) == 1:
            order = np.argsort(keys[0])
        else:
            order = np.lexsort(keys[::-1])
        self._keys = [key[order] for key in keys]
        self._base = base
        return order

    def _prefix_change(self, lvl: int) -> np.ndarray:
        """Per sorted occurrence: do its digits above ``lvl`` differ from
        the previous occurrence's (True for the first)?"""
        n = self._keys[0].size
        out = np.zeros(n, dtype=bool)
        out[0] = True
        if lvl == 0:
            return out
        pi, shift, mask = self._level_bits[lvl - 1]
        for key in self._keys[:pi]:
            out[1:] |= key[1:] != key[:-1]
        prefix = self._keys[pi] >> shift
        out[1:] |= prefix[1:] != prefix[:-1]
        return out

    def _digit(self, lvl: int, sel: np.ndarray) -> np.ndarray:
        pi, shift, mask = self._level_bits[lvl]
        return ((self._keys[pi][sel] >> shift) & mask) - 1

    def _build(self, items: List[ItemClass], n_occ: np.ndarray,
               order: np.ndarray) -> None:
        total_occ = order.size
        nitems = len(items)
        depth = max(len(item.chain) for item in items)
        is_nest_item = np.array([item.kind == "nest" for item in items])
        k_item = np.array([len(item.refs) for item in items], dtype=np.int64)
        inner_item = np.array([item.inner_sid for item in items],
                              dtype=np.int64)
        # scope id per (level, item): >= 0 for routine/loop levels
        scope_item = np.full((depth, nitems), -1, dtype=np.int64)
        innermost = np.zeros(nitems, dtype=np.int64)
        for it, item in enumerate(items):
            for lvl, (kind, sid, _dig) in enumerate(item.chain):
                if kind != "pos":
                    scope_item[lvl, it] = sid
                    innermost[it] = lvl

        item_s = np.repeat(np.arange(nitems, dtype=np.int32), n_occ)[order]
        lens = np.empty(total_occ, dtype=np.int64)
        base = self._base
        for it, item in enumerate(items):
            k = k_item[it]
            lens[base[it]:base[it + 1]] = (item.trip * k if is_nest_item[it]
                                           else k)
        start = np.zeros(total_occ + 1, dtype=np.int64)
        np.cumsum(lens[order], out=start[1:])
        del lens
        inv = np.empty(total_occ, dtype=np.int32)
        inv[order] = np.arange(total_occ, dtype=np.int32)
        del order
        for it, item in enumerate(items):
            pos = inv[base[it]:base[it + 1]]
            if pos.size > 1 and not bool((pos[1:] > pos[:-1]).all()):
                # occurrences come out of the enumeration in time order
                raise StaticUnsupported(  # pragma: no cover - invariant
                    "item occurrences out of program order")
            self._items.append(_Item(item, pos))

        # ---- segment heads: nest occurrences, and stmts occurrences that
        # open an activation of their innermost scope ----
        is_nest = is_nest_item[item_s]
        stmts = ~is_nest
        lin = innermost[item_s]
        new_inner = np.zeros(total_occ, dtype=bool)
        din = np.zeros(total_occ, dtype=np.int64)
        for lvl in np.unique(lin[stmts]).tolist():
            at = np.flatnonzero(stmts & (lin == lvl))
            new_inner[at] = self._prefix_change(lvl)[at]
            din[at] = self._digit(lvl, at)
        head = is_nest.copy()
        head[0] = True
        head[1:] |= stmts[1:] & (is_nest[:-1] | (lin[1:] != lin[:-1])
                                 | new_inner[1:])
        hpos = np.flatnonzero(head)
        nheads = hpos.size
        head_of = np.cumsum(head) - 1
        hend = np.empty(nheads, dtype=np.int64)
        hend[:-1] = hpos[1:]
        hend[-1] = total_occ

        # ---- stmts periods: q occurrences per innermost iteration, kept
        # only when the occurrence sequence repeats with period q ----
        change = np.full(total_occ + 1, total_occ, dtype=np.int64)
        ichg = np.flatnonzero(din[1:] != din[:-1]) + 1
        change[ichg] = ichg
        change = np.minimum.accumulate(change[::-1])[::-1]
        occ_len = hend - hpos
        q = np.minimum(change[np.minimum(hpos + 1, total_occ)], hend) - hpos
        periodic = stmts[hpos] & (q < occ_len) & (occ_len % q == 0)
        if periodic.any():
            hq = np.where(periodic, q, 0)[head_of]
            j = np.flatnonzero(hq[:total_occ] > 0)
            jq = j + hq[j]
            inside = jq < hend[head_of[j]]
            bad = j[inside][item_s[j[inside]] != item_s[jq[inside]]]
            periodic[np.unique(head_of[bad])] = False
        qp = np.where(periodic, q, 0)
        per = np.where(periodic, start[hpos + qp] - start[hpos], 0)

        # ---- chunk cuts within stmts segments: whole rows when periodic,
        # every CHUNK_ACCESSES otherwise ----
        h_of = hpos[head_of]
        per_o = per[head_of]
        rows_per = np.maximum(1, CHUNK_ACCESSES // np.maximum(per_o, 1))
        chunk_key = np.where(
            per_o > 0, (np.arange(total_occ) - h_of)
            // np.maximum(qp[head_of] * rows_per, 1),
            (start[:-1] - start[h_of]) // CHUNK_ACCESSES)
        cut = head & stmts
        cut[1:] |= stmts[1:] & (chunk_key[1:] != chunk_key[:-1])
        del chunk_key, h_of, per_o, rows_per, din, new_inner

        # ---- the segment table ----
        k_s = k_item[item_s]
        nest_rows = np.maximum(1, CHUNK_ACCESSES // k_s)
        trips = np.zeros(total_occ, dtype=np.int64)
        for entry in self._items:
            if entry.trip is not None:
                trips[entry.pos] = entry.trip
        count = np.where(is_nest, -(-trips // nest_rows), cut)
        seg_occ = np.repeat(np.arange(total_occ), count)
        first = np.cumsum(count) - count
        chunk = np.arange(seg_occ.size) - first[seg_occ]
        seg_clock = np.empty(seg_occ.size + 1, dtype=np.int64)
        seg_clock[:-1] = (start[seg_occ]
                          + chunk * nest_rows[seg_occ] * k_s[seg_occ])
        seg_clock[-1] = start[-1]
        seg_head = head_of[seg_occ]
        seg_len = np.diff(seg_clock)
        seg_per = np.where(is_nest[seg_occ], k_s[seg_occ], per[seg_head])
        seg_per[seg_len % np.maximum(seg_per, 1) != 0] = 0
        self._seg_clock = seg_clock
        self._seg_per = seg_per
        self._seg_head = seg_head
        self._start = start
        del seg_occ, first, chunk, count, trips

        # ---- scope snapshots, one per head: every routine/loop level of
        # its chain with the entry clock of its activation, plus a nest's
        # own loop entered at the occurrence's start ----
        h_item = item_s[hpos]
        levels = [lvl for lvl in range(depth) if (scope_item[lvl] >= 0).any()]
        valid = np.zeros((len(levels) + 1, nheads), dtype=bool)
        sids = np.empty((len(levels) + 1, nheads), dtype=np.int64)
        clocks = np.empty((len(levels) + 1, nheads), dtype=np.int64)
        arange = np.arange(total_occ, dtype=np.int64)
        for row, lvl in enumerate(levels):
            sids[row] = scope_item[lvl, h_item]
            valid[row] = sids[row] >= 0
            entry = np.maximum.accumulate(
                np.where(self._prefix_change(lvl), arange, 0))
            clocks[row] = start[entry[hpos]]
        valid[-1] = is_nest_item[h_item]
        sids[-1] = inner_item[h_item]
        clocks[-1] = start[hpos]
        del self._keys, self._level_bits, self._base
        mask = valid.T
        self._flat_sids = sids.T[mask]
        self._flat_clocks = clocks.T[mask]
        depths = mask.sum(axis=1)
        self._snap_offs = np.zeros(nheads + 1, dtype=np.int64)
        np.cumsum(depths, out=self._snap_offs[1:])
        self._snap_depths = depths
        top = self._snap_offs[1:] - 1
        self._snap_top_sid = self._flat_sids[top]
        self._snap_top_clock = self._flat_clocks[top]

    # -- windows ---------------------------------------------------------

    @property
    def segments(self) -> int:
        return self._seg_clock.size - 1

    def windows(self, threshold: int
                ) -> Iterator[Tuple[int, Callable[[], WindowArrays]]]:
        """``(accesses, materialise)`` per window, in time order.

        A window ends at the first segment boundary where ``threshold``
        or more accesses are pending.
        """
        clock = self._seg_clock
        nseg = clock.size - 1
        s0 = 0
        while s0 < nseg:
            s1 = int(np.searchsorted(clock, clock[s0] + threshold))
            s1 = min(max(s1, s0 + 1), nseg)
            yield (int(clock[s1] - clock[s0]),
                   lambda s0=s0, s1=s1: self.window(s0, s1))
            s0 = s1

    def window(self, s0: int, s1: int) -> WindowArrays:
        """Segments ``s0 .. s1 - 1``, materialised."""
        c0 = int(self._seg_clock[s0])
        c1 = int(self._seg_clock[s1])
        n = c1 - c0
        start = self._start
        o0 = int(np.searchsorted(start, c0, side="right")) - 1
        o1 = int(np.searchsorted(start, c1, side="left"))
        A = np.empty(n, dtype=np.int64)
        R = np.empty(n, dtype=np.int64)
        for entry in self._items:
            lo = int(np.searchsorted(entry.pos, o0))
            hi = int(np.searchsorted(entry.pos, o1))
            if lo == hi:
                continue
            st = start[entry.pos[lo:hi]] - c0
            k = entry.k
            cols = np.arange(k, dtype=np.int64)
            if entry.trip is None:
                at = st[:, None] + cols
                A[at] = entry.addr0[lo:hi]
                R[at] = entry.rids
                continue
            # rows of each occurrence inside [c0, c1): only the first
            # and the last occurrence can be cut, at a row boundary
            r_lo = np.maximum(-st, 0) // k
            r_hi = np.minimum(entry.trip[lo:hi], (n - st) // k)
            cnt = r_hi - r_lo
            occ = np.repeat(np.arange(hi - lo), cnt)
            row = (np.arange(occ.size, dtype=np.int64)
                   - np.repeat(np.cumsum(cnt) - cnt - r_lo, cnt))
            at = (st[occ] + row * k)[:, None] + cols
            A[at] = (entry.addr0[lo:hi][occ]
                     + row[:, None] * entry.stride[lo:hi][occ])
            R[at] = entry.rids
        h0 = int(self._seg_head[s0])
        h1 = int(self._seg_head[s1 - 1]) + 1
        offs = self._snap_offs
        return WindowArrays(
            A, R, np.diff(self._seg_clock[s0:s1 + 1]),
            self._seg_per[s0:s1].astype(np.int64),
            (self._seg_head[s0:s1] - h0).astype(np.int64),
            self._snap_top_sid[h0:h1], self._snap_top_clock[h0:h1],
            self._snap_depths[h0:h1].astype(np.int64),
            self._flat_clocks[offs[h0]:offs[h1]],
            self._flat_sids[offs[h0]:offs[h1]])

    # -- shards ----------------------------------------------------------

    def slices(self, nshards: int) -> List["TableSlice"]:
        """Cut the table into at most ``nshards`` time shards.

        Shard ``i`` starts at the first segment boundary at or after
        ``i * n // nshards`` accesses; cuts that land on one boundary
        collapse, so a run gets at most ``min(nshards, segments)``
        shards, and an empty table gives one empty shard.  A segment
        holds at most ``CHUNK_ACCESSES`` accesses, so each cut lands
        less than one chunk past its target.  A shard's seeds are the
        entries of its first segment's snapshot entered before its
        start.
        """
        clock = self._seg_clock
        nseg = clock.size - 1
        if not nseg:
            return [TableSlice(0, 0, 0, (), (), self)]
        n = self.accesses
        k = max(1, int(nshards))
        cuts = np.searchsorted(clock, [i * n // k for i in range(k)])
        bounds = np.unique(np.append(cuts, nseg)).tolist()
        out = []
        for index, (s0, s1) in enumerate(zip(bounds, bounds[1:])):
            start = int(clock[s0])
            head = int(self._seg_head[s0])
            lo, hi = self._snap_offs[head], self._snap_offs[head + 1]
            clocks = self._flat_clocks[lo:hi]
            seed = clocks < start
            out.append(TableSlice(
                index, start, int(clock[s1]) - start,
                tuple(self._flat_sids[lo:hi][seed].tolist()),
                tuple(clocks[seed].tolist()), self._sub(s0, s1)))
        return out

    def _sub(self, s0: int, s1: int) -> "SegmentTable":
        """Segments ``s0 .. s1 - 1`` as a table of their own.

        Address, clock and snapshot arrays are views of this table's;
        only the occurrence, head and snapshot-offset indices are
        rebased copies.
        """
        sub = object.__new__(SegmentTable)
        sub.stats = self.stats
        clock = self._seg_clock
        c0, c1 = int(clock[s0]), int(clock[s1])
        sub.accesses = c1 - c0
        start = self._start
        o0 = int(np.searchsorted(start, c0, side="right")) - 1
        o1 = int(np.searchsorted(start, c1, side="left"))
        sub._start = start[o0:o1 + 1]
        sub._items = []
        for entry in self._items:
            lo = int(np.searchsorted(entry.pos, o0))
            hi = int(np.searchsorted(entry.pos, o1))
            if lo < hi:
                sub._items.append(entry.part(lo, hi, o0))
        h0 = int(self._seg_head[s0])
        h1 = int(self._seg_head[s1 - 1]) + 1
        offs = self._snap_offs
        sub._seg_clock = clock[s0:s1 + 1]
        sub._seg_per = self._seg_per[s0:s1]
        sub._seg_head = self._seg_head[s0:s1] - h0
        sub._snap_offs = offs[h0:h1 + 1] - offs[h0]
        sub._snap_depths = self._snap_depths[h0:h1]
        sub._snap_top_sid = self._snap_top_sid[h0:h1]
        sub._snap_top_clock = self._snap_top_clock[h0:h1]
        sub._flat_sids = self._flat_sids[offs[h0]:offs[h1]]
        sub._flat_clocks = self._flat_clocks[offs[h0]:offs[h1]]
        return sub

    @property
    def digest(self) -> str:
        """sha256 over a format tag and the table's arrays.

        Equal digests mean equal streams, clocks and snapshots, hence
        equal shard results: it keys the shard partials (see
        :meth:`~repro.tools.cache.AnalysisCache.trace_shard_key_for`).
        """
        h = hashlib.sha256(f"{_DIGEST_TAG}:{self.accesses}".encode())
        arrays = [self._seg_clock]
        if self.segments:
            arrays += [self._seg_per, self._seg_head, self._start,
                       self._snap_offs, self._flat_sids, self._flat_clocks]
        for entry in self._items:
            arrays += [entry.rids, entry.pos, entry.addr0]
            if entry.trip is not None:
                arrays += [entry.stride, entry.trip]
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr)
        return h.hexdigest()

    def stream(self) -> Tuple[np.ndarray, np.ndarray]:
        """The whole run's ``(rids, addrs)``, materialised at once (for
        checks; the engine's feed goes window by window)."""
        if not self.segments:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        win = self.window(0, self.segments)
        return win.rids, win.addrs


@dataclass(frozen=True)
class TableSlice:
    """One contiguous time shard of a segment table (picklable).

    The table-fed counterpart of
    :class:`~repro.core.tracestore.StoredShardSlice`: ``table`` holds
    only the shard's segments, and the seeds are the scopes live at
    ``start`` (global entry clocks, all below ``start``).
    """

    index: int
    #: global clock before the shard's first access
    start: int
    #: accesses in the shard
    length: int
    seed_sids: Tuple[int, ...]
    seed_clocks: Tuple[int, ...]
    table: SegmentTable

    def windows(self, threshold: int
                ) -> Iterator[Tuple[int, Callable[[], WindowArrays]]]:
        """The slice's windows: its table's (:meth:`SegmentTable.windows`)."""
        return self.table.windows(threshold)


def build_segments(program: Program,
                   params: Optional[Dict[str, int]] = None) -> SegmentTable:
    """Enumerate ``program`` and build its segment table.

    Raises :class:`~repro.static.itermodel.StaticUnsupported` when the
    enumeration rejects the program or it exceeds the point budget.
    """
    items, stats = enumerate_program(program, params,
                                     max_points=STREAM_MAX_POINTS)
    return SegmentTable(items, stats)
