"""NumPy array engine: windowed, vectorised reuse-distance analysis.

``engine="numpy"`` puts an ndarray Fenwick tree behind the analyzer
(:class:`NumpyFenwickEngine`, which keeps the scalar ``first``/``reuse``
protocol too), and :class:`NumpyBatchState` resolves whole windows of
accesses with array operations instead of walking the tree once per
access.  Its one input is :meth:`NumpyBatchState.feed`: a window source
yields windows of about :data:`FLUSH_ACCESSES` accesses, each cut at a
segment or op boundary, with their row periods and scope-stack
snapshots, and materialised (:class:`WindowArrays`) only when its turn
comes.  The sources are the static enumeration's segment table
(:mod:`repro.static.segments`) and a recorded trace
(:mod:`repro.core.tracestore`), whole or cut into shard slices.  Per
window:

1. **Steady-row run compression.**  Segments carry a row ``period``
   (accesses per loop iteration).  Consecutive identical block rows are a
   loop's steady state: copies 1 and 2 of each run are kept, copies 3..m
   are dropped, and every access in the copy-2 row carries weight ``m-1``
   — its reuse pattern (distance bin, source and carrying scope) is
   provably identical for all dropped copies.  On dense loop nests this
   keeps ~15% of the stream.
2. **Occurrence structure in one argsort.**  A stable argsort of the
   (compressed) block stream yields, per access, the previous occurrence
   of its block inside the window (``pc``), plus each distinct block's
   first and last occurrence.
3. **Intra-window distances as count-smaller-to-the-left.**  For a reuse
   at window position ``i`` with previous occurrence ``pc(i)``, the reuse
   distance satisfies ``d(i) = #{j < i : pc(j) < pc(i)} - pc(i) - 1``:
   an access ``j`` in the window is its block's first occurrence there
   exactly when ``pc(j) < pc(i)``, and every ``j <= pc(i)`` counts
   automatically.  The count-smaller query is answered for all reuses at
   once by :func:`_count_smaller_left`: a chunk x bucket prefix table for
   the far part, and two bitset passes (a prefix sum of one-hot words
   along each row, then popcounts below a threshold) within a position
   chunk and within a rank bucket.
4. **Cross-window reuses via bulk Fenwick prefix sums.**  Only each
   block's *first* window occurrence can reach back before the window;
   those walk the ndarray-backed Fenwick tree in a vectorised log-loop,
   corrected by a second count-smaller pass for blocks first touched
   earlier in the window.
5. **Whole-window histogram binning.**  Distances are binned with the
   exact/log-subbin scheme from :mod:`repro.core.histogram` in one
   vectorised pass, then accumulated per ``(rid, src, carry)`` pattern
   through a mixed-radix key and ``np.unique``.

The results are byte-identical to the fenwick and treap engines (the
test suite cross-checks all three); only the evaluation order changes.
An analyzer built with ``engine="numpy"`` and handed events one by one
runs the generic per-access loop on :class:`NumpyFenwickEngine`'s scalar
protocol: correct, but none of the above.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from repro.core.histogram import bin_of_array
from repro.obs import metrics as _obs

#: Accesses per window: a source cuts each window at the first segment
#: or op boundary past this many.  Large enough to amortise the
#: O(n log n) per-window machinery, small enough that the working
#: arrays stay cache-resident.
FLUSH_ACCESSES = 1 << 17


class NumpyFenwickEngine:
    """Fenwick reuse-distance engine on an int64 ndarray.

    Implements the same scalar ``first``/``reuse``/``ensure`` protocol as
    :class:`repro.core.fenwick.FenwickEngine` (the engine-equivalence
    tests drive it that way), plus the bulk query/update operations the
    windowed pipeline uses: vectorised prefix sums and mark updates
    over arrays of times.
    """

    def __init__(self, initial_capacity: int = 1 << 16) -> None:
        cap = 1
        while cap < initial_capacity:
            cap <<= 1
        self._cap = cap
        self._tree = np.zeros(cap + 1, dtype=np.int64)
        self._active = 0

    # -- scalar protocol ---------------------------------------------------

    def first(self, t_now: int) -> None:
        if t_now > self._cap:
            self._grow(t_now)
        self._add(t_now, 1)
        self._active += 1

    def reuse(self, t_prev: int, t_now: int) -> int:
        if t_now > self._cap:
            self._grow(t_now)
        self._add(t_prev, -1)
        distance = (self._active - 1) - self._prefix(t_prev)
        self._add(t_now, 1)
        return distance

    @property
    def active_blocks(self) -> int:
        return self._active

    def ensure(self, needed: int) -> None:
        if needed > self._cap:
            self._grow(needed)

    # -- scalar internals --------------------------------------------------

    def _add(self, i: int, delta: int) -> None:
        tree, cap = self._tree, self._cap
        while i <= cap:
            tree[i] += delta
            i += i & (-i)

    def _prefix(self, i: int) -> int:
        total = 0
        tree = self._tree
        while i > 0:
            total += int(tree[i])
            i -= i & (-i)
        return total

    def _grow(self, needed: int) -> None:
        old_cap = self._cap
        new_cap = old_cap
        while new_cap < needed:
            new_cap <<= 1
        tree = np.zeros(new_cap + 1, dtype=np.int64)
        tree[:old_cap + 1] = self._tree
        # New power-of-two cells cover prefixes spanning every existing
        # mark (same invariant as FenwickEngine._grow).
        total = self._prefix(old_cap)
        i = old_cap << 1
        while i <= new_cap:
            tree[i] = total
            i <<= 1
        self._tree = tree
        self._cap = new_cap

    # -- bulk operations ---------------------------------------------------

    def bulk_prefix(self, times: np.ndarray) -> np.ndarray:
        """``prefix(t)`` for every t in ``times`` (vectorised log-loop)."""
        tree = self._tree
        out = np.zeros(times.size, dtype=np.int64)
        idx = times.astype(np.int64, copy=True)
        pos = np.arange(times.size, dtype=np.int64)
        live = idx > 0
        if not live.all():
            idx, pos = idx[live], pos[live]
        while idx.size:
            out[pos] += tree[idx]
            idx = idx - (idx & -idx)
            live = idx > 0
            if not live.all():
                idx, pos = idx[live], pos[live]
        return out

    def bulk_add(self, times: np.ndarray, delta: int) -> None:
        """Add ``delta`` at every time in ``times`` (duplicate-safe)."""
        tree, cap = self._tree, self._cap
        idx = times.astype(np.int64, copy=True)
        idx = idx[(idx > 0) & (idx <= cap)]
        while idx.size:
            np.add.at(tree, idx, delta)
            idx = idx + (idx & -idx)
            idx = idx[idx <= cap]


#: Row widths the count-smaller kernel picks from, as shifts: 64 to 512
#: elements per row, one to eight uint64 words per bitset.  A call takes
#: the smallest width ``w`` with ``w**3 >= 64 * n``, which balances the
#: ``(n / w)**2`` chunk x bucket table against the two ``n * w / 64``-word
#: bitset passes.  On a random permutation of 2**17 (w = 256) a call
#: takes ~19 ms on one pinned core of a 2-CPU x86-64 host.
_CSL_MIN_SHIFT = 6
_CSL_MAX_SHIFT = 9


def _lowmask_table(shift: int) -> np.ndarray:
    """``table[t]``: the words of a ``2**shift``-bit set holding ``0..t-1``."""
    lo = (np.arange((1 << shift) + 1)[:, None]
          - 64 * np.arange(1 << (shift - 6))[None, :])
    table = np.left_shift(np.uint64(1),
                          np.clip(lo, 0, 63).astype(np.uint64)) - np.uint64(1)
    table[lo >= 64] = ~np.uint64(0)
    return table


_CSL_LOWMASK = {s: _lowmask_table(s)
                for s in range(_CSL_MIN_SHIFT, _CSL_MAX_SHIFT + 1)}


def _row_order(rows: np.ndarray, nrows: int) -> np.ndarray:
    """Indices of ``rows`` grouped by row id, scan order kept within a row.

    One stable argsort; numpy radix-sorts 16-bit keys, several times
    faster than a comparison sort of int64 ids, so the ids are narrowed
    whenever all ``nrows`` of them fit in uint16.
    """
    if nrows <= 1 << 16:
        rows = rows.astype(np.uint16)
    return np.argsort(rows, kind="stable")


def _count_smaller_left(ranks: np.ndarray, query_pos: np.ndarray) -> np.ndarray:
    """``#{j < i : ranks[j] < ranks[i]}`` for each ``i`` in ``query_pos``.

    ``ranks`` must be a permutation of ``range(n)`` (ties pre-broken by
    position).  Positions are cut into chunks and ranks into buckets of
    ``w`` each (``w`` derived from ``n``, see :data:`_CSL_MIN_SHIFT`), and
    the dominance count ``j < i and r_j < r_i`` splits into three
    disjoint parts:

    * **T** — earlier chunk, lower bucket: one gather from a chunk x
      bucket prefix table;
    * **E** — same chunk, earlier position, lower bucket;
    * **B** — same bucket, earlier position, smaller rank.

    E and B are answered with bitsets.  Every element gets a *local
    value*, its occurrence index in its row: chunk rows are scanned in
    rank order, bucket rows in position order.  Setting bit ``local`` in
    each slot of a row (chunk rows in position order, bucket rows in rank
    order) and prefix-summing along the row gives every slot the set of
    local values before it; values are distinct within a row, so the sum
    never carries.  E is then the popcount of that set below the number
    of the chunk's elements in lower buckets (the row-wise prefix of the
    table's histogram), and B its popcount below the element's own local
    value.  Each bitset pass is ``n * w / 64`` word operations, so the
    rows can be wide and the table small.
    """
    n = ranks.size
    nq = query_pos.size
    if n <= 1 or nq == 0:
        return np.zeros(nq, dtype=np.int64)
    s = _CSL_MIN_SHIFT
    while s < _CSL_MAX_SHIFT and 1 << (3 * s) < 64 * n:
        s += 1
    w = 1 << s
    nw = w >> 6
    nch = -(-n // w)
    # Counts (and the table) are bounded by n.
    cdt = np.int32 if n < 1 << 31 else np.int64
    pos = np.arange(n, dtype=np.int64)
    # Every chunk and bucket but the last holds exactly w elements, so the
    # k-th element of a row-grouped order has local value k mod w.
    local = pos & (w - 1)
    word = local >> 6
    bit = np.left_shift(np.uint64(1), (local & 63).astype(np.uint64))
    bucket = ranks >> s
    ipos = np.empty(n, dtype=np.int64)
    ipos[ranks] = pos

    # T: P[c, b] counts chunk c's elements in buckets below b, and S[c, b]
    # sums P over the chunks before c.  S is accumulated row by row: a
    # column-wise cumsum on the C-ordered table is several times slower.
    cell = (pos >> s) * nch + bucket
    H = np.bincount(cell, minlength=nch * nch).astype(cdt).reshape(nch, nch)
    P = np.cumsum(H, axis=1, dtype=cdt)
    P -= H
    S = np.zeros_like(P)
    for c in range(1, nch):
        np.add(S[c - 1], P[c - 1], out=S[c])
    out = S.ravel()[cell]

    def below(slot: np.ndarray, thr: np.ndarray) -> np.ndarray:
        """Per slot: how many local values set earlier in its row are
        below ``thr``.  ``slot[k]`` is where the k-th row-grouped element
        sits (``thr`` is indexed by slot)."""
        bits = np.zeros((nch * w, nw), dtype=np.uint64)
        bits.ravel()[slot * nw + word] = bit
        rows = bits.reshape(nch, w, nw)
        np.cumsum(rows, axis=1, out=rows)
        x = bits[:n]
        x &= np.take(_CSL_LOWMASK[s], thr, axis=0)
        counts = np.bitwise_count(x)
        total = counts[:, 0].astype(np.uint16)
        for k in range(1, nw):
            total += counts[:, k]
        return total

    # E: chunk rows by position, local values in rank order.
    out += below(ipos[_row_order(ipos >> s, nch)], P.ravel()[cell])
    # B: bucket rows by rank, local values in position order.
    slot = ranks[_row_order(bucket, nch)]
    own = np.empty(n, dtype=np.int64)
    own[slot] = local
    out += below(slot, own)[ranks]
    return out[query_pos].astype(np.int64)


def _scatter_rows(A: np.ndarray, R: np.ndarray, starts: np.ndarray,
                  bases: np.ndarray, strides: np.ndarray, rids: np.ndarray,
                  m: int) -> None:
    """Materialise affine chunks of ``m`` iterations into ``A``/``R``.

    Chunk ``g`` starts at position ``starts[g]``; ``bases``, ``strides``
    and ``rids`` are ``(chunks, k)`` matrices, one row per chunk.  One
    broadcast matrix and one fancy-index scatter for all of them.
    """
    g, k = bases.shape
    it = np.arange(m, dtype=np.int64)[None, :, None]
    cols = starts[:, None] + np.arange(m * k, dtype=np.int64)
    A[cols] = (bases[:, None, :] + it * strides[:, None, :]).reshape(g, m * k)
    R[cols] = np.tile(rids, m)


class WindowArrays:
    """One window's input to the flush pipeline, materialised.

    ``addrs``/``rids`` hold the window's accesses in time order, cut into
    segments of ``seg_len`` accesses.  A segment's ``seg_per`` is its row
    period (0: no row structure) and ``seg_snap`` its scope-stack
    snapshot.  Snapshot ``r`` lists ``snap_depths[r]`` entries of
    ``flat_sids``/``flat_clocks`` (scope ids and entry clocks, outermost
    first, concatenated over snapshots); ``snap_top_sid`` and
    ``snap_top_clock`` repeat each snapshot's innermost entry (-1 for an
    empty stack).
    """

    __slots__ = ("addrs", "rids", "seg_len", "seg_per", "seg_snap",
                 "snap_top_sid", "snap_top_clock", "snap_depths",
                 "flat_clocks", "flat_sids")

    def __init__(self, addrs, rids, seg_len, seg_per, seg_snap,
                 snap_top_sid, snap_top_clock, snap_depths, flat_clocks,
                 flat_sids) -> None:
        self.addrs = addrs
        self.rids = rids
        self.seg_len = seg_len
        self.seg_per = seg_per
        self.seg_snap = seg_snap
        self.snap_top_sid = snap_top_sid
        self.snap_top_clock = snap_top_clock
        self.snap_depths = snap_depths
        self.flat_clocks = flat_clocks
        self.flat_sids = flat_sids


class NumpyBatchState:
    """The vectorised pipeline over one analyzer's tables and engines.

    Its one input is :meth:`feed`: a window source (a segment table,
    or a shard slice of one or of a recording) whose windows are
    materialised into :class:`WindowArrays` one at a time and resolved
    in :meth:`_resolve` into the analyzer's block tables, engines and
    pattern databases.
    """

    def __init__(self, analyzer) -> None:
        self.analyzer = analyzer
        self.flush_threshold = FLUSH_ACCESSES
        self._grans = []
        for g in analyzer.grans:
            flat = hasattr(g.table, "raw")
            self._grans.append((g.block_bits, g.table, g.engine,
                                g.db.raw, g.db.cold, flat))
        self._obs_calls = analyzer._obs_batch_calls
        self._obs_events = analyzer._obs_batch_events
        self._obs_kept = _obs.counter("analyzer.np_kept_events")
        self._obs_flush_latency = _obs.timer("analyzer.np_flush_latency")
        self._obs_csl_latency = _obs.timer(
            "analyzer.np_count_smaller_latency")

    # -- flush hooks (overridden by the sharded engine) --------------------

    def _insert_pattern(self, gi: int, raw: dict, key: Tuple[int, int, int],
                        b: int, cnt: int, clock: int) -> None:
        """Accumulate one (pattern key, bin) count into the database.

        ``clock`` is the logical time of the first event behind the count
        (exact: first occurrences never sit on a run-compressed copy, so
        ``t_c`` needs no adjustment there).  The base engine only needs the
        dict-insertion order that the flush loop already provides; the
        sharded engine (repro.core.shard) overrides this to also record
        first-event clocks so the merge can rebuild the global insertion
        order across shards.
        """
        bins = raw.get(key)
        if bins is None:
            bins = {}
            raw[key] = bins
        bins[b] = bins.get(b, 0) + cnt

    def _on_first_touch(self, gi, cold, uniq, first_c, q_cold, Rc,
                        t_c, kept_idx, pos_seg, win) -> None:
        """Handle blocks first touched in this window with no table entry.

        For a standalone analysis these are cold misses: count them per
        rid in first-event order (matching the scalar engines' dict
        order).  The sharded engine overrides this to divert them into
        its unresolved-boundary set instead — whether they are really
        cold or a cross-shard reuse is only known at merge time — with
        seed depths read from ``win``'s scope snapshots.
        """
        pos_cold = first_c[q_cold]
        vals_c, inv_c, cnts = np.unique(Rc[pos_cold],
                                        return_inverse=True,
                                        return_counts=True)
        firsts = np.full(vals_c.size, np.iinfo(np.int64).max,
                         dtype=np.int64)
        np.minimum.at(firsts, inv_c, pos_cold)
        order = np.argsort(firsts, kind="stable")
        for rid, cnt in zip(vals_c[order].tolist(),
                            cnts[order].tolist()):
            cold[rid] = cold.get(rid, 0) + cnt

    # -- the flush pipeline ------------------------------------------------

    def _count_smaller(self, ranks: np.ndarray,
                       query_pos: np.ndarray) -> np.ndarray:
        """:func:`_count_smaller_left`, timed per call."""
        t0 = time.perf_counter()
        out = _count_smaller_left(ranks, query_pos)
        self._obs_csl_latency.observe(time.perf_counter() - t0)
        return out

    def feed(self, source) -> None:
        """Resolve a window source, window by window.

        ``source`` is anything with a ``windows(threshold)`` method that
        yields ``(accesses, materialise)`` pairs, each window ending at
        the first segment or op boundary past ``threshold`` accesses: a
        segment table or one of its slices (:mod:`repro.static.segments`),
        or a recorded trace's slice
        (:class:`repro.core.tracestore.StoredShardSlice`).  Each window
        is materialised only when its turn comes, and the analyzer's
        clock advances past it before it is resolved.
        """
        analyzer = self.analyzer
        for n, materialise in source.windows(self.flush_threshold):
            t_flush = time.perf_counter()
            self._obs_calls.inc()
            self._obs_events.inc(n)
            analyzer.clock += n
            self._resolve(materialise(), analyzer.clock)
            self._obs_flush_latency.observe(time.perf_counter() - t_flush)

    def _resolve(self, win: WindowArrays, end: int) -> None:
        """Distances, carries and histograms of one materialised window
        whose last access is at clock ``end``."""
        A = win.addrs
        R = win.rids
        n = A.size
        clock0 = end - n
        seg_len = win.seg_len
        seg_per = win.seg_per
        seg_snap = win.seg_snap
        nseg = seg_len.size

        # Per-segment attributes; per-position values are gathered through
        # ``pos_seg`` only where needed (query-sized, not window-sized).
        pos_seg = np.repeat(np.arange(nseg, dtype=np.int64), seg_len)
        seg_top_sid = win.snap_top_sid[seg_snap]
        seg_top_clock = win.snap_top_clock[seg_snap]
        per_pos = seg_per[pos_seg]
        # Flattened stack snapshots for the batched carry search: entry
        # clocks of snapshot r live at flat[offs[r]:offs[r+1]], and the
        # key ``r * big + clock`` is globally sorted (clocks < big), so
        # one searchsorted answers every snapshot's bisect at once.
        depths = win.snap_depths
        nsnap = depths.size
        offs = np.zeros(nsnap + 1, dtype=np.int64)
        np.cumsum(depths, out=offs[1:])
        flat_clocks = win.flat_clocks
        flat_sids = win.flat_sids
        big = end + 2
        if nsnap * big < (1 << 62):
            enc_stack = flat_clocks + np.repeat(
                np.arange(nsnap, dtype=np.int64), depths) * big
        else:  # pragma: no cover - astronomically long runs
            enc_stack = None

        def carries(orig_pos: np.ndarray, t_prev: np.ndarray) -> np.ndarray:
            """Carrying scope per reuse, by scope-entry-clock search.

            A previous access newer than the innermost scope entry is
            carried by the innermost scope (the overwhelming majority);
            older ones binary-search their segment's stack snapshot with
            bisect_left semantics, matching ScopeStack.carrying.
            """
            out = np.empty(orig_pos.size, dtype=np.int64)
            sp = pos_seg[orig_pos]
            fast = t_prev > seg_top_clock[sp]
            out[fast] = seg_top_sid[sp[fast]]
            if not fast.all():
                slow = np.flatnonzero(~fast)
                rows = seg_snap[sp[slow]]
                # depth >= 1 on this path: an empty stack has top clock
                # -1, below every t_prev, so it took the fast path.
                if enc_stack is not None:
                    p2 = np.searchsorted(
                        enc_stack, rows * big + t_prev[slow]) - offs[rows]
                    out[slow] = flat_sids[offs[rows] + np.maximum(p2, 1) - 1]
                else:  # pragma: no cover - astronomically long runs
                    for r in np.unique(rows).tolist():
                        mrow = rows == r
                        row = slice(offs[r], offs[r + 1])
                        p2 = np.searchsorted(flat_clocks[row],
                                             t_prev[slow[mrow]], side="left")
                        out[slow[mrow]] = flat_sids[row][
                            np.maximum(p2, 1) - 1]
            return out

        # Period-wise row selections are granularity-independent: compute
        # them once, reuse for every block size.
        psel = []
        for k in np.unique(seg_per[seg_per > 0]).tolist():
            sel = np.flatnonzero(per_pos == k)
            if sel.size < 2 * k:
                continue
            rows = sel.size // k
            rowseg = pos_seg[sel[::k]]
            same_seg = rowseg[1:] == rowseg[:-1]
            psel.append((k, sel, rows, same_seg,
                         np.arange(k, dtype=np.int64)))

        for gi, (shift, table, eng, raw, cold, flat) in enumerate(self._grans):
            B = A >> shift if shift else A
            # ---- steady-row run compression (per granularity: rows can
            # repeat at line size but differ at address/page size) ----
            keep = np.ones(n, dtype=bool)
            w_extra = None
            t_extra = None
            for k, sel, rows, same_seg, ar in psel:
                mk = B[sel].reshape(rows, k)
                same = np.zeros(rows, dtype=bool)
                np.logical_and((mk[1:] == mk[:-1]).all(axis=1),
                               same_seg, out=same[1:])
                if not same.any():
                    continue
                prev_same = np.zeros(rows, dtype=bool)
                prev_same[1:] = same[:-1]
                dropped = same & prev_same      # copies 3..m of a run
                if not dropped.any():
                    continue
                head = same & ~prev_same        # the copy-2 rows
                drop_rows = np.flatnonzero(dropped)
                keep[sel[(drop_rows[:, None] * k + ar).ravel()]] = False
                # Run multiplicity: rows share a group id with their
                # copy-1 head; the number of same-rows in the group is
                # m - 1, so each copy-2 row stands in for m - 2 dropped
                # copies (time shift (m-2)*k, histogram weight m - 1).
                gid = np.cumsum(~same)
                run_same = np.bincount(gid[same], minlength=int(gid[-1]) + 1)
                head_rows = np.flatnonzero(head)
                extra = run_same[gid[head_rows]] - 1
                hs = extra > 0
                if hs.any():
                    if w_extra is None:
                        w_extra = np.zeros(n, dtype=np.int64)
                        t_extra = np.zeros(n, dtype=np.int64)
                    hr = head_rows[hs]
                    hpos = sel[(hr[:, None] * k + ar).ravel()]
                    w_extra[hpos] = np.repeat(extra[hs], k)
                    t_extra[hpos] = np.repeat(extra[hs] * k, k)

            kept_idx = np.flatnonzero(keep)
            nc = kept_idx.size
            self._obs_kept.inc(int(nc))
            Bc = B[kept_idx]
            Rc = R[kept_idx]
            sid_c = seg_top_sid[pos_seg[kept_idx]]
            t_c = clock0 + 1 + kept_idx
            if w_extra is None:
                w_c = None
                t_adj = t_c
            else:
                w_c = 1 + w_extra[kept_idx]
                t_adj = t_c + t_extra[kept_idx]

            # ---- occurrence structure: one stable argsort ----
            order = np.argsort(Bc, kind="stable")
            sb = Bc[order]
            samev = np.zeros(nc, dtype=bool)
            samev[1:] = sb[1:] == sb[:-1]
            pc = np.full(nc, -1, dtype=np.int64)
            dup = np.flatnonzero(samev)
            pc[order[dup]] = order[dup - 1]
            starts = np.flatnonzero(~samev)
            nu = starts.size
            uniq = sb[starts]
            first_c = order[starts]
            ends = np.empty(nu, dtype=np.int64)
            ends[:-1] = starts[1:] - 1
            ends[-1] = nc - 1
            last_c = order[ends]

            # ---- block-table lookups (the only per-unique Python loop) --
            ub = uniq.tolist()
            tget = table.raw.get if flat else table.get
            prev_entries = [tget(b) for b in ub]
            found_u = np.array([e is not None for e in prev_entries],
                               dtype=bool)
            prev_t_u = np.array(
                [e[0] if e is not None else 0 for e in prev_entries],
                dtype=np.int64)
            prev_sid_u = np.array(
                [e[2] if e is not None else 0 for e in prev_entries],
                dtype=np.int64)

            parts = []
            # ---- intra-window reuses ----
            qi = np.flatnonzero(pc >= 0)
            if qi.size:
                # Rank-transform pc without sorting: previous-occurrence
                # values are distinct positions; -1s order by position and
                # sort below every real position.
                neg = pc < 0
                total_neg = nc - qi.size
                negcum = np.cumsum(neg)
                present = np.zeros(nc, dtype=np.int64)
                present[pc[qi]] = 1
                posrank = np.cumsum(present) - 1
                ranks = np.where(neg, negcum - 1,
                                 total_neg + posrank[np.maximum(pc, 0)])
                d_intra = self._count_smaller(ranks, qi) - pc[qi] - 1
                pcq = pc[qi]
                w_i = w_c[qi] if w_c is not None else None
                parts.append((Rc[qi], sid_c[pcq],
                              carries(kept_idx[qi], t_adj[pcq]),
                              bin_of_array(d_intra), w_i, qi))

            # ---- cross-window reuses (first occurrences found in the
            # block table): bulk Fenwick prefix on the pre-window tree ----
            q_found = np.flatnonzero(found_u)
            if q_found.size:
                fp = first_c[q_found]
                tpre = prev_t_u[q_found]
                pre_prefix = eng.bulk_prefix(tpre)
                # Correction: blocks whose first window occurrence is
                # earlier and whose pre-window mark was either removed
                # from below t_prev (found, older) or never existed
                # (cold) — a count-smaller over uniques ordered by first
                # occurrence, valued by pre-window time (cold -> 0).
                of = np.argsort(first_c)
                vals = np.where(found_u, prev_t_u, 0)[of]
                ord2 = np.argsort(vals, kind="stable")
                ranks_u = np.empty(nu, dtype=np.int64)
                ranks_u[ord2] = np.arange(nu, dtype=np.int64)
                found_of = found_u[of]
                qpos = np.flatnonzero(found_of)
                corr = np.zeros(nu, dtype=np.int64)
                corr[of[qpos]] = self._count_smaller(ranks_u, qpos)
                d_cross = eng.active_blocks - pre_prefix + corr[q_found]
                parts.append((Rc[fp], prev_sid_u[q_found],
                              carries(kept_idx[fp], tpre),
                              bin_of_array(d_cross), None, fp))

            # ---- histogram accumulation ----
            # Dict-population order follows first event position: the
            # scalar engines create pattern keys / bin slots / cold rids
            # at the first event that needs them, and downstream reports
            # break ranking ties by dict order, so the array engine must
            # insert in the same order to be a byte-identical drop-in.
            if parts:
                if len(parts) == 1:
                    rid_all, src_all, carry_all, bin_all, w0, pos_all = \
                        parts[0]
                    w_all = (w0 if w0 is not None
                             else np.ones(rid_all.size, dtype=np.int64))
                else:
                    rid_all = np.concatenate([p[0] for p in parts])
                    src_all = np.concatenate([p[1] for p in parts])
                    carry_all = np.concatenate([p[2] for p in parts])
                    bin_all = np.concatenate([p[3] for p in parts])
                    w_all = np.concatenate([
                        p[4] if p[4] is not None
                        else np.ones(p[0].size, dtype=np.int64)
                        for p in parts])
                    pos_all = np.concatenate([p[5] for p in parts])
                smax = int(max(int(src_all.max()), int(carry_all.max()))) + 2
                bmax = int(bin_all.max()) + 1
                rmax = int(rid_all.max()) + 1
                raw_get = raw.get
                if 0 <= int(rid_all.min()) and (
                        rmax * smax * smax * bmax < (1 << 62)):
                    enc = (((rid_all * smax + (src_all + 1)) * smax
                            + (carry_all + 1)) * bmax + bin_all)
                    uk, inv = np.unique(enc, return_inverse=True)
                    sums = np.zeros(uk.size, dtype=np.int64)
                    np.add.at(sums, inv, w_all)
                    firsts = np.full(uk.size, np.iinfo(np.int64).max,
                                     dtype=np.int64)
                    np.minimum.at(firsts, inv, pos_all)
                    order = np.argsort(firsts, kind="stable")
                    first_clk = t_c[firsts[order]]
                    insert = self._insert_pattern
                    for kval, cnt, clk in zip(uk[order].tolist(),
                                              sums[order].tolist(),
                                              first_clk.tolist()):
                        b = kval % bmax
                        kval //= bmax
                        carry = kval % smax - 1
                        kval //= smax
                        insert(gi, raw, (kval // smax, kval % smax - 1, carry),
                               b, cnt, clk)
                else:  # pragma: no cover - out-of-range id spaces
                    order = np.argsort(pos_all, kind="stable")
                    first_clk = t_c[pos_all[order]]
                    insert = self._insert_pattern
                    for rid, src, carry, b, w, clk in zip(
                            rid_all[order].tolist(), src_all[order].tolist(),
                            carry_all[order].tolist(), bin_all[order].tolist(),
                            w_all[order].tolist(), first_clk.tolist()):
                        insert(gi, raw, (rid, src, carry), b, w, clk)

            # ---- cold misses (rid order = first cold event, as scalar) --
            q_cold = np.flatnonzero(~found_u)
            if q_cold.size:
                self._on_first_touch(gi, cold, uniq, first_c, q_cold, Rc,
                                     t_c, kept_idx, pos_seg, win)

            # ---- engine marks + block-table entries ----
            eng.ensure(end)
            if q_found.size:
                eng.bulk_add(tpre, -1)
            t_last = t_adj[last_c]
            eng.bulk_add(t_last, 1)
            eng._active += int(q_cold.size)
            entries = zip(t_last.tolist(), Rc[last_c].tolist(),
                          sid_c[last_c].tolist())
            if flat:
                table.raw.update(zip(ub, entries))
            else:
                tset = table.set
                for b, entry in zip(ub, entries):
                    tset(b, entry)
