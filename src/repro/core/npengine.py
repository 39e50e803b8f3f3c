"""NumPy array engine: buffered, vectorised reuse-distance analysis.

``engine="numpy"`` drops a third distance engine behind the analyzer's
``access``/``access_batch`` entry points.  Instead of walking the Fenwick
tree once per access, it buffers incoming chunks (plus their scope-stack
snapshots) and, once :data:`FLUSH_ACCESSES` accesses are pending, resolves
the whole buffer with array operations:

1. **Steady-row run compression.**  Chunks arrive with a row ``period``
   (accesses per loop iteration).  Consecutive identical block rows are a
   loop's steady state: copies 1 and 2 of each run are kept, copies 3..m
   are dropped, and every access in the copy-2 row carries weight ``m-1``
   — its reuse pattern (distance bin, source and carrying scope) is
   provably identical for all dropped copies.  On dense loop nests this
   keeps ~15% of the stream.
2. **Occurrence structure in one argsort.**  A stable argsort of the
   (compressed) block stream yields, per access, the previous occurrence
   of its block inside the buffer (``pc``), plus each distinct block's
   first and last occurrence.
3. **Intra-buffer distances as count-smaller-to-the-left.**  For a reuse
   at buffer position ``i`` with previous occurrence ``pc(i)``, the reuse
   distance satisfies ``d(i) = #{j < i : pc(j) < pc(i)} - pc(i) - 1``:
   an access ``j`` in the window is its block's first occurrence there
   exactly when ``pc(j) < pc(i)``, and every ``j <= pc(i)`` counts
   automatically.  The count-smaller query is answered for all reuses at
   once by two-level blocked counting (:func:`_count_smaller_left`): a
   chunk x bucket prefix table for the far part, and two triangular
   compares within a position chunk and within a rank bucket.
4. **Cross-buffer reuses via bulk Fenwick prefix sums.**  Only each
   block's *first* buffer occurrence can reach back before the buffer;
   those walk the ndarray-backed Fenwick tree in a vectorised log-loop,
   corrected by a second count-smaller pass for blocks first touched
   earlier in the buffer.
5. **Whole-buffer histogram binning.**  Distances are binned with the
   exact/log-subbin scheme from :mod:`repro.core.histogram` in one
   vectorised pass, then accumulated per ``(rid, src, carry)`` pattern
   through a mixed-radix key and ``np.unique``.

The results are byte-identical to the fenwick and treap engines (the
test suite cross-checks all three); only the evaluation order changes.
Because accesses are buffered, the logical clock is advanced *eagerly* on
append (scope events and run manifests observe correct clocks) and every
result query (`db`, `dump_state`, ...) triggers a flush first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.histogram import bin_of_array
from repro.obs import metrics as _obs

#: Accesses buffered before one vectorised flush.  Large enough to
#: amortise the O(n log n) per-flush machinery, small enough that the
#: working arrays stay cache-resident.
FLUSH_ACCESSES = 1 << 17


class NumpyFenwickEngine:
    """Fenwick reuse-distance engine on an int64 ndarray.

    Implements the same scalar ``first``/``reuse``/``ensure`` protocol as
    :class:`repro.core.fenwick.FenwickEngine` (the engine-equivalence
    tests drive it that way), plus the bulk query/update operations the
    buffered batch path uses: vectorised prefix sums and mark updates
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


#: Block width for the two-level count-smaller scheme: positions are cut
#: into chunks of this many indices and ranks into buckets of this many
#: values.  The two triangular passes cost O(n * width) contiguous bool
#: ops, the prefix table O((n / width)**2).  On one full flush (a random
#: permutation of 2**17, 2-CPU x86-64 host) the table takes ~25 ms, each
#: triangle pass ~17 ms and the rest ~15 ms of a ~75 ms call.
_CSL_SHIFT = 6
_CSL_W = 1 << _CSL_SHIFT

_TRI = np.tril(np.ones((_CSL_W, _CSL_W), dtype=bool), -1)


def _count_smaller_left(ranks: np.ndarray, query_pos: np.ndarray) -> np.ndarray:
    """``#{j < i : ranks[j] < ranks[i]}`` for each ``i`` in ``query_pos``.

    ``ranks`` must be a permutation of ``range(n)`` (ties pre-broken by
    position).  Two-level blocked counting: cut positions into chunks and
    ranks into buckets of :data:`_CSL_W` each, then split the dominance
    count ``j < i and r_j < r_i`` into three disjoint parts:

    * *earlier chunk, earlier bucket* — answered for every query by one
      gather from a 2D cumulative chunk x bucket histogram;
    * *same chunk* — a triangular compare of each chunk's rank row
      against itself (position order is slot order);
    * *same bucket, earlier chunk* — a triangular compare of each
      bucket's position-chunk row in rank order (slot order is rank
      order, so ``slot' < slot`` is exactly ``r_j < r_i``).

    Everything is contiguous arithmetic — no per-query binary search —
    so it runs several times faster than a merge tree on the ~n queries
    a flush issues.
    """
    n = ranks.size
    nq = query_pos.size
    if n <= 1 or nq == 0:
        return np.zeros(nq, dtype=np.int64)
    w = _CSL_W
    nch = -(-n // w)
    npad = nch * w
    sentinel = np.int64(1) << 40

    chunk_all = np.arange(n, dtype=np.int64) >> _CSL_SHIFT
    bucket_all = ranks >> _CSL_SHIFT

    # Part 1: chunk x bucket histogram, prefix-summed so S[p, b] counts
    # elements with chunk < p and bucket < b.  Built row-contiguously:
    # positions are chunk-ordered, so each band of w chunks is one slice,
    # histogrammed by bincount and prefix-summed along its rows (a small
    # transient per band); one in-place add per row then sums across
    # chunks.  A column-wise cumsum on the C-ordered table is several
    # times slower.  int32 table: counts are bounded by n.
    S = np.zeros((nch + 1, nch + 1), dtype=np.int32)
    for c0 in range(0, nch, w):
        c1 = min(c0 + w, nch)
        band = slice(c0 * w, c1 * w)
        G = np.bincount((chunk_all[band] - c0) * nch + bucket_all[band],
                        minlength=(c1 - c0) * nch)
        np.cumsum(G.reshape(c1 - c0, nch), axis=1, dtype=np.int32,
                  out=S[c0 + 1:c1 + 1, 1:])
    for p in range(2, nch + 1):
        S[p] += S[p - 1]

    # Part 2: same chunk, j < i positionally.  Sentinel-padded slots sit
    # after every real element of the last chunk, so the triangular mask
    # already excludes them.
    r_pad = np.full(npad, sentinel, dtype=np.int64)
    r_pad[:n] = ranks
    R3 = r_pad.reshape(nch, w)
    cmp1 = R3[:, :, None] > R3[:, None, :]
    np.logical_and(cmp1, _TRI, out=cmp1)
    w1 = cmp1.sum(axis=2, dtype=np.int32).ravel()

    # Part 3: same bucket (slot order = rank order), strictly earlier
    # chunk.  Sentinel positions map to an impossible chunk, never
    # strictly below a real query's chunk.
    ipos = np.full(npad, sentinel, dtype=np.int64)
    ipos[ranks] = np.arange(n, dtype=np.int64)
    C3 = (ipos >> _CSL_SHIFT).reshape(nch, w)
    cmp2 = C3[:, :, None] > C3[:, None, :]
    np.logical_and(cmp2, _TRI, out=cmp2)
    w2 = cmp2.sum(axis=2, dtype=np.int32).ravel()

    q = query_pos
    rq = ranks[q]
    out = S[chunk_all[q], bucket_all[q]].astype(np.int64)
    out += w1[q]
    out += w2[rq]
    return out


class _AffineRows:
    """Unmaterialised chunk: ``m`` iterations of an affine access row."""

    __slots__ = ("bases", "strides", "m", "rids")

    def __init__(self, bases: Tuple[int, ...], strides: Tuple[int, ...],
                 m: int, rids: Tuple[int, ...]) -> None:
        self.bases = bases
        self.strides = strides
        self.m = m
        self.rids = rids


class NumpyBatchState:
    """Cross-call access buffer plus the vectorised flush pipeline."""

    #: Scope-stack entries below this depth were inherited from before the
    #: analysis window (sharded analyses only; see repro.core.shard).
    _seed_live = 0

    def __init__(self, analyzer) -> None:
        self.analyzer = analyzer
        self.stack = analyzer.stack
        self.flush_threshold = FLUSH_ACCESSES
        self._grans = []
        for g in analyzer.grans:
            flat = hasattr(g.table, "raw")
            self._grans.append((g.block_bits, g.table, g.engine,
                                g.db.raw, g.db.cold, flat))
        self._obs_calls = analyzer._obs_batch_calls
        self._obs_events = analyzer._obs_batch_events
        self._obs_flushes = _obs.counter("analyzer.np_flushes")
        self._obs_flushed = _obs.counter("analyzer.np_flushed_events")
        self._obs_kept = _obs.counter("analyzer.np_kept_events")
        self._reset()

    def _reset(self) -> None:
        self._chunks: List[object] = []
        self._chunk_rids: List[object] = []
        self._seg_len: List[int] = []
        self._seg_per: List[int] = []
        self._seg_snap: List[int] = []
        self._snap_sids: List[Tuple[int, ...]] = []
        self._snap_clocks: List[Tuple[int, ...]] = []
        # Flattened mirrors, grown as snapshots are created, so the flush
        # can build its search arrays with one C-level np.array call.
        self._snap_depths: List[int] = []
        self._snap_top_sid: List[int] = []
        self._snap_top_clock: List[int] = []
        self._flat_clock_list: List[int] = []
        self._flat_sid_list: List[int] = []
        self._cur_snap = -1
        self._open_rids: Optional[list] = None
        self._open_addrs: Optional[list] = None
        self._open_snap = -1
        self._n = 0

    # -- buffering ---------------------------------------------------------

    def _snap_id(self) -> int:
        """Id of the current scope-stack snapshot.

        Snapshots are append-only: scope entry clocks make consecutive
        stacks almost always distinct, so deduplication would buy little
        and cost a tuple hash per chunk.  The ``_cur_snap`` cache already
        collapses the common case (many chunks between scope events).
        """
        sid = self._cur_snap
        if sid < 0:
            stack = self.stack
            sids = stack._sids
            clocks = stack._clocks
            sid = len(self._snap_sids)
            self._snap_sids.append(tuple(sids))
            self._snap_clocks.append(tuple(clocks))
            self._snap_depths.append(len(sids))
            self._snap_top_sid.append(sids[-1] if sids else -1)
            self._snap_top_clock.append(clocks[-1] if clocks else -1)
            self._flat_sid_list.extend(sids)
            self._flat_clock_list.extend(clocks)
            self._cur_snap = sid
        return sid

    def on_scope_event(self) -> None:
        self._close_open()
        self._cur_snap = -1

    def _close_open(self) -> None:
        addrs = self._open_addrs
        if addrs is None:
            return
        self._chunk_rids.append(self._open_rids)
        self._chunks.append(addrs)
        self._seg_len.append(len(addrs))
        self._seg_per.append(0)
        self._seg_snap.append(self._open_snap)
        self._open_addrs = None
        self._open_rids = None

    def scalar_access(self, rid: int, addr: int, is_store: bool) -> None:
        addrs = self._open_addrs
        if addrs is None:
            self._open_snap = self._snap_id()
            self._open_rids = [rid]
            self._open_addrs = [addr]
        else:
            self._open_rids.append(rid)
            addrs.append(addr)
        self.analyzer.clock += 1
        self._n += 1
        if self._n >= self.flush_threshold:
            self.flush()

    def append_batch(self, rids, addrs, stores, period: int = 0) -> None:
        n = len(addrs)
        if not n:
            return
        self._obs_calls.inc()
        self._obs_events.inc(n)
        if self._open_addrs is not None:
            self._close_open()
        snap = self._cur_snap
        if snap < 0:
            snap = self._snap_id()
        self._chunk_rids.append(list(rids))
        self._chunks.append(list(addrs))
        self._seg_len.append(n)
        self._seg_per.append(period if period and not n % period else 0)
        self._seg_snap.append(snap)
        self.analyzer.clock += n
        self._n += n
        if self._n >= self.flush_threshold:
            self.flush()

    def append_rows(self, rids, stores, bases, strides, m: int) -> None:
        """Affine-row chunk from ``BatchExecutor`` (kept unmaterialised)."""
        k = len(bases)
        n = m * k
        if not n:
            return
        self._obs_calls.inc()
        self._obs_events.inc(n)
        if self._open_addrs is not None:
            self._close_open()
        snap = self._cur_snap
        if snap < 0:
            snap = self._snap_id()
        self._chunk_rids.append(None)
        self._chunks.append(
            _AffineRows(tuple(bases), tuple(strides), m, tuple(rids)))
        self._seg_len.append(n)
        self._seg_per.append(k)
        self._seg_snap.append(snap)
        self.analyzer.clock += n
        self._n += n
        if self._n >= self.flush_threshold:
            self.flush()

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
                        t_c, kept_idx, pos_seg, seg_snap) -> None:
        """Handle blocks first touched in this buffer with no table entry.

        For a standalone analysis these are cold misses: count them per
        rid in first-event order (matching the scalar engines' dict
        order).  The sharded engine overrides this to divert them into
        its unresolved-boundary set instead — whether they are really
        cold or a cross-shard reuse is only known at merge time.
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

    def flush(self) -> None:
        self._close_open()
        n = self._n
        if not n:
            return
        analyzer = self.analyzer
        self._obs_flushes.inc()
        self._obs_flushed.inc(n)
        end = analyzer.clock
        clock0 = end - n
        nseg = len(self._seg_len)
        seg_len = np.array(self._seg_len, dtype=np.int64)
        seg_per = np.array(self._seg_per, dtype=np.int64)
        seg_snap = np.array(self._seg_snap, dtype=np.int64)

        # Materialise the address/rid stream straight into preallocated
        # buffers: affine chunks go through one broadcast matrix and one
        # fancy-index scatter per (row length, iteration count) group, so
        # per-segment Python work is a single list append.
        seg_start = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(seg_len, out=seg_start[1:])
        A = np.empty(n, dtype=np.int64)
        R = np.empty(n, dtype=np.int64)
        groups: Dict[Tuple[int, int], List[int]] = {}
        chunks = self._chunks
        chunk_rids = self._chunk_rids
        for i, chunk in enumerate(chunks):
            if type(chunk) is _AffineRows:
                groups.setdefault((len(chunk.bases), chunk.m), []).append(i)
            else:
                s = seg_start[i]
                e = seg_start[i + 1]
                A[s:e] = chunk
                R[s:e] = chunk_rids[i]
        for (k, m), idxs in groups.items():
            bases = np.array([chunks[i].bases for i in idxs],
                             dtype=np.int64)
            strides = np.array([chunks[i].strides for i in idxs],
                               dtype=np.int64)
            rid_mat = np.array([chunks[i].rids for i in idxs],
                               dtype=np.int64)
            it = np.arange(m, dtype=np.int64)[None, :, None]
            mat = (bases[:, None, :] + it * strides[:, None, :]).reshape(
                len(idxs), m * k)
            cols = seg_start[idxs][:, None] + np.arange(m * k,
                                                        dtype=np.int64)
            A[cols] = mat
            R[cols] = np.tile(rid_mat, m)

        # Per-segment attributes; per-position values are gathered through
        # ``pos_seg`` only where needed (query-sized, not buffer-sized).
        pos_seg = np.repeat(np.arange(nseg, dtype=np.int64), seg_len)
        snap_sids = self._snap_sids
        snap_clocks = self._snap_clocks
        seg_top_sid = np.array(self._snap_top_sid,
                               dtype=np.int64)[seg_snap]
        seg_top_clock = np.array(self._snap_top_clock,
                                 dtype=np.int64)[seg_snap]
        per_pos = seg_per[pos_seg]
        # Flattened stack snapshots for the batched carry search: entry
        # clocks of snapshot r live at flat[offs[r]:offs[r+1]], and the
        # key ``r * big + clock`` is globally sorted (clocks < big), so
        # one searchsorted answers every snapshot's bisect at once.
        nsnap = len(snap_clocks)
        depths = np.array(self._snap_depths, dtype=np.int64)
        offs = np.zeros(nsnap + 1, dtype=np.int64)
        np.cumsum(depths, out=offs[1:])
        flat_clocks = np.array(self._flat_clock_list, dtype=np.int64)
        flat_sids = np.array(self._flat_sid_list, dtype=np.int64)
        big = end + 2
        if nsnap * big < (1 << 62):
            enc_stack = flat_clocks + np.repeat(
                np.arange(nsnap, dtype=np.int64), depths) * big
        else:  # pragma: no cover - astronomically long runs
            enc_stack = None
            clock_rows = [np.asarray(c, dtype=np.int64) for c in snap_clocks]
            sid_rows = [np.asarray(s, dtype=np.int64) for s in snap_sids]

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
                        p2 = np.searchsorted(clock_rows[r],
                                             t_prev[slow[mrow]], side="left")
                        out[slow[mrow]] = sid_rows[r][np.maximum(p2, 1) - 1]
            return out

        # Period-wise row selections are granularity-independent: compute
        # them once, reuse for every block size.
        psel = []
        for k in sorted({int(p) for p in self._seg_per if p > 0}):
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
            # ---- intra-buffer reuses ----
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
                d_intra = _count_smaller_left(ranks, qi) - pc[qi] - 1
                pcq = pc[qi]
                w_i = w_c[qi] if w_c is not None else None
                parts.append((Rc[qi], sid_c[pcq],
                              carries(kept_idx[qi], t_adj[pcq]),
                              bin_of_array(d_intra), w_i, qi))

            # ---- cross-buffer reuses (first occurrences found in the
            # block table): bulk Fenwick prefix on the pre-buffer tree ----
            q_found = np.flatnonzero(found_u)
            if q_found.size:
                fp = first_c[q_found]
                tpre = prev_t_u[q_found]
                pre_prefix = eng.bulk_prefix(tpre)
                # Correction: blocks whose first buffer occurrence is
                # earlier and whose pre-buffer mark was either removed
                # from below t_prev (found, older) or never existed
                # (cold) — a count-smaller over uniques ordered by first
                # occurrence, valued by pre-buffer time (cold -> 0).
                of = np.argsort(first_c)
                vals = np.where(found_u, prev_t_u, 0)[of]
                ord2 = np.argsort(vals, kind="stable")
                ranks_u = np.empty(nu, dtype=np.int64)
                ranks_u[ord2] = np.arange(nu, dtype=np.int64)
                found_of = found_u[of]
                qpos = np.flatnonzero(found_of)
                corr = np.zeros(nu, dtype=np.int64)
                corr[of[qpos]] = _count_smaller_left(ranks_u, qpos)
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
                                     t_c, kept_idx, pos_seg, seg_snap)

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

        self._reset()
