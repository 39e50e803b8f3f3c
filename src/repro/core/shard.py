"""Time-sliced parallel reuse-distance analysis with an exact merge.

One huge trace is still analyzed by one core even with the numpy engine:
the sweep driver only parallelizes across *tasks*.  This module shards a
single access stream across workers, PARDA-style, and merges the partial
results back into output byte-identical to a sequential run:

1. **Cut or record.**  When the static enumeration accepts the program,
   its segment table (:mod:`repro.static.segments`) is the stream, and
   nothing is recorded.  Otherwise the program runs once under a
   :class:`~repro.core.tracestore.StreamRecorder` (:func:`record_trace`),
   which writes the event stream as a columnar trace
   (:mod:`repro.core.tracestore`), in memory or spilled to a store
   directory.  Affine loops stay unmaterialized (``rows`` records mirror
   the ``BatchExecutor.access_rows`` protocol), so recording is cheap —
   no per-access Python work for the loops that dominate real traces.
2. **Split.**  Either stream is cut into at most K contiguous time
   shards by one rule: shard ``i`` opens at the first segment or op
   boundary at or after ``i * n // K`` accesses (:meth:`~repro.static.
   segments.SegmentTable.slices`, :func:`split_trace`).  Cuts that land
   on one boundary collapse, and scope events on a cut open the next
   shard.  Each shard carries the scope stack live at its start (*seed*
   scopes, with their global entry clocks, all below the shard's start).
3. **Analyze.**  Each shard's slice yields its windows as a segment
   table does, and one ``feed`` resolves them in a
   :class:`ShardBatchState`, the numpy window state of a
   :class:`ReuseAnalyzer`; the seeds reach it through the windows' scope
   snapshots.  Global clocks are preserved (the shard starts at its
   global start clock), so every reuse whose previous touch lies
   *inside* the shard resolves exactly as the sequential engine would —
   distances count only accesses in ``(t_prev, t)``, all in-shard, and
   carrying-scope bisects see true global entry clocks.  The first
   in-shard touch of each block cannot be classified locally (cold miss
   or cross-shard reuse?); it is diverted into a time-ordered
   *unresolved boundary set* instead of the cold table.
4. **Merge.**  :func:`merge_shard_results` folds adjacent shards
   pairwise, resolving each right span's boundary set against the left
   span's last-touch table and a Fenwick tree over its marks.  Each
   unresolved access resolves against those marks plus a count-smaller
   correction for unresolved predecessors in its own span; its carrying
   scope comes from a binary search over its shard's seed clocks.  The
   merged pattern databases are then rebuilt in global first-event-clock
   order, which reproduces the sequential engines' dict-insertion order
   exactly — ``dump_state()`` of the merge pickles byte-identical to
   ``engine="numpy"`` (and therefore fenwick/treap) run sequentially.

The merge touches each distinct block once per tree level, not each
access: for a trace with footprint F and K shards the serial portion is
O(F log F * log K), while the O(N) analysis fans out across workers.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analyzer import STATE_VERSION, ReuseAnalyzer
from repro.core.histogram import bin_of_array
from repro.core.npengine import (
    NumpyBatchState, NumpyFenwickEngine, _count_smaller_left,
)
from repro.obs import metrics as _obs
from repro.obs import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - loads only where a run records
    from repro.core.tracestore import StoredShardSlice

logger = logging.getLogger("repro.core.shard")


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

def record_trace(program, batch: bool = True, spill=None,
                 spill_mb: Optional[float] = None, **params):
    """Run ``program`` once under a recorder; returns (trace, stats).

    The trace is a :class:`~repro.core.tracestore.StoredTrace` whose
    columns stay in memory, unless ``spill`` names a trace-store
    directory (or is an existing
    :class:`~repro.core.tracestore.TraceStoreWriter`): then they stream
    to disk under a ``spill_mb``-bounded buffer.
    """
    from repro.core.tracestore import StreamRecorder, TraceStoreWriter
    from repro.lang.batch import BatchExecutor
    from repro.lang.executor import Executor
    writer = (spill if isinstance(spill, TraceStoreWriter)
              else TraceStoreWriter(spill, spill_mb=spill_mb))
    recorder = StreamRecorder(writer)
    executor_cls = BatchExecutor if batch else Executor
    try:
        stats = executor_cls(program, recorder).run(**params)
        trace = recorder.finish()
    except BaseException:
        # also on SystemExit (a cancelled job): close the column files
        writer.abort()
        raise
    return trace, stats


def split_trace(trace, nshards: int) -> List["StoredShardSlice"]:
    """Cut a recorded trace into at most K contiguous time shards.

    ``trace`` is a :class:`~repro.core.tracestore.StoredTrace` or an
    open :class:`~repro.core.tracestore.TraceStore`; the cut rule is
    :func:`~repro.core.tracestore.split_stored_trace`'s.
    """
    from repro.core.tracestore import split_stored_trace
    return split_stored_trace(trace, nshards)


# ---------------------------------------------------------------------------
# Per-shard analysis
# ---------------------------------------------------------------------------

class ShardBatchState(NumpyBatchState):
    """Numpy window state that defers boundary classification.

    Two deviations from the sequential state, both hook overrides:

    * blocks first touched in the shard with no local table entry are
      *unresolved* — appended (time-ordered) to the boundary set with
      everything the merge needs to finish them (event clock, rid, live
      seed depth, bottom-of-stack sid) — instead of being counted cold.
      Seeds are the scopes inherited from before the shard: an entry of
      the event's scope-stack snapshot is a live seed exactly when its
      entry clock is below the shard's ``start``, since every scope
      entered inside the shard has a clock at or after it;
    * pattern inserts record the first event clock per key and per
      (key, bin), so the merge can rebuild global dict-insertion order.
    """

    def __init__(self, analyzer, start: int) -> None:
        super().__init__(analyzer)
        self.start = start
        ngran = len(analyzer.grans)
        #: per granularity: pattern key -> first event clock
        self.key_first: List[Dict] = [dict() for _ in range(ngran)]
        #: per granularity: (key, bin) -> first event clock
        self.bin_first: List[Dict] = [dict() for _ in range(ngran)]
        #: per granularity, time-ordered:
        #: (block, clock, rid, seed_depth, first_sid)
        self.unresolved: List[List[tuple]] = [[] for _ in range(ngran)]
        self._obs_unresolved = _obs.counter("shard.boundary_unresolved")

    def _insert_pattern(self, gi, raw, key, b, cnt, clock) -> None:
        bins = raw.get(key)
        if bins is None:
            bins = {}
            raw[key] = bins
            self.key_first[gi][key] = clock
        if b in bins:
            bins[b] += cnt
        else:
            bins[b] = cnt
            self.bin_first[gi][(key, b)] = clock

    def _on_first_touch(self, gi, cold, uniq, first_c, q_cold, Rc,
                        t_c, kept_idx, pos_seg, win) -> None:
        # q_cold is in block-sorted order; re-sort by first position so
        # the boundary set stays time-ordered.  First occurrences never
        # sit on a run-compressed copy, so t_c is the exact event clock.
        pos_cold = first_c[q_cold]
        order = np.argsort(pos_cold)
        p = pos_cold[order]
        snaps = win.seg_snap[pos_seg[kept_idx[p]]]
        offs = np.zeros(win.snap_depths.size + 1, dtype=np.int64)
        np.cumsum(win.snap_depths, out=offs[1:])
        # seeds per snapshot: its entries entered before the shard
        below = np.zeros(offs[-1] + 1, dtype=np.int64)
        np.cumsum(win.flat_clocks < self.start, out=below[1:])
        lo = offs[snaps]
        hi = offs[snaps + 1]
        seed = below[hi] - below[lo]
        first = np.where(hi > lo, np.append(win.flat_sids, -1)[lo], -1)
        self.unresolved[gi].extend(zip(
            uniq[q_cold[order]].tolist(), t_c[p].tolist(), Rc[p].tolist(),
            seed.tolist(), first.tolist()))
        self._obs_unresolved.inc(int(q_cold.size))


@dataclass
class ShardResult:
    """Plain-data result of one shard analysis (safe across processes)."""

    index: int
    start: int
    end: int
    seed_sids: Tuple[int, ...]
    seed_clocks: Tuple[int, ...]
    #: per granularity: raw / key_first / bin_first / unresolved / last
    grans: List[Dict[str, Any]]
    #: worker-side metrics snapshot (obs enabled only)
    metrics: Optional[Dict[str, Any]] = None


def analyze_shard(sl, granularities: Dict[str, int]) -> ShardResult:
    """Analyze one shard in a seeded analyzer; locally-exact result.

    ``sl`` is a :class:`~repro.static.segments.TableSlice` or a
    :class:`~repro.core.tracestore.StoredShardSlice`; either yields its
    windows, with the seeds in their scope snapshots, and the state is
    fed them one by one.  The analyzer's clock starts at the shard's
    global start, so in-shard reuses (distances, bins, carrying scopes)
    come out exactly as in the sequential run.  Cross-shard reuses land
    in the unresolved boundary set for the merge.
    """
    analyzer = ReuseAnalyzer(granularities, engine="numpy")
    analyzer.clock = sl.start
    state = ShardBatchState(analyzer, sl.start)
    state.feed(sl)
    grans = []
    for gi, g in enumerate(analyzer.grans):
        if g.db.cold:  # pragma: no cover - invariant guard
            raise AssertionError("shard worker classified a cold miss")
        grans.append({
            "raw": g.db.raw,
            "key_first": state.key_first[gi],
            "bin_first": state.bin_first[gi],
            "unresolved": state.unresolved[gi],
            "last": dict(g.table.raw),
        })
    return ShardResult(index=sl.index, start=sl.start,
                       end=sl.start + sl.length,
                       seed_sids=sl.seed_sids, seed_clocks=sl.seed_clocks,
                       grans=grans)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------

def _min_into(target: Dict, source: Dict) -> None:
    get = target.get
    for key, clk in source.items():
        prev = get(key)
        if prev is None or clk < prev:
            target[key] = clk


def merge_shard_results(results: Sequence[ShardResult],
                        granularities: Dict[str, int],
                        total_accesses: int) -> Dict:
    """Resolve the boundary sets and rebuild the sequential output.

    Partial results merge in *adjacent pairs*, halving the count each
    round.  Each pair resolves the right node's boundary set against only
    the left node's last-touch table, so a block's marks are re-added
    once per *level* rather than once per shard — O(F log F · log K) for
    K shards of footprint F — and each round's pair merges are
    independent.

    An unresolved access at global time t with previous global touch
    t_prev resolves as

    ``d = active_pre - prefix_pre(t_prev) + corr``

    where the first two terms count blocks whose last pre-boundary touch
    falls in (t_prev, t), and ``corr`` counts unresolved predecessors on
    the same side of the boundary whose previous touch is older than
    t_prev (or absent) — blocks touched in (t_prev, t) that the
    pre-boundary marks can't show.  The carrying scope is a bisect over
    the entry's *original shard's* seed entry clocks, clamped to the
    seed depth live at the event (which is why unresolved entries travel
    through tree levels in per-shard segments: the bisect needs the leaf
    seeds however high the entry gets resolved).  Accesses with no prior
    touch anywhere are the true cold misses, classified at the root.

    Returns a ``ReuseAnalyzer.dump_state()``-format dict; pattern keys,
    bins, and cold rids are inserted in global first-event-clock order,
    reproducing the sequential dict order byte-for-byte — the ordering
    is rebuilt from first-event clocks at the end, so it is independent
    of merge shape.
    """
    results = sorted(results, key=lambda r: r.index)
    pair_counter = _obs.counter("shard.merge_pairs")
    out_grans = []
    for gi, (name, size) in enumerate(granularities.items()):
        nodes = [_gran_leaf(res, gi) for res in results]
        while len(nodes) > 1:
            merged = []
            for j in range(0, len(nodes) - 1, 2):
                merged.append(_merge_pair(nodes[j], nodes[j + 1]))
                pair_counter.inc()
            if len(nodes) % 2:
                merged.append(nodes[-1])
            nodes = merged
        root = nodes[0]
        # Entries still unresolved at the root were never touched
        # earlier anywhere: the true cold misses, in time order.
        cold_counts: Dict[int, int] = {}
        cold_first: Dict[int, int] = {}
        for ents, _ss, _sc in root.segments:
            for e in ents:
                rid = e[2]
                cold_counts[rid] = cold_counts.get(rid, 0) + 1
                if rid not in cold_first:
                    cold_first[rid] = e[1]
        counts = root.counts
        key_first = root.key_first
        bin_first = root.bin_first
        raw_final = {
            key: {b: counts[key][b]
                  for b in sorted(counts[key],
                                  key=lambda b2, _k=key: bin_first[(_k, b2)])}
            for key in sorted(counts, key=key_first.get)
        }
        cold_final = {rid: cold_counts[rid]
                      for rid in sorted(cold_counts, key=cold_first.get)}
        out_grans.append({"name": name, "block_size": size,
                          "raw": raw_final, "cold": cold_final,
                          "blocks": len(root.last)})
    return {"version": STATE_VERSION, "clock": total_accesses,
            "grans": out_grans}


@dataclass
class _GranNode:
    """One granularity's partial merge state over a contiguous time span.

    A node *presents* like a single shard to its right sibling: ``last``
    is the latest in-span touch of every distinct block (so its size is
    the span's footprint and its times are the prefix the distance
    formula needs), and ``segments`` holds the still-unresolved boundary
    entries — one time-ordered segment per original leaf shard, each
    keeping its leaf's seed scope arrays for the carrying-scope bisect.
    Invariant: the segments hold exactly one entry per distinct block,
    its *first* in-span touch; everything later was resolved at this or
    a lower level.
    """

    start: int
    end: int
    counts: Dict[tuple, Dict[int, int]]
    key_first: Dict[tuple, int]
    bin_first: Dict[tuple, int]
    last: Dict[int, tuple]
    #: [(entries, seed_sids, seed_clocks), ...] in time order
    segments: List[Tuple[List[tuple], Tuple[int, ...], Tuple[int, ...]]]


def _gran_leaf(res: ShardResult, gi: int) -> _GranNode:
    g = res.grans[gi]
    u = g["unresolved"]
    return _GranNode(
        start=res.start, end=res.end,
        counts={key: dict(bins) for key, bins in g["raw"].items()},
        key_first=dict(g["key_first"]),
        bin_first=dict(g["bin_first"]),
        last=dict(g["last"]),
        segments=([(list(u), res.seed_sids, res.seed_clocks)]
                  if u else []),
    )


def _merge_pair(left: _GranNode, right: _GranNode) -> _GranNode:
    """Fold two adjacent spans into one; mutates and returns ``left``.

    Resolves every right-span boundary entry whose block was touched in
    the left span: its previous global touch is the block's last left-
    span touch (older touches, if any, predate the left span and cannot
    win).  Blocks the left span never touched survive, still unresolved,
    into the merged node's boundary set.
    """
    for key, bins in right.counts.items():
        tgt = left.counts.get(key)
        if tgt is None:
            left.counts[key] = bins
        else:
            for b, c in bins.items():
                tgt[b] = tgt.get(b, 0) + c
    _min_into(left.key_first, right.key_first)
    _min_into(left.bin_first, right.bin_first)
    lt = left.last
    entries: List[tuple] = []
    seg_of: List[int] = []
    for si, (ents, _ss, _sc) in enumerate(right.segments):
        entries.extend(ents)
        seg_of.extend([si] * len(ents))
    nu = len(entries)
    survivors: List[List[tuple]] = [[] for _ in right.segments]
    if nu and lt:
        prevs = [lt.get(e[0]) for e in entries]
        tp = np.fromiter((p[0] if p is not None else 0 for p in prevs),
                         np.int64, nu)
        found = np.fromiter((p is not None for p in prevs), bool, nu)
        qf = np.flatnonzero(found)
        if qf.size:
            eng = NumpyFenwickEngine()
            eng.ensure(int(left.end))
            eng.bulk_add(np.fromiter((v[0] for v in lt.values()),
                                     np.int64, len(lt)), 1)
            pre = eng.bulk_prefix(tp[qf])
            # Count-smaller over the whole right span's boundary set:
            # earlier entries with an older (or absent) left-span touch
            # are blocks first touched in (t_prev, t) on the right side,
            # invisible to the left-span marks.  Stable argsort breaks
            # the all-absent (tp=0) ties by position; real times are
            # unique.
            ord2 = np.argsort(tp, kind="stable")
            ranks = np.empty(nu, dtype=np.int64)
            ranks[ord2] = np.arange(nu, dtype=np.int64)
            corr = _count_smaller_left(ranks, qf)
            d = len(lt) - pre + corr
            bins_q = bin_of_array(d)
            tpq = tp[qf]
            sd = np.fromiter((entries[i][3] for i in qf.tolist()),
                             np.int64, qf.size)
            fs = np.fromiter((entries[i][4] for i in qf.tolist()),
                             np.int64, qf.size)
            carry = fs.copy()
            seg_q = np.fromiter((seg_of[i] for i in qf.tolist()),
                                np.int64, qf.size)
            for si, (_ents, seed_s, seed_c) in enumerate(right.segments):
                if not seed_s:
                    continue
                m = seg_q == si
                if not m.any():
                    continue
                sc = np.asarray(seed_c, dtype=np.int64)
                ss = np.asarray(seed_s, dtype=np.int64)
                pos = np.minimum(
                    np.searchsorted(sc, tpq[m], side="left"), sd[m])
                carry[m] = np.where(pos > 0,
                                    ss[np.maximum(pos, 1) - 1], fs[m])
            counts = left.counts
            key_first = left.key_first
            bin_first = left.bin_first
            for i, car, b in zip(qf.tolist(), carry.tolist(),
                                 bins_q.tolist()):
                e = entries[i]
                key = (e[2], prevs[i][2], car)
                bins = counts.get(key)
                if bins is None:
                    counts[key] = {b: 1}
                else:
                    bins[b] = bins.get(b, 0) + 1
                t = e[1]
                prev_clk = key_first.get(key)
                if prev_clk is None or t < prev_clk:
                    key_first[key] = t
                kb = (key, b)
                prev_clk = bin_first.get(kb)
                if prev_clk is None or t < prev_clk:
                    bin_first[kb] = t
        for i in np.flatnonzero(~found).tolist():
            survivors[seg_of[i]].append(entries[i])
    elif nu:
        for i, e in enumerate(entries):
            survivors[seg_of[i]].append(e)
    lt.update(right.last)
    for (_, seed_s, seed_c), surv in zip(right.segments, survivors):
        if surv:
            left.segments.append((surv, seed_s, seed_c))
    left.end = right.end
    return left


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _init_shard_worker(obs_enabled: bool, log_level) -> None:
    """Pool initializer: propagate parent state, arm clean termination."""
    from repro.tools.resilience import install_term_handler
    _obs.set_enabled(obs_enabled)
    if log_level is not None:
        logging.getLogger("repro").setLevel(log_level)
    install_term_handler()


def _run_shard(args) -> ShardResult:
    """Worker body: one shard, metered under a scoped registry."""
    sl, granularities = args
    if not _obs.is_enabled():
        return analyze_shard(sl, granularities)
    with _obs.scoped() as reg:
        reg.counter("shard.workers").inc()
        t0 = time.perf_counter()
        with _trace.span("shard.analyze", index=sl.index,
                         accesses=sl.length):
            result = analyze_shard(sl, granularities)
        reg.timer("shard.worker_latency").observe(time.perf_counter() - t0)
        result.metrics = reg.snapshot()
    return result


def run_shards(slices: Sequence, granularities: Dict[str, int],
               jobs: Optional[int] = None) -> List[ShardResult]:
    """Analyze every shard, inline or across a process pool.

    ``slices`` are trace or table slices (see :func:`analyze_shard`).

    ``jobs=None`` picks ``min(len(slices), cpu_count)``.  Worker metric
    snapshots are merged back into the parent registry (and stay on each
    :class:`ShardResult` for manifests).

    After the map, the pool is closed and joined so idle workers exit
    on their own: a worker's SIGTERM handler raises ``SystemExit``, and
    the ``Pool.terminate`` the ``with`` block ends in could hang on a
    worker that gets the signal mid-teardown.  Only a failed map still
    terminates the pool.
    """
    slices = list(slices)
    if jobs is None:
        jobs = min(len(slices), os.cpu_count() or 1)
    payload = [(sl, dict(granularities)) for sl in slices]
    if jobs <= 1 or len(slices) <= 1:
        results = [_run_shard(p) for p in payload]
    else:
        import multiprocessing
        ctx = multiprocessing.get_context()
        with ctx.Pool(min(jobs, len(slices)),
                      initializer=_init_shard_worker,
                      initargs=(_obs.is_enabled(),
                                logging.getLogger("repro").level or None)
                      ) as pool:
            results = pool.map(_run_shard, payload, chunksize=1)
            pool.close()
            pool.join()
    if _obs.is_enabled():
        registry = _obs.registry()
        for res in results:
            if res.metrics:
                registry.merge(res.metrics)
    return results
