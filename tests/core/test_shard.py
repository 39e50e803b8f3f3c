"""Unit tests for the time-sliced shard machinery.

Recording fidelity, the one cut rule on recorded traces (op-boundary
cuts, seed scope stacks, collapse, cut placement) and their windows,
segment-table slicing (cuts, seeds, pickled size), the degenerate shard
counts, and the shard observability counters.  Byte-identity of the
merged output against the sequential engines lives in
``tests/integration/test_shard_equivalence``.
"""

import pickle

import numpy as np
import pytest

from repro.apps.kernels import stream_triad
from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.core.shard import (
    ShardBatchState, analyze_shard, merge_shard_results, record_trace,
    run_shards, split_trace,
)
from repro.core.tracestore import (
    COALESCE_CAP, OP_BATCH, OP_ENTER, OP_EXIT, OP_ROWS, StoredShardSlice,
    StreamRecorder, TraceStore,
)
from repro.lang import (
    BatchExecutor, MemoryLayout, Var, load, loop, program, routine, stmt,
)
from repro.lang.batch import CHUNK_ACCESSES
from repro.model import MachineConfig
from repro.static.segments import build_segments
from tests.helpers import (
    fed_analyzer, record_ops, scalar_state, slice_windows,
)

GRANS = MachineConfig.scaled_itanium2().granularities()


def _sweep_trace():
    trace, _ = record_trace(build_original(SweepParams(n=6, mm=3, nm=2,
                                                       noct=1)))
    return trace


def _access_counts(ops: np.ndarray) -> np.ndarray:
    kind = ops[:, 0]
    return np.where(kind == OP_ROWS, ops[:, 2] * ops[:, 3],
                    np.where(kind == OP_BATCH, ops[:, 2], 0))


def _slice_ops(sl) -> list:
    """The op records of a slice, as ``[kind, a, b, c]`` lists."""
    return TraceStore(sl.trace).ops[sl.op_lo:sl.op_hi].tolist()


class TestRecording:
    def test_recorded_stats_match_direct_run(self):
        build = lambda: build_original(SweepParams(n=6, mm=3, nm=2, noct=1))
        direct = BatchExecutor(build(), ReuseAnalyzer(GRANS)).run()
        trace, stats = record_trace(build())
        assert vars(stats) == vars(direct)
        assert trace.accesses == direct.accesses

    def test_rows_stay_unmaterialized(self):
        # The triad's inner loops are affine: recording must keep them as
        # rows ops, not expand them into per-access batch payloads.
        trace, stats = record_trace(stream_triad(512, 2))
        kinds = trace.columns["ops"][:, 0]
        assert (kinds == OP_ROWS).any()
        assert trace.columns["batch_addrs"].size < stats.accesses

    def test_scalar_coalescing(self):
        rec = StreamRecorder()
        rec.enter_scope(1)
        for addr in (0, 64, 128):
            rec.access(0, addr, False)
        rec.exit_scope(1)
        trace = rec.finish()
        assert trace.columns["ops"].tolist() == [
            [OP_ENTER, 1, 0, 0], [OP_BATCH, 0, 3, 0], [OP_EXIT, 1, 0, 0]]
        assert trace.columns["batch_addrs"].tolist() == [0, 64, 128]
        assert trace.columns["batch_rids"].tolist() == [0, 0, 0]

    def test_scalar_segments_close_at_the_cap(self):
        rec = StreamRecorder()
        for i in range(COALESCE_CAP + 5):
            rec.access(0, 64 * i, False)
        ops = rec.finish().columns["ops"]
        assert ops[:, 2].tolist() == [COALESCE_CAP, 5]


class TestSplitting:
    """Recorded traces are cut between ops, by the segment table's rule."""

    def test_contiguous_cover(self):
        # slices tile the trace's ops; every cut is an op boundary
        trace = _sweep_trace()
        acc = _access_counts(trace.columns["ops"])
        done = np.cumsum(acc)
        for k in (1, 2, 3, 5, 8):
            slices = split_trace(trace, k)
            assert len(slices) == k
            assert slices[0].start == 0
            assert sum(sl.length for sl in slices) == trace.accesses
            op_lo = 0
            for i, sl in enumerate(slices):
                assert sl.index == i
                # in memory, a slice carries ops [op_lo, op_lo + n) only
                # (side-table offsets rebased)
                assert sl.op_lo == 0 and sl.trace.nops == sl.op_hi
                ops = np.array(_slice_ops(sl)).reshape(-1, 4)
                whole = trace.columns["ops"][op_lo:op_lo + sl.op_hi]
                assert ops[:, [0, 2, 3]].tolist() == \
                    whole[:, [0, 2, 3]].tolist()
                # the op before a cut is an access op ending at the start
                if op_lo:
                    assert acc[op_lo - 1] > 0
                    assert done[op_lo - 1] == sl.start
                assert int(_access_counts(ops).sum()) == sl.length > 0
                assert sum(n for n, _w in sl.windows(1 << 17)) == sl.length
                op_lo += sl.op_hi
            assert op_lo == trace.nops

    def test_cuts_are_the_first_op_boundary_at_or_after_each_target(self):
        trace = _sweep_trace()
        acc = _access_counts(trace.columns["ops"])
        # clocks at which an op boundary falls between two access ops
        ends = np.cumsum(acc)[acc > 0].tolist()
        n = trace.accesses
        for k in (2, 3, 7, 40):
            slices = split_trace(trace, k)
            want = sorted({min([c for c in [0] + ends if c >= i * n // k])
                           for i in range(k)} - {n})
            assert [sl.start for sl in slices] == want
            for i, sl in enumerate(slices):
                # a recorded op holds at most max(CHUNK_ACCESSES, k)
                # accesses, so a cut lands less than one chunk past its
                # target
                assert 0 <= sl.start - i * n // k < CHUNK_ACCESSES

    def test_seed_stack_matches_replay(self):
        # replaying the slices' ops in order rebuilds each shard's seeds
        trace = _sweep_trace()
        for k in (2, 4, 7):
            slices = split_trace(trace, k)
            stack = []
            clock = 0
            op = 0
            for sl in slices:
                assert (sl.seed_sids, sl.seed_clocks) == (
                    tuple(s for s, _c in stack), tuple(c for _s, c in stack))
                # seed scopes were all entered strictly before the shard
                assert all(c < sl.start for c in sl.seed_clocks)
                for kind, a, b, c in _slice_ops(sl):
                    if kind == OP_ENTER:
                        stack.append((a, clock))
                    elif kind == OP_EXIT:
                        stack.pop()
                    else:
                        clock += b * c if kind == OP_ROWS else b
                    op += 1
            assert op == trace.nops and stack == []

    def test_more_shards_than_access_ops_collapse(self):
        # three rows ops: any K above three collapses onto them, one
        # access op per slice and no empty slice
        trace, _ = record_trace(stream_triad(4, 3))
        for k in (3, 4, 10 ** 6):
            slices = split_trace(trace, k)
            assert len(slices) == 3
            for sl in slices:
                kinds = [op[0] for op in _slice_ops(sl)]
                assert kinds.count(OP_ROWS) == 1 and sl.length == 12

    def test_empty_trace_single_shard(self):
        slices = split_trace(record_ops((("enter", 1), ("exit", 1))), 7)
        assert len(slices) == 1
        (sl,) = slices
        assert (sl.start, sl.length, sl.seed_sids) == (0, 0, ())
        assert len(_slice_ops(sl)) == 2 and slice_windows(sl) == []

    def test_scope_event_on_cut_goes_to_next_shard(self):
        # accesses 0,1 | 2,3 — the exit/enter pair lands exactly on the
        # cut and must open shard 1, so its seeds stay strictly pre-start.
        ops = (("enter", 1),
               ("batch", [0, 0], [0, 64], [False, False], 0),
               ("exit", 1),
               ("enter", 2),
               ("batch", [0, 0], [0, 128], [False, False], 0),
               ("exit", 2))
        slices = split_trace(record_ops(ops), 2)
        assert [op[0] for op in _slice_ops(slices[0])] == \
            [OP_ENTER, OP_BATCH]
        assert _slice_ops(slices[1])[0] == [OP_EXIT, 1, 0, 0]
        assert slices[1].seed_sids == (1,)
        assert slices[1].seed_clocks == (0,)
        # shard 1 exits its seed: its window's snapshot drops it
        (win,) = slice_windows(slices[1])
        assert win.flat_sids.tolist() == [2]
        assert win.flat_clocks.tolist() == [2]

    def test_rows_op_is_never_cut(self):
        # One rows op: 3 refs/iteration x 4 iterations = 12 accesses.
        # Every target of K = 3 falls inside it, so all collapse onto
        # the trace's start: one slice, the whole op.
        ops = (("rows", (0, 1, 2), (False, False, True),
                (0, 1000, 2000), (8, 8, 8), 4),)
        (sl,) = split_trace(record_ops(ops), 3)
        assert (sl.start, sl.length) == (0, 12)
        (win,) = slice_windows(sl)
        assert win.seg_len.tolist() == [12] and win.seg_per.tolist() == [3]

    def test_batch_period_survives_whole_op_cuts(self):
        # 4 batch ops, each 2 rows of 3 refs: every cut falls between
        # ops, so every window keeps the recorded period
        row = ([0, 1, 2] * 2, list(range(0, 384, 64)), [False] * 6, 3)
        trace = record_ops([("batch",) + row] * 4)
        for k in (2, 3, 4):
            slices = split_trace(trace, k)
            assert [sl.length for sl in slices] == \
                {2: [12, 12], 3: [12, 6, 6], 4: [6] * 4}[k]
            for sl in slices:
                for win in slice_windows(sl, threshold=7):
                    assert win.seg_per.tolist() == [3] * win.seg_len.size

    def test_rows_windows_broadcast_bases_and_strides(self):
        # a rows op stays symbolic in the columns; its window holds
        # base + row * stride per reference, rids repeating per row
        trace = record_ops([("rows", (0, 1, 2), (False, False, True),
                             (0, 1000, 2000), (8, 8, 8), 3)])
        assert trace.columns["rows_bases"].tolist() == [0, 1000, 2000]
        assert trace.columns["batch_addrs"].size == 0
        (sl,) = split_trace(trace, 1)
        (win,) = slice_windows(sl)
        assert win.addrs.tolist() == [0, 1000, 2000, 8, 1008, 2008,
                                      16, 1016, 2016]
        assert win.rids.tolist() == [0, 1, 2] * 3

    def test_windows_end_at_the_first_op_boundary_past_the_threshold(self):
        trace = _sweep_trace()
        (sl,) = split_trace(trace, 1)
        acc = _access_counts(trace.columns["ops"])
        sizes = acc[acc > 0].tolist()
        got = [n for n, _w in sl.windows(1000)]
        want, pending = [], 0
        for size in sizes:
            pending += size
            if pending >= 1000:
                want.append(pending)
                pending = 0
        assert got == want + ([pending] if pending else [])


class TestShardAnalysis:
    def test_shard_workers_never_classify_cold(self):
        trace, _ = record_trace(stream_triad(128, 2))
        for sl in split_trace(trace, 3):
            res = analyze_shard(sl, GRANS)
            for g in res.grans:
                assert g["unresolved"]
                # boundary set is time-ordered
                clocks = [e[1] for e in g["unresolved"]]
                assert clocks == sorted(clocks)

    def test_merge_single_shard_equals_sequential(self):
        build = lambda: stream_triad(128, 2)
        trace, _ = record_trace(build())
        (sl,) = split_trace(trace, 1)
        state = merge_shard_results([analyze_shard(sl, GRANS)], GRANS,
                                    trace.accesses)
        assert pickle.dumps(state) == scalar_state(build(), GRANS)

    def test_results_merge_in_any_order(self):
        trace, _ = record_trace(stream_triad(128, 2))
        slices = split_trace(trace, 4)
        results = [analyze_shard(sl, GRANS) for sl in slices]
        forward = merge_shard_results(results, GRANS, trace.accesses)
        shuffled = merge_shard_results(list(reversed(results)), GRANS,
                                       trace.accesses)
        assert pickle.dumps(shuffled) == pickle.dumps(forward)

    def test_boundary_counter_and_worker_metrics(self, obs_on):
        trace, _ = record_trace(stream_triad(128, 3))
        slices = split_trace(trace, 3)
        assert len(slices) == 3
        state = merge_shard_results(run_shards(slices, GRANS), GRANS,
                                    trace.accesses)
        assert state["clock"] == trace.accesses
        counters = obs_on.snapshot()["counters"]
        assert counters["shard.workers"] == 3
        assert counters["shard.boundary_unresolved"] > 0
        timers = obs_on.snapshot()["timers"]
        assert timers["shard.worker_latency"]["count"] == 3

    def test_run_shards_pool_matches_inline(self):
        trace, _ = record_trace(stream_triad(256, 2))
        slices = split_trace(trace, 3)
        inline = run_shards(slices, GRANS, jobs=1)
        pooled = run_shards(slices, GRANS, jobs=2)
        key = lambda rs: pickle.dumps(
            merge_shard_results(rs, GRANS, trace.accesses))
        assert key(pooled) == key(inline)

    def test_run_shards_pool_never_terminates_workers(self, monkeypatch):
        # Pool.terminate SIGTERMs idle workers, whose handler raises
        # SystemExit; a teardown through it could hang.  A pool that
        # finished its map is closed and joined instead.
        from multiprocessing.process import BaseProcess
        terminated = []
        terminate = BaseProcess.terminate

        def spy(proc):
            terminated.append(proc.pid)
            terminate(proc)

        monkeypatch.setattr(BaseProcess, "terminate", spy)
        trace, _ = record_trace(stream_triad(64, 2))
        results = run_shards(split_trace(trace, 2), GRANS, jobs=2)
        assert [res.index for res in results] == [0, 1]
        assert terminated == []

    def test_seed_depth_shrinks_on_seed_exit(self):
        # A shard that exits a seeded scope must not attribute later
        # boundary reuses to it: a snapshot entry is a live seed only
        # while its entry clock is below the shard's start.
        touch = lambda addr: ("batch", [0], [addr], [False], 0)
        trace = record_ops([touch(0), ("exit", 2), touch(4096),
                            ("enter", 3), touch(8192), ("exit", 3),
                            ("exit", 1), touch(12288)])
        sl = StoredShardSlice(0, 10, 4, (1, 2), (0, 5), 0, trace.nops, trace)
        analyzer = ReuseAnalyzer(GRANS, engine="numpy")
        analyzer.clock = 10
        state = ShardBatchState(analyzer, 10)
        state.feed(sl)
        for boundary in state.unresolved:
            # (seed depth, bottom sid) per first touch, in time order
            assert [(e[1], e[3], e[4]) for e in boundary] == [
                (11, 2, 1), (12, 1, 1), (13, 1, 1), (14, 0, -1)]


class TestTableSlices:
    """A segment table cut into shards (the recording-free feed)."""

    def test_cuts_at_segment_boundaries(self):
        table = build_segments(build_original(SweepParams(n=6, mm=3, nm=2,
                                                          noct=1)))
        clock = table._seg_clock.tolist()
        for k in (1, 2, 3, 5, 8):
            slices = table.slices(k)
            assert len(slices) == min(k, table.segments)
            assert slices[0].start == 0
            for i, sl in enumerate(slices):
                # the first boundary at or after i * n // k
                assert sl.start == min(c for c in clock
                                       if c >= i * table.accesses // k)
                assert sl.table.accesses == sl.length
                assert all(c < sl.start for c in sl.seed_clocks)
            assert sum(sl.length for sl in slices) == table.accesses

    def test_more_shards_than_segments_collapse(self):
        table = build_segments(stream_triad(64, 2))
        slices = table.slices(10 ** 6)
        assert len(slices) == table.segments
        state = merge_shard_results(run_shards(slices, GRANS, jobs=1),
                                    GRANS, table.accesses)
        assert pickle.dumps(state) == _fed(table)

    def test_empty_program_single_shard(self):
        lay = MemoryLayout()
        a = lay.array("A", 8)
        prog = program("empty", lay, [routine("main", loop(
            "i", 1, 0, stmt(load(a, Var("i")))))])
        table = build_segments(prog)
        (sl,) = table.slices(7)
        assert (sl.start, sl.length, sl.seed_sids) == (0, 0, ())
        state = merge_shard_results(run_shards([sl], GRANS), GRANS, 0)
        assert pickle.dumps(state) == _fed(table)

    def test_slices_pickle_only_their_segments(self):
        # in process a slice views its parent's arrays; pickled, each
        # ships its own part, so K slices cost about one table
        table = build_segments(build_original(SweepParams(n=6, mm=3, nm=2,
                                                          noct=1)))
        whole = len(pickle.dumps(table))
        for k in (2, 3, 5):
            blobs = [pickle.dumps(sl) for sl in table.slices(k)]
            assert all(len(blob) < whole for blob in blobs)
            assert sum(map(len, blobs)) < whole + 4096 * k

    def test_digest_names_the_content(self):
        build = lambda n: build_original(SweepParams(n=n, mm=3, nm=2,
                                                     noct=1))
        assert build_segments(build(6)).digest == \
            build_segments(build(6)).digest
        assert build_segments(build(6)).digest != \
            build_segments(build(5)).digest


def _fed(table) -> bytes:
    return pickle.dumps(fed_analyzer(table, GRANS).dump_state())


@pytest.mark.parametrize("shards", [0, -3])
def test_invalid_shard_count_clamps_to_one(shards):
    trace, _ = record_trace(stream_triad(16, 1))
    assert len(split_trace(trace, shards)) == 1
