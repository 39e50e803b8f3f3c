"""Unit tests for the time-sliced shard machinery.

Recording fidelity, trace splitting invariants (contiguity, seed scope
stacks, boundary placement), segment-table slicing (cuts, seeds, pickled
size), the degenerate shard counts, and the shard observability
counters.  Byte-identity of the merged output against the
sequential engines lives in ``tests/integration/test_shard_equivalence``.
"""

import dataclasses
import pickle

import pytest

from repro.apps.kernels import stream_triad
from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.core.shard import (
    ShardBatchState, analyze_shard, analyze_trace_sharded,
    merge_shard_results, record_trace, run_shards, split_trace,
)
from repro.lang import (
    BatchExecutor, MemoryLayout, Var, load, loop, program, routine, stmt,
)
from repro.model import MachineConfig
from repro.static.segments import build_segments
from tests.helpers import record_ops, replayed_ops

GRANS = MachineConfig.scaled_itanium2().granularities()


def _trace_ops(trace) -> list:
    (sl,) = split_trace(trace, 1)
    return replayed_ops(sl)


def _slice_accesses(sl) -> int:
    total = 0
    for op in replayed_ops(sl):
        if op[0] == "batch":
            total += len(op[2])
        elif op[0] == "rows":
            total += op[5] * len(op[3])
    return total


class TestRecording:
    def test_recorded_stats_match_direct_run(self):
        build = lambda: build_original(SweepParams(n=6, mm=3, nm=2, noct=1))
        analyzer = ReuseAnalyzer(GRANS, engine="numpy")
        direct = BatchExecutor(build(), analyzer).run()
        trace, stats = record_trace(build())
        assert vars(stats) == vars(direct)
        assert trace.accesses == direct.accesses

    def test_rows_stay_unmaterialized(self):
        # The triad's inner loops are affine: recording must keep them as
        # rows ops, not expand them into per-access batch payloads.
        trace, stats = record_trace(stream_triad(512, 2))
        ops = _trace_ops(trace)
        rows = [op for op in ops if op[0] == "rows"]
        assert rows
        materialized = sum(len(op[2]) for op in ops
                           if op[0] == "batch")
        assert materialized < stats.accesses

    def test_scalar_coalescing(self):
        from repro.core.shard import StreamRecorder
        rec = StreamRecorder()
        rec.enter_scope(1)
        for addr in (0, 64, 128):
            rec.access(0, addr, False)
        rec.exit_scope(1)
        assert _trace_ops(rec.finish()) == [
            ("enter", 1),
            ("batch", [0, 0, 0], [0, 64, 128], [False, False, False], 0),
            ("exit", 1)]


class TestSplitting:
    def test_contiguous_cover(self):
        trace, _ = record_trace(build_original(SweepParams(n=6, mm=3,
                                                           nm=2, noct=1)))
        for k in (1, 2, 3, 5, 8):
            slices = split_trace(trace, k)
            assert len(slices) == k
            assert slices[0].start == 0
            for prev, cur in zip(slices, slices[1:]):
                assert cur.start == prev.start + prev.length
            assert sum(sl.length for sl in slices) == trace.accesses
            for sl in slices:
                assert _slice_accesses(sl) == sl.length
                # seed scopes were all entered strictly before the shard
                assert all(c < sl.start or sl.length == 0
                           for c in sl.seed_clocks)
                assert len(sl.seed_sids) == len(sl.seed_clocks)

    def test_seed_stack_matches_replay(self):
        trace, _ = record_trace(build_original(SweepParams(n=6, mm=3,
                                                           nm=2, noct=1)))
        slices = split_trace(trace, 4)
        stack = []
        consumed = 0
        cut_points = {sl.start: sl for sl in slices[1:]}
        for op in _trace_ops(trace):
            if consumed in cut_points:
                sl = cut_points.pop(consumed)
                sl_ops = replayed_ops(sl)
                if sl_ops and sl_ops[0][0] not in ("enter", "exit"):
                    assert list(sl.seed_sids) == [s for s, _c in stack]
            if op[0] == "enter":
                stack.append((op[1], consumed))
            elif op[0] == "exit":
                stack.pop()
            elif op[0] == "batch":
                consumed += len(op[2])
            else:
                consumed += op[5] * len(op[3])

    def test_more_shards_than_accesses_clamps(self):
        trace, _ = record_trace(stream_triad(4, 1))
        slices = split_trace(trace, 10 ** 6)
        assert len(slices) == trace.accesses
        assert all(sl.length == 1 for sl in slices)

    def test_empty_trace_single_shard(self):
        slices = split_trace(record_ops(()), 7)
        assert len(slices) == 1
        assert slices[0].length == 0 and replayed_ops(slices[0]) == []

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
        assert replayed_ops(slices[0])[-1][0] == "batch"
        assert replayed_ops(slices[1])[0] == ("exit", 1)
        assert slices[1].seed_sids == (1,)
        assert slices[1].seed_clocks == (0,)

    def test_mid_row_cut_materializes_only_partial_rows(self):
        # One rows op: 3 refs/iteration x 4 iterations = 12 accesses.
        ops = (("rows", (0, 1, 2), (False, False, True),
                (0, 1000, 2000), (8, 8, 8), 4),)
        slices = split_trace(record_ops(ops), 3)
        # 12/3 = 4 accesses per shard: every boundary is mid-row.
        kinds = [[op[0] for op in replayed_ops(sl)] for sl in slices]
        assert kinds[0] == ["rows", "batch"]          # 1 whole row + 1 ref
        assert kinds[1] == ["batch", "batch"]         # tail + head partials
        assert kinds[2] == ["batch", "rows"]
        assert [_slice_accesses(sl) for sl in slices] == [4, 4, 4]
        # the resumed whole-row piece keeps its stride with shifted bases
        assert replayed_ops(slices[2])[1] == (
            "rows", (0, 1, 2), (False, False, True),
            (24, 1024, 2024), (8, 8, 8), 1)

    def test_mid_batch_cut_keeps_period_only_when_row_aligned(self):
        # 4 rows of 3 refs: cuts at multiples of 3 keep the row period
        ops = (("batch", [0, 1, 2] * 4, list(range(0, 768, 64)),
                [False] * 12, 3),)
        trace = record_ops(ops)
        for k, periods in ((2, [3, 3]), (3, [0, 0, 0]), (4, [3] * 4)):
            got = [op[4] for sl in split_trace(trace, k)
                   for op in replayed_ops(sl)]
            assert got == periods

    def test_emit_rows_piece_middle_rows_stay_unmaterialized(self):
        # accesses [1, 9) of a 3-ref x 3-iteration rows op
        trace = record_ops([("rows", (0, 1, 2), (False, False, True),
                             (0, 1000, 2000), (8, 8, 8), 3)])
        (whole,) = split_trace(trace, 1)
        sl = dataclasses.replace(whole, start=1, length=8, skip=1)
        assert replayed_ops(sl) == [
            ("batch", [1, 2], [1000, 2000], [False, True], 0),
            ("rows", (0, 1, 2), (False, False, True),
             (8, 1008, 2008), (8, 8, 8), 2),
        ]


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
        analyzer = ReuseAnalyzer(GRANS, engine="numpy")
        BatchExecutor(build(), analyzer).run()
        trace, _ = record_trace(build())
        (sl,) = split_trace(trace, 1)
        state = merge_shard_results([analyze_shard(sl, GRANS)], GRANS,
                                    trace.accesses)
        assert pickle.dumps(state) == pickle.dumps(analyzer.dump_state())

    def test_results_merge_in_any_order(self):
        trace, _ = record_trace(stream_triad(128, 2))
        slices = split_trace(trace, 4)
        results = [analyze_shard(sl, GRANS) for sl in slices]
        forward = merge_shard_results(results, GRANS, trace.accesses)
        shuffled = merge_shard_results(list(reversed(results)), GRANS,
                                       trace.accesses)
        assert pickle.dumps(shuffled) == pickle.dumps(forward)

    def test_boundary_counter_and_worker_metrics(self, obs_on):
        trace, _ = record_trace(stream_triad(128, 2))
        state = analyze_trace_sharded(trace, GRANS, 3)
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
        trace, _ = record_trace(stream_triad(64, 1))
        results = run_shards(split_trace(trace, 2), GRANS, jobs=2)
        assert [res.index for res in results] == [0, 1]
        assert terminated == []

    def test_seed_depth_shrinks_on_seed_exit(self):
        # A shard that exits a seeded scope must not attribute later
        # boundary reuses to it: a snapshot entry is a live seed only
        # while its entry clock is below the shard's start.
        analyzer = ReuseAnalyzer(GRANS, engine="numpy")
        state = ShardBatchState(analyzer, 10)
        analyzer._install_numpy_state(state)
        analyzer.clock = 10
        analyzer.stack._sids.extend([1, 2])
        analyzer.stack._clocks.extend([0, 5])
        touch = lambda addr: analyzer.access_batch([0], [addr], [False])
        touch(0)
        analyzer.exit_scope(2)
        touch(4096)
        analyzer.enter_scope(3)
        touch(8192)
        analyzer.exit_scope(3)
        analyzer.exit_scope(1)
        touch(12288)
        analyzer._flush()
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
    analyzer = ReuseAnalyzer(GRANS, engine="numpy")
    analyzer._np_state.feed(table)
    return pickle.dumps(analyzer.dump_state())


@pytest.mark.parametrize("shards", [0, -3])
def test_invalid_shard_count_clamps_to_one(shards):
    trace, _ = record_trace(stream_triad(16, 1))
    assert len(split_trace(trace, shards)) == 1
