"""Unit tests for the spillable columnar trace store.

Writer spill bounds, digest stability across flush placement, the
on-disk format guards, one format in memory and on disk (columns,
digests, slice geometry, replayed streams, slice pickles), dedup
recording, and the ``trace.*`` observability counters.  Merged
byte-identity of spilled sharded analysis against the sequential
engines lives in ``tests/integration/test_shard_equivalence``.
"""

import json
import os
import pickle

import pytest

from repro.apps.kernels import irregular_gather, stream_triad
from repro.apps.sweep3d import SweepParams, build_original
from repro.core.shard import StreamRecorder, record_trace, split_trace
from repro.core.tracestore import (
    _COLUMNS, TRACESTORE_VERSION, StoredTrace, TraceStore,
    TraceStoreWriter, load_trace, record_spilled, replay_slice,
    split_stored_trace,
)
from repro.lang import BatchExecutor
from tests.helpers import OpCollector, replayed_ops


def _build():
    return build_original(SweepParams(n=6, mm=3, nm=2, noct=1))


class TestWriter:
    def test_roundtrip_meta(self, tmp_path):
        stored, stats = record_trace(_build(), spill=str(tmp_path / "t"))
        assert isinstance(stored, StoredTrace)
        assert stored.accesses == stats.accesses > 0
        assert stored.nops > 0
        assert len(stored.digest) == 64
        loaded = load_trace(stored.path)
        assert loaded == stored
        store = TraceStore(stored.path)
        assert store.ops.shape == (stored.nops, 4)

    def test_forced_spill_bounds_buffer(self, tmp_path):
        writer = TraceStoreWriter(str(tmp_path / "t"), spill_mb=0.001)
        record_trace(_build(), spill=writer)
        assert writer.flushes > 1
        assert writer.spilled_bytes > 0
        # the buffer never held the whole trace...
        assert writer.max_buffered < writer.spilled_bytes
        # ...and the high-water mark respects the bound up to one op's
        # worth of overshoot (the check runs after each append)
        assert writer.max_buffered < 2 * writer.spill_limit
        # everything buffered reached disk
        on_disk = sum(
            os.path.getsize(os.path.join(writer.path, f))
            for f in os.listdir(writer.path) if f != "meta.json")
        assert on_disk == writer.spilled_bytes

    def test_digest_independent_of_flush_boundaries(self, tmp_path):
        tight, _ = record_trace(_build(), spill=str(tmp_path / "a"),
                                spill_mb=0.001)
        loose, _ = record_trace(_build(), spill=str(tmp_path / "b"))
        assert tight.digest == loose.digest
        other, _ = record_trace(
            build_original(SweepParams(n=5, mm=3, nm=2, noct=1)),
            spill=str(tmp_path / "c"))
        assert other.digest != tight.digest

    def test_rows_stay_symbolic_on_disk(self, tmp_path):
        # the triad's affine loops must not expand to per-access records
        stored, stats = record_trace(stream_triad(512, 2),
                                     spill=str(tmp_path / "t"))
        store = TraceStore(stored.path)
        assert len(store.batch_addrs) < stats.accesses
        assert len(store.rows_bases) > 0

    def test_spill_mb_validation(self, tmp_path):
        with pytest.raises(ValueError):
            TraceStoreWriter(str(tmp_path / "t"), spill_mb=0)

    def test_finalize_twice_raises(self, tmp_path):
        writer = TraceStoreWriter(str(tmp_path / "t"))
        writer.finalize()
        with pytest.raises(RuntimeError):
            writer.finalize()

    def test_empty_trace(self, tmp_path):
        stored = TraceStoreWriter(str(tmp_path / "t")).finalize()
        assert stored.accesses == 0 and stored.nops == 0
        store = TraceStore(stored.path)
        assert store.ops.shape == (0, 4)
        assert len(split_stored_trace(store, 4)) == 1


class TestLoadGuards:
    def test_rejects_wrong_magic(self, tmp_path):
        d = tmp_path / "t"
        d.mkdir()
        (d / "meta.json").write_text(json.dumps({"magic": "nope"}))
        with pytest.raises(ValueError):
            load_trace(str(d))

    def test_rejects_version_mismatch(self, tmp_path):
        stored, _ = record_trace(_build(), spill=str(tmp_path / "t"))
        meta_path = os.path.join(stored.path, "meta.json")
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["version"] = TRACESTORE_VERSION + 1
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with pytest.raises(ValueError):
            load_trace(stored.path)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(str(tmp_path / "absent"))


def _geometry(sl) -> tuple:
    return (sl.index, sl.nshards, sl.start, sl.length, sl.seed_sids,
            sl.seed_clocks, sl.skip, sl.op_hi - sl.op_lo)


class TestSplitGeometry:
    @pytest.mark.parametrize("spill_mb", [None, 0.001])
    def test_in_memory_and_spilled_columns_equal(self, tmp_path, spill_mb):
        mem, _ = record_trace(_build())
        stored, _ = record_trace(_build(), spill=str(tmp_path / "t"),
                                 spill_mb=spill_mb)
        assert mem.path is None
        assert mem.digest == stored.digest
        assert (mem.accesses, mem.nops) == (stored.accesses, stored.nops)
        store = TraceStore(stored.path)
        for name in _COLUMNS:
            col, disk = mem.columns[name], getattr(store, name)
            assert col.dtype == disk.dtype and col.shape == disk.shape
            assert col.tobytes() == disk.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_in_memory_and_spilled_slices_agree(self, tmp_path, k):
        mem, _ = record_trace(_build())
        stored, _ = record_trace(_build(), spill=str(tmp_path / "t"),
                                 spill_mb=0.001)
        ref = split_stored_trace(stored, k)
        got = split_stored_trace(mem, k)
        assert [_geometry(sl) for sl in got] == \
               [_geometry(sl) for sl in ref]
        assert sum(sl.length for sl in got) == stored.accesses
        for sl_mem, sl_disk in zip(got, ref):
            assert sl_mem.path is None and sl_disk.path == stored.path
            assert replayed_ops(sl_mem) == replayed_ops(sl_disk)

    def test_replay_reproduces_recorder_stream(self, tmp_path):
        # the triad emits scope events and affine rows only, so the
        # executor's own event stream is the recording's exact content
        class Tee(OpCollector):
            def __init__(self, recorder):
                super().__init__()
                self.recorder = recorder

            def enter_scope(self, sid):
                super().enter_scope(sid)
                self.recorder.enter_scope(sid)

            def exit_scope(self, sid):
                super().exit_scope(sid)
                self.recorder.exit_scope(sid)

            def access_rows(self, rids, stores, bases, strides, m):
                super().access_rows(rids, stores, bases, strides, m)
                self.recorder.access_rows(rids, stores, bases, strides, m)

            def access(self, rid, addr, is_store):
                raise AssertionError("the triad has no scalar accesses")

        for writer in (TraceStoreWriter(),
                       TraceStoreWriter(str(tmp_path / "t"),
                                        spill_mb=0.001)):
            tee = Tee(StreamRecorder(writer))
            BatchExecutor(stream_triad(257, 3), tee).run()
            (sl,) = split_stored_trace(tee.recorder.finish(), 1)
            assert replayed_ops(sl) == tee.ops

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("build", [_build,
                                       lambda: irregular_gather(512, 2048)],
                             ids=["sweep3d", "gather"])
    def test_in_memory_slice_pickles_only_its_window(self, build, k):
        # the gather's few large batch ops are cut mid-op by every
        # boundary: each side must ship only its own part of them
        mem, _ = record_trace(build())
        whole = sum(col.nbytes for col in mem.columns.values())
        blobs = []
        for sl in split_stored_trace(mem, k):
            blobs.append(pickle.dumps(sl))
            back = pickle.loads(blobs[-1])
            assert back == sl
            assert replayed_ops(back) == replayed_ops(sl)
            if k >= 2:
                assert len(blobs[-1]) < whole
        # the slices together ship the trace about once, not K times
        assert sum(map(len, blobs)) < whole + 4096 * k

    def test_in_memory_recording_touches_no_file(self, obs_on, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        mem, _ = record_trace(_build(), spill_mb=0.001)
        for sl in split_trace(mem, 3):
            assert sl.path is None
            replay_slice(TraceStore(sl.trace), sl, _NullHandler())
        assert os.listdir(str(tmp_path)) == []
        counters = obs_on.snapshot()["counters"]
        assert counters.get("trace.spill_bytes", 0) == 0
        assert counters.get("trace.mmap_opens", 0) == 0

    def test_split_trace_dispatches_on_stored_handles(self, tmp_path):
        stored, _ = record_trace(_build(), spill=str(tmp_path / "t"))
        slices = split_trace(stored, 3)
        assert all(sl.path == stored.path for sl in slices)


class TestRecordSpilled:
    def test_digest_named_store_deduplicates(self, tmp_path):
        first, _ = record_spilled(_build(), str(tmp_path))
        second, _ = record_spilled(_build(), str(tmp_path))
        assert first.path == second.path
        assert os.path.basename(first.path) == first.digest[:16]
        assert os.listdir(str(tmp_path)) == [first.digest[:16]]

    def test_failed_recording_leaves_no_store(self, tmp_path):
        # not a Program: the executor blows up mid-recording, and the
        # partially written temp store must be removed
        with pytest.raises(AttributeError):
            record_spilled(object(), str(tmp_path))
        assert os.listdir(str(tmp_path)) == []

    def test_system_exit_mid_recording_leaves_no_temp_dir(self, tmp_path,
                                                           monkeypatch):
        # a cancelled job's SIGTERM arrives as SystemExit while it
        # records: the spilled columns are on disk, the rename is not
        def cancelled(recorder):
            raise SystemExit(143)

        monkeypatch.setattr(StreamRecorder, "finish", cancelled)
        with pytest.raises(SystemExit):
            record_spilled(_build(), str(tmp_path), spill_mb=0.001)
        assert os.listdir(str(tmp_path)) == []


class TestObsCounters:
    def test_trace_counters_tick(self, obs_on, tmp_path):
        stored, _ = record_spilled(_build(), str(tmp_path),
                                   spill_mb=0.001)
        store = TraceStore(stored.path)
        for sl in split_stored_trace(store, 2):
            replay_slice(store, sl, _NullHandler())
        counters = obs_on.snapshot()["counters"]
        assert counters["trace.spill_bytes"] > 0
        assert counters["trace.mmap_opens"] >= 2
        assert counters["trace.read_mb"] > 0


class _NullHandler:
    def enter_scope(self, sid):
        pass

    def exit_scope(self, sid):
        pass

    def access_batch(self, rids, addrs, stores, period=0):
        pass

    def access_rows(self, rids, stores, bases, strides, m):
        pass
