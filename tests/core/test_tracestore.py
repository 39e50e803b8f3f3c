"""Unit tests for the spillable columnar trace store.

Writer spill bounds, digest stability across flush placement, the
on-disk format guards, one format in memory and on disk (columns,
digests, slice geometry, window arrays, slice pickles), dedup
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
from repro.core.shard import record_trace, split_trace
from repro.core.tracestore import (
    _COLUMNS, TRACESTORE_VERSION, StoredTrace, StreamRecorder, TraceStore,
    TraceStoreWriter, load_trace, record_spilled, split_stored_trace,
)
from tests.helpers import (
    collect_trace, same_windows, slice_windows, window_stream,
)


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
        assert len(store.column("batch_addrs")) < stats.accesses
        assert len(store.column("rows_bases")) > 0

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
    return (sl.index, sl.start, sl.length, sl.seed_sids, sl.seed_clocks,
            sl.op_hi - sl.op_lo)


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
            col, disk = mem.columns[name], store.column(name)
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
            for threshold in (1 << 17, 7):
                assert same_windows(slice_windows(sl_mem, threshold),
                                    slice_windows(sl_disk, threshold))

    def test_windows_reproduce_executor_stream(self, tmp_path):
        # affine rows (triad) and materialized batches (gather): a K = 1
        # slice's windows hold the executor's whole (rid, addr) stream
        for name, build in (("triad", lambda: stream_triad(257, 3)),
                            ("gather", lambda: irregular_gather(512, 2048))):
            want = [(rid, addr) for rid, addr, _st in collect_trace(build())]
            for spill in (None, str(tmp_path / name)):
                trace, _ = record_trace(build(), spill=spill,
                                        spill_mb=0.001 if spill else None)
                (sl,) = split_stored_trace(trace, 1)
                for threshold in (1 << 17, 100):
                    rids, addrs = window_stream(sl, threshold)
                    assert list(zip(rids, addrs)) == want

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("build", [_build,
                                       lambda: irregular_gather(512, 2048)],
                             ids=["sweep3d", "gather"])
    def test_in_memory_slice_pickles_only_its_window(self, build, k):
        # each slice ships only its own ops and their payloads (the
        # gather's two large batch ops go to one slice each)
        mem, _ = record_trace(build())
        whole = sum(col.nbytes for col in mem.columns.values())
        blobs = []
        slices = split_stored_trace(mem, k)
        for sl in slices:
            blobs.append(pickle.dumps(sl))
            back = pickle.loads(blobs[-1])
            assert back == sl
            assert same_windows(slice_windows(back), slice_windows(sl))
            if len(slices) >= 2:
                assert len(blobs[-1]) < whole
        # the slices together ship the trace about once, not K times
        assert sum(map(len, blobs)) < whole + 4096 * k

    def test_in_memory_recording_touches_no_file(self, obs_on, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        mem, _ = record_trace(_build(), spill_mb=0.001)
        for sl in split_trace(mem, 3):
            assert sl.path is None
            assert sum(w.addrs.size for w in slice_windows(sl)) == sl.length
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
            slice_windows(sl)
        counters = obs_on.snapshot()["counters"]
        assert counters["trace.spill_bytes"] > 0
        assert counters["trace.mmap_opens"] >= 2
        assert counters["trace.read_mb"] > 0
