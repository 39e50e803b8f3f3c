"""Byte-identity of sharded analysis against the sequential engines.

The acceptance bar for the time-sliced parallel path is the same as the
array engine's: ``pickle.dumps`` equality of the merged ``dump_state``
against a sequential run — pattern keys, bins within keys, cold rids,
footprints, and clock, *including dict insertion order*.  Exercised on
the paper's two headline codes plus CG (irregular index vectors), every
registry workload and generated kernels (against the scalar fenwick
reference), on both feeds — segment-table slices, and recorded traces
in memory or spilled, both cut by one rule at segment or op boundaries
— across shard counts that place boundaries mid-scope and between
run-compressed affine regions, and through every integration surface:
session, cache, sweep driver, and CLI.
"""

import hashlib

import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings

from repro.apps.gtc import GTCParams, build_gtc
from repro.apps.kernels import irregular_gather, stream_triad
from repro.apps.registry import build_workload, workload_names
from repro.apps.spcg import build_cg
from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.core.shard import (
    merge_shard_results, record_trace, run_shards, split_trace,
)
from repro.lang import BatchExecutor, Executor
from repro.model import MachineConfig
from repro.static import segments
from repro.static.itermodel import StaticUnsupported
from repro.static.segments import build_segments
from repro.tools.cache import SCHEMA_VERSION, AnalysisCache
from repro.tools.session import AnalysisSession
from tests.helpers import SMALLER, kernels

CFG = MachineConfig.scaled_itanium2()
GRANS = CFG.granularities()

BUILDERS = {
    "sweep3d": lambda: build_original(SweepParams(n=6, mm=4, nm=2,
                                                  noct=1)),
    "gtc": lambda: build_gtc(None, GTCParams(mpsi=4, mtheta=6, micell=2,
                                             mzeta=2, timesteps=1)),
    "cg": lambda: build_cg(grid=10, iterations=2),
}


@pytest.fixture(scope="module", params=sorted(BUILDERS),
                ids=sorted(BUILDERS))
def workload(request):
    """(recorded trace, pickled sequential reference state) per app."""
    build = BUILDERS[request.param]
    analyzer = ReuseAnalyzer(GRANS)
    stats = BatchExecutor(build(), analyzer).run()
    trace, rec_stats = record_trace(build())
    assert vars(rec_stats) == vars(stats)
    return trace, pickle.dumps(analyzer.dump_state())


def _shard_trace(trace, k: int, jobs=None) -> dict:
    """Split -> analyze -> merge one recorded trace into a state dict."""
    results = run_shards(split_trace(trace, k), GRANS, jobs=jobs)
    return merge_shard_results(results, GRANS, trace.accesses)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_sharded_byte_identical(workload, k):
    trace, ref = workload
    state = _shard_trace(trace, k)
    assert pickle.dumps(state) == ref


def _sequential_ref(build):
    """The fenwick reference: per-access engine, ``BatchExecutor`` walk."""
    analyzer = ReuseAnalyzer(GRANS)
    BatchExecutor(build(), analyzer).run()
    return pickle.dumps(analyzer.dump_state())


def test_cuts_between_run_compressed_ops():
    # The triad is three long affine rows ops, each a region the numpy
    # engine run-compresses: 7 shards collapse onto the three op
    # boundaries, so each shard compresses one whole region.
    build = lambda: stream_triad(257, 3)
    trace, _ = record_trace(build())
    slices = split_trace(trace, 7)
    assert [sl.length for sl in slices] == [771] * 3
    state = _shard_trace(trace, 7)
    assert pickle.dumps(state) == _sequential_ref(build)


def test_irregular_gather_sharded(monkeypatch):
    # over the point budget, the session records the gather and cuts
    # the recording
    monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 10)
    build = lambda: irregular_gather(512, 2048)
    session = AnalysisSession(build(), shards=5).run()
    assert session.executor_ran == "batch"
    assert pickle.dumps(session.analyzer.dump_state()) == \
        _sequential_ref(build)


def test_more_shards_than_accesses(monkeypatch):
    # the triad's one nest occurrence is over a budget of zero
    monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 0)
    build = lambda: stream_triad(4, 1)
    session = AnalysisSession(build(), shards=10 ** 4).run()
    assert session.executor_ran == "batch"
    state = session.analyzer.dump_state()
    assert pickle.dumps(state) == _sequential_ref(build)
    assert state["clock"] == session.stats.accesses


def test_scalar_executor_recording():
    # batch=False records through the scalar Executor (per-access calls,
    # coalesced by the recorder) — same merged bytes.
    build = lambda: build_original(SweepParams(n=5, mm=3, nm=2, noct=1))
    session = AnalysisSession(build(), shards=3, batch=False).run()
    assert session.executor_ran == "scalar"
    assert pickle.dumps(session.analyzer.dump_state()) == \
        _sequential_ref(build)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(prog=kernels())
def test_generated_kernels_sharded(prog):
    """Sharded sessions on generated kernels: every K, in memory
    and spilled, matches the scalar fenwick reference on the feed the
    program gets (table slices when the enumeration accepts it, a
    recording when it rejects it); the merged state and the partials
    round-trip through the cache."""
    scalar = ReuseAnalyzer(GRANS, engine="fenwick")
    Executor(prog, scalar).run()
    ref = pickle.dumps(scalar.dump_state())
    try:
        table = build_segments(prog)
    except StaticUnsupported:
        table = None
    feed = "batch" if table is None else "enumerated"
    with tempfile.TemporaryDirectory() as tmp:
        for k in (1, 2, 3, 5, 7):
            for store in (None, os.path.join(tmp, "traces")):
                session = AnalysisSession(
                    prog, shards=k, trace_store=store,
                    spill_mb=0.001 if store else None).run()
                assert session.fallback is None
                assert session.executor_ran == feed
                # only a recording writes a store
                assert (session.trace_path is not None) == \
                    (store is not None and table is None)
                assert pickle.dumps(session.analyzer.dump_state()) == ref
        cache = AnalysisCache(os.path.join(tmp, "cache"))
        first = AnalysisSession(prog, shards=3, cache=cache).run()
        assert pickle.dumps(first.analyzer.dump_state()) == ref
        again = AnalysisSession(prog, shards=3, cache=cache).run()
        assert again.from_cache
        assert pickle.dumps(again.analyzer.dump_state()) == ref
        # without the merged entry, a third run resumes from partials:
        # one per slice the first run cut
        os.unlink(cache._path(cache.key_for(prog, {}, first.config, "sa",
                                            first.engine)))
        cut = len(split_trace(record_trace(prog)[0], 3) if table is None
                  else table.slices(3))
        hits = cache.hits
        third = AnalysisSession(prog, shards=3, cache=cache).run()
        assert not third.from_cache
        assert cache.hits == hits + cut
        assert pickle.dumps(third.analyzer.dump_state()) == ref


@pytest.mark.parametrize("name", workload_names())
def test_registry_workload_table_fed(name, tmp_path, monkeypatch):
    """Every registry workload cuts its segment table: each K equals the
    sequential state, in memory and with a trace store set, and a store
    set for a table-fed run stays empty.  Over the point budget the same
    sessions record instead, and the recorded feed matches too."""
    prog = build_workload(name, **SMALLER[name])
    ref = pickle.dumps(AnalysisSession(prog).run().analyzer.dump_state())
    store = str(tmp_path / "ts")
    for k in (1, 2, 3, 5, 7):
        for trace_store in (None, store):
            session = AnalysisSession(prog, shards=k,
                                      trace_store=trace_store).run()
            assert session.executor_ran == "enumerated"
            assert session.fallback is None and session.trace_path is None
            assert pickle.dumps(session.analyzer.dump_state()) == ref
    assert not os.path.exists(store)
    # over a budget of zero, every session records
    monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 0)
    for k in (1, 2, 3, 5, 7):
        for trace_store in (None, store):
            session = AnalysisSession(
                prog, shards=k, trace_store=trace_store,
                spill_mb=0.001 if trace_store else None).run()
            assert session.executor_ran == "batch"
            assert session.fallback is None
            assert (session.trace_path is None) == (trace_store is None)
            assert pickle.dumps(session.analyzer.dump_state()) == ref


def test_table_fed_pool_matches_sequential():
    # table slices pickle to a 2-process pool (each ships its own part,
    # see tests/core/test_shard.py::TestTableSlices)
    build = BUILDERS["sweep3d"]
    session = AnalysisSession(build(), shards=4, shard_jobs=2).run()
    assert session.executor_ran == "enumerated"
    assert pickle.dumps(session.analyzer.dump_state()) == \
        _sequential_ref(build)


class TestSpilledEquivalence:
    """The stored-trace path meets the same byte-identity bar.

    Traces are force-spilled with a 1 KB buffer so every workload is
    written across many flushes and analyzed off the mmap, never from
    the recorder's memory.
    """

    @pytest.mark.parametrize("app", sorted(BUILDERS))
    @pytest.mark.parametrize("k", [2, 5])
    def test_forced_spill_byte_identical(self, app, k, tmp_path):
        build = BUILDERS[app]
        stored, _ = record_trace(build(), spill=str(tmp_path / "t"),
                                 spill_mb=0.001)
        state = _shard_trace(stored, k)
        assert pickle.dumps(state) == _sequential_ref(build)

    def test_spilled_cuts_between_affine_row_ops(self, tmp_path):
        # 7 shards over the triad collapse onto its three rows ops; on
        # the stored path each shard broadcasts its rows off the mmap
        build = lambda: stream_triad(257, 3)
        stored, _ = record_trace(build(), spill=str(tmp_path / "t"),
                                 spill_mb=0.001)
        assert len(split_trace(stored, 7)) == 3
        state = _shard_trace(stored, 7)
        assert pickle.dumps(state) == _sequential_ref(build)

    def test_spilled_cuts_between_run_region_ops(self, tmp_path):
        # gather batches are run-compressed periodic regions; the cuts
        # fall between them, so each shard keeps its batch's period
        build = lambda: irregular_gather(512, 2048)
        stored, _ = record_trace(build(), spill=str(tmp_path / "t"),
                                 spill_mb=0.001)
        slices = split_trace(stored, 5)
        assert [sl.length for sl in slices] == [6144, 6144]
        for sl in slices:
            for win in (w() for _n, w in sl.windows(1 << 17)):
                assert win.seg_per.tolist() == [3]
        state = _shard_trace(stored, 5)
        assert pickle.dumps(state) == _sequential_ref(build)


class TestSessionIntegration:
    def test_session_sharded_matches_sequential(self, tmp_path):
        build = BUILDERS["sweep3d"]
        seq = AnalysisSession(build(), engine="numpy")
        seq.run()
        ref = pickle.dumps(seq.analyzer.dump_state())

        cache = AnalysisCache(str(tmp_path))
        sh = AnalysisSession(build(), shards=3, cache=cache)
        sh.run()
        assert pickle.dumps(sh.analyzer.dump_state()) == ref
        assert sh.totals() == seq.totals()
        assert sh.manifest.shards == 3
        assert sh.manifest.executor_ran == "enumerated"
        assert set(sh.manifest.phases) >= {"enumerate", "shard_analyze",
                                           "shard_merge"}
        # merged entry is stored under the sequential key: a later
        # unsharded session of the same engine hits it
        seq2 = AnalysisSession(build(), cache=cache)
        seq2.run()
        assert seq2.from_cache
        assert pickle.dumps(seq2.analyzer.dump_state()) == ref

    def test_session_resumes_from_shard_partials(self, tmp_path):
        build = BUILDERS["sweep3d"]
        cache = AnalysisCache(str(tmp_path))
        first = AnalysisSession(build(), shards=3, cache=cache)
        first.run()
        ref = pickle.dumps(first.analyzer.dump_state())
        # drop the merged entry; the three shard partials remain
        merged_key = cache.key_for(first.program, {}, first.config,
                                   "sa", first.engine)
        os.unlink(cache._path(merged_key))
        hits_before = cache.hits
        again = AnalysisSession(build(), shards=3, cache=cache)
        again.run()
        assert not again.from_cache
        assert cache.hits == hits_before + 3
        assert pickle.dumps(again.analyzer.dump_state()) == ref

    def test_partials_of_other_cuts_never_mix(self, tmp_path):
        # CG's table cuts 28 slices at K = 28 and at K = 29, at
        # different boundaries; with one K = 28 partial evicted, a K = 29
        # run keyed by the slice count would merge 27 of K = 28's
        # partials with one of its own, overlapping shards
        prog = build_workload("cg", **SMALLER["cg"])
        table = build_segments(prog)
        at28, at29 = table.slices(28), table.slices(29)
        assert len(at28) == len(at29)
        assert [sl.start for sl in at28] != [sl.start for sl in at29]
        ref = pickle.dumps(AnalysisSession(prog).run().analyzer.dump_state())
        cache = AnalysisCache(str(tmp_path))
        first = AnalysisSession(prog, shards=28, shard_jobs=1,
                                cache=cache).run()
        os.unlink(cache._path(cache.key_for(prog, {}, first.config, "sa",
                                            first.engine)))
        os.unlink(cache._path(cache.trace_shard_key_for(
            table.digest, first.config, 28, 3)))
        hits = cache.hits
        other = AnalysisSession(prog, shards=29, shard_jobs=1,
                                cache=cache).run()
        assert cache.hits == hits
        assert pickle.dumps(other.analyzer.dump_state()) == ref

    def test_partials_of_the_mid_op_rule_are_never_merged(self, tmp_path,
                                                           monkeypatch):
        # Recorded traces were once cut at exact access counts, even
        # inside an op, under keys of the digest, K and the index alone.
        # Partials stored under those keys describe other cuts: a run
        # must neither hit them nor change its bytes.
        monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 10)
        prog = BUILDERS["sweep3d"]()
        ref = _sequential_ref(BUILDERS["sweep3d"])
        cache = AnalysisCache(str(tmp_path))
        config = AnalysisSession(prog).config
        trace, _ = record_trace(prog)
        results = run_shards(split_trace(trace, 3), GRANS)
        for res in results:
            res.grans[0]["raw"][(0, -1, -1)] = {0: 10 ** 6}
            res.grans[0]["key_first"][(0, -1, -1)] = res.start + 1
            res.grans[0]["bin_first"][((0, -1, -1), 0)] = res.start + 1
        for index in range(3):
            old_key = hashlib.sha256(repr((
                SCHEMA_VERSION, f"trace-shard-3-{index}", trace.digest,
                repr(config))).encode()).hexdigest()
            cache.put(old_key, results[min(index, len(results) - 1)])
        assert not os.path.exists(cache._path(cache.key_for(
            prog, {}, config, "sa", "numpy")))
        hits = cache.hits
        session = AnalysisSession(prog, shards=3, shard_jobs=1,
                                  cache=cache).run()
        assert session.executor_ran == "batch" and not session.from_cache
        assert cache.hits == hits
        assert pickle.dumps(session.analyzer.dump_state()) == ref

    def test_session_trace_store_matches_sequential(self, tmp_path,
                                                    monkeypatch):
        build = BUILDERS["sweep3d"]
        ref = _sequential_ref(build)
        # a program the enumeration accepts cuts its table: no store
        sh = AnalysisSession(build(), shards=3,
                             trace_store=str(tmp_path / "none"),
                             spill_mb=0.01).run()
        assert sh.executor_ran == "enumerated" and sh.trace_path is None
        assert pickle.dumps(sh.analyzer.dump_state()) == ref
        assert not os.path.exists(str(tmp_path / "none"))
        # over the point budget, the run records and spills
        monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 10)
        cache = AnalysisCache(str(tmp_path / "cache"))
        sh = AnalysisSession(build(), shards=3, cache=cache,
                             trace_store=str(tmp_path / "ts"),
                             spill_mb=0.01)
        sh.run()
        assert sh.executor_ran == "batch"
        assert pickle.dumps(sh.analyzer.dump_state()) == ref
        # the store landed on disk, digest-named
        (name,) = os.listdir(str(tmp_path / "ts"))
        assert sh.trace_path == str(tmp_path / "ts" / name)
        # merged entry still lives under the sequential key
        seq = AnalysisSession(build(), cache=cache)
        seq.run()
        assert seq.from_cache
        assert pickle.dumps(seq.analyzer.dump_state()) == ref

    def test_trace_store_without_sharding(self, tmp_path, monkeypatch):
        build = BUILDERS["sweep3d"]
        session = AnalysisSession(build(), trace_store=str(tmp_path),
                                  spill_mb=0.01)
        session.run()
        assert pickle.dumps(session.analyzer.dump_state()) == \
            _sequential_ref(build)
        # a K=1 recording is fed whole off its store: one cache entry,
        # the state, and no shard partial
        monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 10)
        cache = AnalysisCache(str(tmp_path / "cache"))
        session = AnalysisSession(build(), trace_store=str(tmp_path / "ts"),
                                  spill_mb=0.01, cache=cache).run()
        assert session.executor_ran == "batch"
        assert os.path.isdir(session.trace_path)
        assert pickle.dumps(session.analyzer.dump_state()) == \
            _sequential_ref(build)
        entries = [name for _root, _dirs, files
                   in os.walk(str(tmp_path / "cache"))
                   for name in files if name.endswith(".pkl")]
        assert entries == [os.path.basename(cache._path(cache.key_for(
            session.program, {}, session.config, "sa", "numpy")))]

    def test_trace_store_rejects_simulation(self):
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), simulate=True,
                            trace_store="/tmp/nope")

    def test_spill_mb_needs_a_trace_store(self):
        with pytest.raises(ValueError, match="needs trace_store"):
            AnalysisSession(BUILDERS["sweep3d"](), shards=2, spill_mb=1.0)

    def test_session_rejects_sharded_simulation(self):
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), shards=2,
                            simulate=True)
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), shards=0)


class TestSweepIntegration:
    """A sharded sweep task is one sharded session in its worker."""

    def test_sharded_task_matches_plain(self, tmp_path):
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        for jobs in (1, 2):
            cache = str(tmp_path / f"jobs{jobs}")
            tasks = [
                SweepTask(key="plain", builder=build_original,
                          args=(params,)),
                SweepTask(key="sharded", builder=build_original,
                          args=(params,), shards=3, cache_dir=cache),
            ]
            plain, sharded = run_sweep(tasks, jobs=jobs)
            assert plain.error is None and sharded.error is None
            assert not sharded.from_cache
            assert pickle.dumps(sharded.state) == pickle.dumps(plain.state)
            assert sharded.totals == plain.totals
            assert sharded.shards == 3 and plain.shards == 1
            assert sharded.stats.accesses == plain.stats.accesses
            # the merged state went to the plain key: an unsharded task
            # on the same cache is a hit, and so is a sharded re-run
            again = run_sweep([
                SweepTask(key="cached", builder=build_original,
                          args=(params,), cache_dir=cache), tasks[1]],
                jobs=jobs)
            assert all(out.from_cache for out in again)
            assert all(pickle.dumps(out.state) == pickle.dumps(plain.state)
                       for out in again)

    def test_trace_dir_task_matches_plain(self, tmp_path, monkeypatch):
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        # a table-fed task writes no store
        (table_fed,) = run_sweep([SweepTask(
            key="table", builder=build_original, args=(params,), shards=3,
            trace_dir=str(tmp_path / "none"), spill_mb=0.01)], jobs=1)
        assert table_fed.error is None
        assert not os.path.exists(str(tmp_path / "none"))
        # over the point budget, the task records into the store
        monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 10)
        cache = str(tmp_path / "cache")
        spilled = SweepTask(key="spilled", builder=build_original,
                            args=(params,), shards=3, cache_dir=cache,
                            trace_dir=str(tmp_path / "ts"), spill_mb=0.01)
        plain = SweepTask(key="plain", builder=build_original,
                          args=(params,), cache_dir=cache)
        first, hit = run_sweep([spilled, plain], jobs=1)
        assert first.error is None and hit.error is None
        assert not first.from_cache and hit.from_cache
        assert pickle.dumps(first.state) == pickle.dumps(hit.state)
        assert pickle.dumps(first.state) == _sequential_ref(
            lambda: build_original(params))
        assert pickle.dumps(table_fed.state) == pickle.dumps(first.state)
        assert first.stats.accesses == hit.stats.accesses
        # the task recorded once: exactly one digest-named store
        assert len(os.listdir(str(tmp_path / "ts"))) == 1
        # a task the cache serves records no store
        served = SweepTask(key="served", builder=build_original,
                           args=(params,), shards=3, cache_dir=cache,
                           trace_dir=str(tmp_path / "ts2"), spill_mb=0.01)
        again = run_sweep([spilled, served], jobs=2)
        assert all(out.from_cache for out in again)
        assert pickle.dumps(again[1].state) == pickle.dumps(first.state)
        assert not os.path.exists(str(tmp_path / "ts2"))
        assert len(os.listdir(str(tmp_path / "ts"))) == 1

    def test_pool_expansion_without_cache(self):
        # sharded tasks spread across the pool, one task per worker
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        ref = _sequential_ref(lambda: build_original(params))
        outs = run_sweep([SweepTask(key=k, builder=build_original,
                                    args=(params,), shards=k)
                          for k in (2, 4)], jobs=2)
        assert [out.error for out in outs] == [None, None]
        assert [pickle.dumps(out.state) for out in outs] == [ref, ref]

    def test_measure_mode_rejects_shard_options(self, tmp_path):
        from repro.apps.sweep3d import build_variant
        from repro.cli import main
        from repro.tools.sweep import SweepTask
        params = SweepParams(n=5, mm=3, nm=2, noct=1)
        for opts in ({"shards": 2}, {"trace_dir": str(tmp_path)},
                     {"spill_mb": 1.0}):
            with pytest.raises(ValueError, match="mode='analyze'"):
                SweepTask(key="orig", builder=build_variant,
                          args=("original", params), mode="measure",
                          measure_kwargs={"name": "orig"}, **opts)
        # the AnalysisSession guards, at task construction
        for opts, match in (
                ({"engine": "static", "shards": 2}, "engine='static'"),
                ({"engine": "static", "trace_dir": str(tmp_path)},
                 "engine='static'"),
                ({"spill_mb": 1.0}, "needs trace_dir")):
            with pytest.raises(ValueError, match=match):
                SweepTask(key="orig", builder=build_original,
                          args=(params,), **opts)
        for argv in (["measure", "sweep3d", "--shards", "2"],
                     ["measure", "sweep3d", "--trace-dir", str(tmp_path)],
                     ["measure", "sweep3d", "--spill-mb", "1"],
                     ["sweep", "sweep3d", "--mesh", "4", "--engine",
                      "static", "--shards", "2"],
                     ["sweep", "sweep3d", "--mesh", "4", "--engine",
                      "static", "--trace-dir", str(tmp_path)],
                     ["sweep", "sweep3d", "--mesh", "4", "--spill-mb",
                      "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_manifest_rows_carry_engine_and_shards(self):
        from repro.tools.sweep import (
            SweepTask, build_sweep_manifest, run_sweep,
        )
        params = SweepParams(n=5, mm=3, nm=2, noct=1)
        outs = run_sweep([SweepTask(key="s", builder=build_original,
                                    args=(params,), shards=2,
                                    engine="numpy")])
        manifest = build_sweep_manifest(outs)
        (row,) = manifest["task_summaries"]
        assert row["engine"] == "numpy"
        assert row["shards"] == 2

    def test_failing_builder_in_sharded_task(self):
        from repro.tools.sweep import SweepTask, run_sweep
        (out,) = run_sweep([SweepTask(key="boom", builder=_exploding,
                                      shards=3)], jobs=1)
        assert out.failed
        assert "RuntimeError" in out.error


def _exploding():
    raise RuntimeError("builder exploded")


class TestCLIIntegration:
    def test_analyze_with_shards(self, capsys):
        from repro.cli import main
        assert main(["analyze", "fig1", "--shards", "3",
                     "--no-cache"]) == 0
        out = capsys.readouterr()
        assert "3 time shards" in out.err
        assert "predicted misses" in out.out

    def test_analyze_with_spill(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["analyze", "fig1", "--shards", "3",
                     "--spill-mb", "1", "--no-cache"]) == 0
        out = capsys.readouterr()
        assert "3 time shards" in out.err
        assert "predicted misses" in out.out
        # fig1 is cut from its segment table: nothing was recorded
        assert "trace store" not in out.err
        # over the point budget the run records into the throwaway store
        monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 10)
        assert main(["analyze", "fig1", "--shards", "3",
                     "--spill-mb", "1", "--no-cache"]) == 0
        out = capsys.readouterr()
        assert "recorded into trace store" in out.err
        assert "predicted misses" in out.out
        # the throwaway store directory is gone when the command ends
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.startswith("repro-trace-")]

    def test_sharded_manifest_renders(self, obs_on, tmp_path):
        from repro.obs.manifest import RunManifest
        session = AnalysisSession(BUILDERS["sweep3d"](), shards=2)
        session.run()
        path = session.manifest.save(str(tmp_path / "m.json"))
        text = RunManifest.load(path).render()
        assert "sharded: 2 time shards" in text
        assert "boundary accesses resolved at merge" in text
        assert "shard.boundary_unresolved" in text
