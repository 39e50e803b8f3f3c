"""Byte-identity of sharded analysis against the sequential engines.

The acceptance bar for the time-sliced parallel path is the same as the
array engine's: ``pickle.dumps`` equality of the merged ``dump_state``
against a sequential run — pattern keys, bins within keys, cold rids,
footprints, and clock, *including dict insertion order*.  Exercised on
the paper's two headline codes plus CG (irregular index vectors), across
shard counts that place boundaries mid-scope, mid-chunk, and inside
run-compressed affine regions, and through every integration surface:
session, cache, sweep driver, and CLI.
"""

import pickle

import pytest

from repro.apps.gtc import GTCParams, build_gtc
from repro.apps.kernels import irregular_gather, stream_triad
from repro.apps.spcg import build_cg
from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.core.shard import (
    analyze_sharded, analyze_trace_sharded, record_trace,
)
from repro.lang import BatchExecutor
from repro.model import MachineConfig

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
    analyzer = ReuseAnalyzer(GRANS, engine="numpy")
    stats = BatchExecutor(build(), analyzer).run()
    trace, rec_stats = record_trace(build())
    assert vars(rec_stats) == vars(stats)
    return trace, pickle.dumps(analyzer.dump_state())


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_sharded_byte_identical(workload, k):
    trace, ref = workload
    state = analyze_trace_sharded(trace, GRANS, k)
    assert pickle.dumps(state) == ref


def _sequential_ref(build):
    analyzer = ReuseAnalyzer(GRANS, engine="numpy")
    BatchExecutor(build(), analyzer).run()
    return pickle.dumps(analyzer.dump_state())


def test_boundaries_inside_run_compressed_regions():
    # The triad is one long affine stream: with 7 shards every cut lands
    # mid-row inside regions the numpy engine run-compresses, forcing the
    # partial-row / whole-rows / partial-row split and merge.
    build = lambda: stream_triad(257, 3)
    trace, _ = record_trace(build())
    state = analyze_trace_sharded(trace, GRANS, 7)
    assert pickle.dumps(state) == _sequential_ref(build)


def test_irregular_gather_sharded():
    build = lambda: irregular_gather(512, 2048)
    state, _stats = analyze_sharded(build(), 5, granularities=GRANS)
    assert pickle.dumps(state) == _sequential_ref(build)


def test_more_shards_than_accesses():
    build = lambda: stream_triad(4, 1)
    state, stats = analyze_sharded(build(), 10 ** 4, granularities=GRANS)
    assert pickle.dumps(state) == _sequential_ref(build)
    assert state["clock"] == stats.accesses


def test_scalar_executor_recording():
    # batch=False records through the scalar Executor (per-access calls,
    # coalesced by the recorder) — same merged bytes.
    build = lambda: build_original(SweepParams(n=5, mm=3, nm=2, noct=1))
    state, _ = analyze_sharded(build(), 3, granularities=GRANS,
                               batch=False)
    assert pickle.dumps(state) == _sequential_ref(build)


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
        state = analyze_trace_sharded(stored, GRANS, k)
        assert pickle.dumps(state) == _sequential_ref(build)

    def test_spilled_boundaries_inside_affine_rows(self, tmp_path):
        # 7 shards over the triad put every cut mid-affine-row; on the
        # stored path the partial rows materialize straight off the mmap
        build = lambda: stream_triad(257, 3)
        stored, _ = record_trace(build(), spill=str(tmp_path / "t"),
                                 spill_mb=0.001)
        state = analyze_trace_sharded(stored, GRANS, 7)
        assert pickle.dumps(state) == _sequential_ref(build)

    def test_spilled_boundaries_inside_run_regions(self, tmp_path):
        # gather batches are run-compressed periodic regions; cuts land
        # mid-region and the period must drop on the partial pieces
        build = lambda: irregular_gather(512, 2048)
        stored, _ = record_trace(build(), spill=str(tmp_path / "t"),
                                 spill_mb=0.001)
        state = analyze_trace_sharded(stored, GRANS, 5)
        assert pickle.dumps(state) == _sequential_ref(build)


class TestSessionIntegration:
    def test_session_sharded_matches_sequential(self, tmp_path):
        from repro.tools.cache import AnalysisCache
        from repro.tools.session import AnalysisSession
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
        assert set(sh.manifest.phases) >= {"record", "shard_analyze",
                                           "shard_merge"}
        # merged entry is stored under the sequential key: a later
        # unsharded session of the same engine hits it
        seq2 = AnalysisSession(build(), cache=cache)
        seq2.run()
        assert seq2.from_cache
        assert pickle.dumps(seq2.analyzer.dump_state()) == ref

    def test_session_resumes_from_shard_partials(self, tmp_path):
        import os
        from repro.tools.cache import AnalysisCache
        from repro.tools.session import AnalysisSession
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

    def test_session_trace_store_matches_sequential(self, tmp_path):
        from repro.tools.cache import AnalysisCache
        from repro.tools.session import AnalysisSession
        build = BUILDERS["sweep3d"]
        ref = _sequential_ref(build)
        cache = AnalysisCache(str(tmp_path / "cache"))
        sh = AnalysisSession(build(), shards=3, cache=cache,
                             trace_store=str(tmp_path / "ts"),
                             spill_mb=0.01)
        sh.run()
        assert pickle.dumps(sh.analyzer.dump_state()) == ref
        # the store landed on disk, digest-named
        import os
        assert os.listdir(str(tmp_path / "ts"))
        # merged entry still lives under the sequential key
        seq = AnalysisSession(build(), cache=cache)
        seq.run()
        assert seq.from_cache
        assert pickle.dumps(seq.analyzer.dump_state()) == ref

    def test_trace_store_without_sharding(self, tmp_path):
        from repro.tools.session import AnalysisSession
        build = BUILDERS["sweep3d"]
        session = AnalysisSession(build(), trace_store=str(tmp_path),
                                  spill_mb=0.01)
        session.run()
        assert pickle.dumps(session.analyzer.dump_state()) == \
            _sequential_ref(build)

    def test_trace_store_rejects_simulation(self):
        from repro.tools.session import AnalysisSession
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), simulate=True,
                            trace_store="/tmp/nope")

    def test_session_rejects_sharded_simulation(self):
        from repro.tools.session import AnalysisSession
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), shards=2,
                            simulate=True)
        with pytest.raises(ValueError):
            AnalysisSession(BUILDERS["sweep3d"](), shards=0)


class TestSweepIntegration:
    def test_sharded_task_matches_plain(self, tmp_path):
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        tasks = [
            SweepTask(key="plain", builder=build_original, args=(params,),
                      cache_dir=str(tmp_path)),
            SweepTask(key="sharded", builder=build_original,
                      args=(params,), shards=3,
                      cache_dir=str(tmp_path)),
        ]
        plain, sharded = run_sweep(tasks, jobs=1)
        assert plain.error is None and sharded.error is None
        assert pickle.dumps(sharded.state) == pickle.dumps(plain.state)
        assert sharded.totals == plain.totals
        assert sharded.shards == 3 and plain.shards == 1
        assert sharded.stats.accesses == plain.stats.accesses
        # sharded units + merged write-through populated the cache:
        # the pooled re-run is pure cache hits, same bytes
        again = run_sweep(tasks, jobs=2)
        assert all(out.from_cache for out in again)
        assert pickle.dumps(again[1].state) == pickle.dumps(plain.state)

    def test_trace_dir_task_matches_plain(self, tmp_path):
        import os
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        tasks = [
            SweepTask(key="plain", builder=build_original, args=(params,),
                      cache_dir=str(tmp_path / "cache")),
            SweepTask(key="spilled", builder=build_original,
                      args=(params,), shards=3,
                      cache_dir=str(tmp_path / "cache"),
                      trace_dir=str(tmp_path / "ts"), spill_mb=0.01),
        ]
        plain, spilled = run_sweep(tasks, jobs=1)
        assert plain.error is None and spilled.error is None
        assert pickle.dumps(spilled.state) == pickle.dumps(plain.state)
        assert spilled.stats.accesses == plain.stats.accesses
        # the parent recorded once: exactly one digest-named store
        assert len(os.listdir(str(tmp_path / "ts"))) == 1
        # shard partials were cached under the trace digest: a pooled
        # re-run is pure cache hits, same bytes
        again = run_sweep(tasks, jobs=2)
        assert all(out.from_cache for out in again)
        assert pickle.dumps(again[1].state) == pickle.dumps(plain.state)

    def test_pool_expansion_without_cache(self):
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=6, mm=4, nm=2, noct=1)
        ref = _sequential_ref(lambda: build_original(params))
        (out,) = run_sweep([SweepTask(key="s", builder=build_original,
                                      args=(params,), shards=4)], jobs=2)
        assert out.error is None
        assert pickle.dumps(out.state) == ref

    def test_measure_mode_ignores_shards(self, caplog):
        from repro.apps.sweep3d import build_variant
        from repro.tools.sweep import SweepTask, run_sweep
        params = SweepParams(n=5, mm=3, nm=2, noct=1)
        task = SweepTask(key="orig", builder=build_variant,
                         args=("original", params), mode="measure",
                         shards=2, measure_kwargs={"name": "orig"})
        with caplog.at_level("WARNING", logger="repro.tools.sweep"):
            (out,) = run_sweep([task], jobs=1)
        assert out.error is None
        assert out.shards == 1
        assert "ignored in measure mode" in caplog.text

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
        import tempfile
        from repro.cli import main
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["analyze", "fig1", "--shards", "3",
                     "--spill-mb", "1", "--no-cache"]) == 0
        out = capsys.readouterr()
        assert "3 time shards from a spilled trace" in out.err
        assert "predicted misses" in out.out

    def test_sharded_manifest_renders(self, obs_on, tmp_path):
        from repro.obs.manifest import RunManifest
        from repro.tools.session import AnalysisSession
        session = AnalysisSession(BUILDERS["sweep3d"](), shards=2)
        session.run()
        path = session.manifest.save(str(tmp_path / "m.json"))
        text = RunManifest.load(path).render()
        assert "sharded: 2 time shards" in text
        assert "boundary accesses resolved at merge" in text
        assert "shard.boundary_unresolved" in text
