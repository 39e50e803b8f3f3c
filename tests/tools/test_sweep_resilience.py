"""Fault-injection suite: the execution layer under crashes and stalls.

Every scenario here asserts two things: the run *survives* the injected
fault, and the results are *byte-identical* to an undisturbed run — the
resilience layer steers scheduling only, never answers.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.apps.sweep3d import SweepParams, build_original
from repro.obs import trace
from repro.testing import faults
from repro.testing.faults import FaultSpec
from repro.tools import AnalysisCache, AnalysisSession, SweepTask, run_sweep
from repro.tools.resilience import RetryPolicy, SweepCheckpoint
from repro.tools.sweep import build_sweep_manifest, render_sweep_manifest


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


#: Fast policy for tests: retries are immediate, no deadline.
FAST = RetryPolicy(retries=2, base_delay=0.01, jitter=0.0)


def _analyze_tasks(meshes=(4, 5)):
    return [SweepTask(key=n, builder=build_original,
                      args=(SweepParams(n=n, mm=3, nm=2, noct=1),),
                      mode="analyze")
            for n in meshes]


def _states(outcomes):
    return [pickle.dumps(out.state) for out in outcomes]


class TestTransientRetry:
    def test_transient_raise_retried_to_success(self, obs_on):
        clean = run_sweep(_analyze_tasks((4,)))
        faults.install(FaultSpec(point="sweep.unit", action="raise",
                                 exc="OSError", message="torn read",
                                 match=(("key", 4),), times=1))
        outcomes = run_sweep(_analyze_tasks((4,)), retry=FAST)
        assert not outcomes[0].failed
        assert outcomes[0].retries == 1
        assert _states(outcomes) == _states(clean)
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.retries"] == 1
        assert snap["counters"]["sweep.worker_failures"] == 1

    def test_budget_exhaustion_reports_transient_failure(self):
        faults.install(FaultSpec(point="sweep.unit", action="raise",
                                 exc="OSError", match=(("key", 4),),
                                 times=0))
        out = run_sweep(_analyze_tasks((4,)),
                        retry=RetryPolicy(retries=1, base_delay=0.01,
                                          jitter=0.0))[0]
        assert out.failed
        assert out.error_kind == "transient"
        assert out.retries == 1

    def test_fatal_failure_not_retried(self):
        faults.install(FaultSpec(point="sweep.unit", action="raise",
                                 exc="ValueError", match=(("key", 4),),
                                 times=0))
        out = run_sweep(_analyze_tasks((4,)), retry=FAST)[0]
        assert out.failed
        assert out.error_kind == "fatal"
        assert out.retries == 0  # never retried


class TestDeadlineRetry:
    def test_stalled_unit_times_out_then_succeeds(self, obs_on):
        clean = run_sweep(_analyze_tasks((4,)))
        faults.install(FaultSpec(point="sweep.unit", action="stall",
                                 delay=5.0, match=(("key", 4),), times=1))
        policy = RetryPolicy(retries=2, base_delay=0.01, jitter=0.0,
                             timeout=0.3)
        outcomes = run_sweep(_analyze_tasks((4,)), retry=policy)
        assert not outcomes[0].failed
        assert outcomes[0].retries == 1
        assert _states(outcomes) == _states(clean)
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.timeouts"] == 1
        assert snap["counters"]["resil.retries"] == 1

    def test_deadline_failure_is_transient_kind(self):
        faults.install(FaultSpec(point="sweep.unit", action="stall",
                                 delay=5.0, match=(("key", 4),), times=0))
        out = run_sweep(_analyze_tasks((4,)),
                        retry=RetryPolicy(retries=0, timeout=0.2))[0]
        assert out.failed
        assert out.error_kind == "transient"
        assert "DeadlineExceeded" in out.error


class TestPoolCrashRecovery:
    def test_worker_crash_rebuilds_pool_and_completes(self, obs_on,
                                                      tmp_path):
        clean = run_sweep(_analyze_tasks((4, 5, 6)))
        # the marker directory makes the crash fire exactly once across
        # the original worker AND the rebuilt pool's workers
        faults.install(FaultSpec(point="sweep.unit", action="crash",
                                 match=(("key", 5),), times=1,
                                 marker=str(tmp_path / "m")))
        outcomes = run_sweep(_analyze_tasks((4, 5, 6)), jobs=2,
                             retry=FAST)
        assert [out.failed for out in outcomes] == [False, False, False]
        assert _states(outcomes) == _states(clean)
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.pool_rebuilds"] >= 1
        assert snap["counters"]["resil.retries"] >= 1

    def test_repeat_crasher_reported_as_poison(self, tmp_path):
        # every worker attempt crashes: both units exhaust their retry
        # budget through pool rebuilds and surface as poison, not a hang
        faults.install(FaultSpec(point="sweep.unit", action="crash",
                                 match=(("unit", "task"),), times=0,
                                 marker=str(tmp_path / "m")))
        outcomes = run_sweep(_analyze_tasks((4, 5)), jobs=2,
                             retry=RetryPolicy(retries=1, base_delay=0.01,
                                               jitter=0.0))
        for bad in outcomes:
            assert bad.failed
            assert bad.error_kind == "poison"
            assert "BrokenProcessPool" in bad.error
            assert bad.retries == 1  # budget spent before giving up


def _crashing_sweep_child(checkpoint: str, marker: str) -> None:
    """Child body: a sweep that dies mid-run (killed on its 2nd unit)."""
    faults.install(FaultSpec(point="sweep.unit", action="crash",
                             match=(("key", 5),), marker=marker))
    run_sweep(_analyze_tasks((4, 5)), jobs=1, checkpoint=checkpoint)


class TestCheckpointResume:
    def test_completed_units_restored_not_recomputed(self, obs_on,
                                                     tmp_path):
        ckpt_path = str(tmp_path / "ck.jsonl")
        first = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        assert len(SweepCheckpoint(ckpt_path).load()) == 2
        second = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        assert _states(second) == _states(first)
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.checkpoint_restored"] == 2

    def test_recipe_edit_invalidates_stale_units(self, tmp_path):
        ckpt_path = str(tmp_path / "ck.jsonl")
        run_sweep(_analyze_tasks((4,)), checkpoint=ckpt_path)
        outcomes = run_sweep(_analyze_tasks((5,)), checkpoint=ckpt_path)
        assert not outcomes[0].failed
        assert not outcomes[0].from_cache
        assert len(SweepCheckpoint(ckpt_path).load()) == 2

    def test_killed_sweep_resumes_byte_identical(self, tmp_path):
        """The acceptance scenario: kill mid-run, resume, same bytes."""
        ckpt_path = str(tmp_path / "ck.jsonl")
        marker = str(tmp_path / "m")
        child = multiprocessing.Process(
            target=_crashing_sweep_child, args=(ckpt_path, marker))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 70  # died on the injected crash
        journal = SweepCheckpoint(ckpt_path).load()
        assert len(journal) == 1  # unit 4 completed, unit 5 never did
        clean = run_sweep(_analyze_tasks((4, 5)))
        resumed = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        assert [out.failed for out in resumed] == [False, False]
        assert _states(resumed) == _states(clean)
        assert [out.totals for out in resumed] == [
            out.totals for out in clean]
        assert len(SweepCheckpoint(ckpt_path).load()) == 2

    @pytest.mark.slow
    def test_killed_parallel_sharded_sweep_resumes(self, tmp_path):
        """Nightly chaos leg: crash a sharded parallel sweep, resume."""
        tasks = [SweepTask(key=n, builder=build_original,
                           args=(SweepParams(n=n, mm=3, nm=2, noct=1),),
                           mode="analyze", shards=2)
                 for n in (4, 5, 6)]
        ckpt_path = str(tmp_path / "ck.jsonl")
        clean = run_sweep(tasks)
        faults.install(FaultSpec(point="sweep.unit", action="crash",
                                 match=(("key", 5), ("index", 1)),
                                 times=1, marker=str(tmp_path / "m")))
        crashed = run_sweep(tasks, jobs=2, retry=FAST,
                            checkpoint=ckpt_path)
        assert [out.failed for out in crashed] == [False] * 3
        assert _states(crashed) == _states(clean)
        faults.clear()
        resumed = run_sweep(tasks, checkpoint=ckpt_path)
        assert _states(resumed) == _states(clean)


class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_once_and_recomputed(self, obs_on,
                                                           tmp_path):
        params = SweepParams(n=4, mm=3, nm=2, noct=1)
        first = AnalysisSession(build_original(params),
                                cache=AnalysisCache(str(tmp_path)))
        first.run()
        baseline = pickle.dumps(first.analyzer.dump_state())
        # scribble over the entry at its next read, exactly once
        faults.install(FaultSpec(point="cache.get", action="corrupt",
                                 times=1))
        cache = AnalysisCache(str(tmp_path))
        second = AnalysisSession(build_original(params), cache=cache)
        second.run()
        assert not second.from_cache  # damaged entry degraded to a miss
        assert pickle.dumps(second.analyzer.dump_state()) == baseline
        assert cache.quarantined == 1
        qdir = os.path.join(str(tmp_path), AnalysisCache.QUARANTINE_DIR)
        assert len(os.listdir(qdir)) == 1
        assert obs_on.snapshot()["counters"]["cache.quarantined"] == 1
        # the recompute's put repaired the slot: third run is a hit
        third = AnalysisSession(build_original(params),
                                cache=AnalysisCache(str(tmp_path)))
        third.run()
        assert third.from_cache
        assert pickle.dumps(third.analyzer.dump_state()) == baseline


class TestEngineFallback:
    def test_numpy_failure_falls_back_to_fenwick(self, obs_on):
        params = SweepParams(n=4, mm=3, nm=2, noct=1)
        clean = AnalysisSession(build_original(params), engine="fenwick")
        clean.run()
        faults.install(FaultSpec(point="session.run", action="raise",
                                 exc="RuntimeError",
                                 message="engine blew up", times=1))
        degraded = AnalysisSession(build_original(params), engine="numpy")
        degraded.run()
        assert degraded.fallback == {
            "from": "numpy", "to": "fenwick",
            "error": "RuntimeError: engine blew up"}
        assert (pickle.dumps(degraded.analyzer.dump_state())
                == pickle.dumps(clean.analyzer.dump_state()))
        assert degraded.totals() == clean.totals()
        manifest = degraded.manifest.to_dict()
        assert manifest["fallback"]["from"] == "numpy"
        assert manifest["engine_ran"] == "fenwick"
        assert "FALLBACK" in degraded.manifest.render()
        assert obs_on.snapshot()["counters"]["resil.fallbacks"] == 1
        # the rerun is the one path sharing no code with the numpy
        # window: the scalar executor driving the fenwick engine
        rerun = [sp for sp in trace.tracer().spans if sp.name == "execute"]
        assert rerun[-1].attrs["executor"] == "Executor"
        assert rerun[-1].attrs["engine"] == "fenwick"

    def test_sharded_failure_falls_back_sequentially(self):
        params = SweepParams(n=4, mm=3, nm=2, noct=1)
        clean = AnalysisSession(build_original(params))
        clean.run()
        faults.install(FaultSpec(point="session.run", action="raise",
                                 exc="OSError", times=1))
        degraded = AnalysisSession(build_original(params), shards=3)
        degraded.run()
        assert degraded.fallback is not None
        assert degraded.fallback["from"] == "numpy+shards=3"
        assert degraded.fallback["to"] == "fenwick"
        assert (pickle.dumps(degraded.analyzer.dump_state())
                == pickle.dumps(clean.analyzer.dump_state()))

    def test_plain_fenwick_has_no_fallback_and_raises(self):
        faults.install(FaultSpec(point="session.run", action="raise",
                                 exc="RuntimeError", times=1))
        with pytest.raises(RuntimeError):
            AnalysisSession(build_original(
                SweepParams(n=4, mm=3, nm=2, noct=1)),
                engine="fenwick", batch=False).run()

    def test_manifest_fallback_round_trips(self):
        from repro.obs.manifest import RunManifest
        m = RunManifest(program="p", fallback={"from": "numpy",
                                               "to": "fenwick",
                                               "error": "E: x"})
        again = RunManifest.from_dict(m.to_dict())
        assert again.fallback == m.fallback
        clean = RunManifest.from_dict(RunManifest(program="p").to_dict())
        assert clean.fallback is None


class TestMeasureShardWarningDedupe:
    def test_single_warning_for_many_tasks(self, caplog):
        tasks = [SweepTask(key=f"m{n}", builder=build_original,
                           args=(SweepParams(n=n, mm=3, nm=2, noct=1),),
                           mode="measure", shards=3,
                           measure_kwargs={"name": f"m{n}"})
                 for n in (4, 5)]
        with caplog.at_level("WARNING", logger="repro.tools.sweep"):
            outcomes = run_sweep(tasks)
        warnings = [r for r in caplog.records
                    if "ignored in measure mode" in r.getMessage()]
        assert len(warnings) == 1
        assert "'m4'" in warnings[0].getMessage()
        assert all(not out.failed for out in outcomes)


class TestStructuredOutcomeFields:
    def test_failure_rows_render_kind_retries_duration(self):
        faults.install(FaultSpec(point="sweep.unit", action="raise",
                                 exc="ValueError", match=(("key", 4),),
                                 times=0))
        outcomes = run_sweep(_analyze_tasks((4, 5)), retry=FAST)
        manifest = build_sweep_manifest(outcomes, wall_time=0.5)
        bad = manifest["task_summaries"][0]
        assert bad["error_kind"] == "fatal"
        assert bad["retries"] == 0
        assert bad["duration_s"] >= 0
        good = manifest["task_summaries"][1]
        assert "error_kind" not in good
        assert good["duration_s"] > 0
        assert manifest["resilience"]["failure_kinds"] == {"fatal": 1}
        text = render_sweep_manifest(manifest)
        assert "FAILED [fatal] ValueError" in text
        assert "failure kinds: fatal=1" in text

    def test_retry_totals_roll_up(self):
        faults.install(FaultSpec(point="sweep.unit", action="raise",
                                 exc="OSError", match=(("key", 4),),
                                 times=1))
        outcomes = run_sweep(_analyze_tasks((4,)), retry=FAST)
        manifest = build_sweep_manifest(outcomes)
        assert manifest["resilience"]["retries"] == 1
        assert manifest["task_summaries"][0]["retries"] == 1
        assert "retries: 1" in render_sweep_manifest(manifest)
