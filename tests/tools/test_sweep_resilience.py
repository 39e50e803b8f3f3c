"""Fault-injection suite: the execution layer under crashes and stalls.

Every scenario here asserts two things: the run *survives* the injected
fault, and the results are *byte-identical* to an undisturbed run — the
resilience layer steers scheduling only, never answers.
"""

import json
import multiprocessing
import os
import pickle
from dataclasses import replace

import pytest

from repro.apps.sweep3d import SweepParams, build_original
from repro.obs import metrics as obs_metrics
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
        # every worker attempt crashes: both tasks exhaust their retry
        # budget through pool rebuilds and surface as poison, not a hang
        faults.install(FaultSpec(point="sweep.unit", action="crash",
                                 times=0, marker=str(tmp_path / "m")))
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


#: keys of the tasks _counting_builder has built, in this process
_BUILT = []


def _counting_builder(params):
    _BUILT.append(params.n)
    return build_original(params)


def _record_names(tasks):
    return sorted(SweepCheckpoint.unit_digest(t) + ".pkl" for t in tasks)


def _work_counts(counters):
    return {n: v for n, v in counters.items()
            if n.startswith(("sweep.", "analyzer."))}


class TestCheckpointResume:
    def test_completed_units_restored_not_recomputed(self, obs_on,
                                                     tmp_path):
        ckpt_path = str(tmp_path / "ck")
        tasks = _analyze_tasks((4, 5))
        first = run_sweep(tasks, checkpoint=ckpt_path)
        assert sorted(os.listdir(ckpt_path)) == _record_names(tasks)
        second = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        assert _states(second) == _states(first)
        snap = obs_on.snapshot()
        assert snap["counters"]["resil.checkpoint_restored"] == 2

    def test_resume_counts_restores_not_their_work(self, obs_on,
                                                   tmp_path):
        """A record holds a task's answer, not its metrics: a resume
        that runs no task counts its restores and no task work."""
        ckpt_path = str(tmp_path / "ck")
        run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        before = obs_on.snapshot()
        out = str(tmp_path / "resume.json")
        run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path,
                  manifest_out=out)
        d = obs_metrics.delta(before, obs_on.snapshot())
        assert d["counters"]["resil.checkpoint_restored"] == 2
        assert _work_counts(d["counters"]) == {}
        with open(out) as fh:
            counters = json.load(fh)["metrics"]["counters"]
        assert counters["resil.checkpoint_restored"] == 2
        assert _work_counts(counters) == {}

    def test_recipe_edit_invalidates_stale_units(self, obs_on, tmp_path):
        ckpt_path = str(tmp_path / "ck")
        first = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        edited = _analyze_tasks((4, 5))
        edited[1] = replace(edited[1], engine="fenwick")
        before = obs_on.snapshot()
        outcomes = run_sweep(edited, checkpoint=ckpt_path)
        d = obs_metrics.delta(before, obs_on.snapshot())
        assert d["counters"]["resil.checkpoint_restored"] == 1
        assert d["counters"]["sweep.tasks"] == 1
        assert [out.engine for out in outcomes] == ["numpy", "fenwick"]
        assert _states(outcomes) == _states(first)
        # the edited task has a record of its own; the stale one stays
        assert len(os.listdir(ckpt_path)) == 3

    @pytest.mark.parametrize("damage",
                             ["missing", "truncated", "unpicklable"])
    def test_lost_record_reruns_its_task(self, obs_on, tmp_path, caplog,
                                         damage):
        ckpt_path = str(tmp_path / "ck")
        clean = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        (name,) = _record_names(_analyze_tasks((5,)))
        path = os.path.join(ckpt_path, name)
        if damage == "missing":
            os.unlink(path)
        else:
            data = open(path, "rb").read()
            with open(path, "wb") as fh:
                fh.write(data[:len(data) // 2] if damage == "truncated"
                         else b"\x00garbage")
        before = obs_on.snapshot()
        with caplog.at_level("WARNING", logger="repro.tools.resilience"):
            resumed = run_sweep(_analyze_tasks((4, 5)),
                                checkpoint=ckpt_path)
        d = obs_metrics.delta(before, obs_on.snapshot())
        assert d["counters"]["resil.checkpoint_restored"] == 1
        assert d["counters"]["sweep.tasks"] == 1
        assert _states(resumed) == _states(clean)
        # a damaged record warns; a missing one is a task that never
        # finished, as far as the checkpoint can tell
        assert ("unreadable" in caplog.text) == (damage != "missing")
        # the re-run wrote its record anew
        assert pickle.loads(open(path, "rb").read()).state == \
            clean[1].state

    def test_failed_tasks_leave_no_record(self, tmp_path):
        faults.install(FaultSpec(point="sweep.unit", action="raise",
                                 exc="ValueError", match=(("key", 5),),
                                 times=0))
        ckpt_path = str(tmp_path / "ck")
        outcomes = run_sweep(_analyze_tasks((4, 5)), retry=FAST,
                             checkpoint=ckpt_path)
        assert [out.failed for out in outcomes] == [False, True]
        assert os.listdir(ckpt_path) == _record_names(_analyze_tasks((4,)))
        faults.clear()
        resumed = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        assert [out.failed for out in resumed] == [False, False]

    def test_journal_path_refused_before_any_task_runs(self, tmp_path):
        # a JSONL journal written before record files is not read
        journal = tmp_path / "ck.jsonl"
        journal.write_text('{"kind": "sweep-checkpoint", "version": 1}\n')
        _BUILT.clear()
        tasks = [SweepTask(key=4, builder=_counting_builder,
                           args=(SweepParams(n=4, mm=3, nm=2, noct=1),))]
        with pytest.raises(ValueError, match="not a directory"):
            run_sweep(tasks, checkpoint=str(journal))
        assert _BUILT == []
        run_sweep(tasks)
        assert _BUILT == [4]  # the builder counts when a task runs

    def test_killed_sweep_resumes_byte_identical(self, tmp_path):
        """The acceptance scenario: kill mid-run, resume, same bytes."""
        ckpt_path = str(tmp_path / "ck")
        marker = str(tmp_path / "m")
        child = multiprocessing.Process(
            target=_crashing_sweep_child, args=(ckpt_path, marker))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 70  # died on the injected crash
        # unit 4 completed, unit 5 never did
        assert os.listdir(ckpt_path) == _record_names(_analyze_tasks((4,)))
        clean = run_sweep(_analyze_tasks((4, 5)))
        resumed = run_sweep(_analyze_tasks((4, 5)), checkpoint=ckpt_path)
        assert [out.failed for out in resumed] == [False, False]
        assert _states(resumed) == _states(clean)
        assert [out.totals for out in resumed] == [
            out.totals for out in clean]
        assert sorted(os.listdir(ckpt_path)) == _record_names(
            _analyze_tasks((4, 5)))

    @pytest.mark.slow
    def test_killed_parallel_sharded_sweep_resumes(self, tmp_path):
        """Nightly chaos leg: crash a sharded parallel sweep, resume."""
        tasks = [SweepTask(key=n, builder=build_original,
                           args=(SweepParams(n=n, mm=3, nm=2, noct=1),),
                           mode="analyze", shards=2)
                 for n in (4, 5, 6)]
        ckpt_path = str(tmp_path / "ck")
        clean = run_sweep(tasks)
        faults.install(FaultSpec(point="sweep.unit", action="crash",
                                 match=(("key", 5),), times=1,
                                 marker=str(tmp_path / "m")))
        crashed = run_sweep(tasks, jobs=2, retry=FAST,
                            checkpoint=ckpt_path)
        assert [out.failed for out in crashed] == [False] * 3
        assert _states(crashed) == _states(clean)
        assert sorted(os.listdir(ckpt_path)) == _record_names(tasks)
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
