"""Run manifests: session integration, JSON roundtrip, rendering."""

import json
import time

import pytest

from repro.apps.kernels import fig1_interchange, stream_triad
from repro.apps.spcg import build_cg
from repro.core.npengine import NumpyBatchState
from repro.core.shard import record_trace
from repro.model import MachineConfig
from repro.obs import metrics as obs_metrics
from repro.obs.manifest import RunManifest
from repro.testing import faults
from repro.testing.faults import FaultSpec
from repro.tools import AnalysisCache, AnalysisSession, program_fingerprint
from tests.helpers import fed_analyzer


class TestSessionManifest:
    def test_every_run_leaves_a_manifest(self):
        session = AnalysisSession(fig1_interchange(8, 8))
        assert session.manifest is None
        session.run()
        m = session.manifest
        assert m.program == session.program.name
        assert m.fingerprint == program_fingerprint(session.program)
        assert m.executor == "batch"
        assert m.engine == "numpy"
        assert m.engine_ran == "numpy"
        assert not m.cache_attached and not m.from_cache
        assert m.events["accesses"] == session.stats.accesses
        assert m.events["clock"] == session.analyzer.clock
        assert "execute" in m.phases
        assert m.phases["execute"] > 0

    def test_scalar_executor_recorded(self):
        session = AnalysisSession(fig1_interchange(8, 8), batch=False)
        session.run()
        assert session.manifest.executor == "scalar"

    def test_cache_hit_recorded(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        AnalysisSession(fig1_interchange(8, 8), cache=cache).run()
        s2 = AnalysisSession(fig1_interchange(8, 8), cache=cache)
        s2.run()
        m = s2.manifest
        assert m.cache_attached and m.from_cache
        assert "cache_lookup" in m.phases
        assert "execute" not in m.phases

    def test_metrics_delta_attached_when_enabled(self, obs_on):
        session = AnalysisSession(fig1_interchange(8, 8))
        session.run()
        counters = session.manifest.metrics["counters"]
        assert counters["analyzer.batch_events"] == session.stats.accesses
        # the default path feeds the window from the enumeration, so
        # the BatchExecutor's batch.* counters stay at 0
        assert session.manifest.executor_ran == "enumerated"
        assert counters.get("batch.chunks", 0) == 0
        # treap keeps the BatchExecutor walk.  fig1 is affine
        # throughout; CG's sparse gathers compile to gather plans
        # (counted once per compiled loop, not per access).
        walked = AnalysisSession(fig1_interchange(8, 8), engine="treap")
        walked.run()
        counters = walked.manifest.metrics["counters"]
        assert counters["batch.chunks"] >= 1
        assert counters.get("batch.gather_plans", 0) == 0
        cg = AnalysisSession(build_cg(grid=6, iterations=1), engine="treap")
        cg.run()
        cg_counters = cg.manifest.metrics["counters"]
        assert 0 < cg_counters["batch.gather_plans"] <= \
            cg_counters["batch.plans_compiled"]

    def test_metrics_empty_when_disabled(self):
        session = AnalysisSession(fig1_interchange(8, 8))
        session.run()
        assert session.manifest.metrics == {}

    def test_predict_phase_recorded_lazily(self):
        session = AnalysisSession(fig1_interchange(8, 8))
        session.run()
        assert "predict" not in session.manifest.phases
        session.totals()
        assert session.manifest.phases["predict"] >= 0


class TestEngineRan:
    """The manifest records the engine whose code resolved the distances
    next to the requested one."""

    @pytest.mark.parametrize("kwargs,ran", [
        ({}, "numpy"),
        ({"engine": "fenwick"}, "numpy"),
        ({"engine": "fenwick", "batch": False}, "fenwick"),
        ({"engine": "numpy", "batch": False}, "numpy"),
        ({"engine": "treap"}, "treap"),
        ({"engine": "static"}, "static"),
        ({"shards": 2, "shard_jobs": 1}, "numpy"),
    ], ids=["default", "fenwick-batched", "fenwick-scalar", "numpy-scalar",
            "treap", "static", "sharded"])
    def test_records_what_ran(self, kwargs, ran):
        session = AnalysisSession(stream_triad(64, 2), **kwargs).run()
        m = session.manifest
        assert m.engine == kwargs.get("engine", "numpy")
        assert m.engine_ran == ran
        assert RunManifest.from_dict(m.to_dict()).engine_ran == ran
        shown = m.render().splitlines()[1]
        if ran == m.engine:
            assert "(ran" not in shown
        else:
            assert f"engine {m.engine} (ran {ran})" in shown

    def test_degraded_numpy_run_records_the_rerun(self):
        faults.install(FaultSpec(point="session.run", action="raise",
                                 exc="RuntimeError", times=1))
        try:
            session = AnalysisSession(stream_triad(64, 2)).run()
        finally:
            faults.clear()
        assert session.fallback["to"] == "fenwick"
        assert session.manifest.engine_ran == "fenwick"
        assert "engine numpy (ran fenwick)" in session.manifest.render()

    def test_cache_hit_records_no_engine(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        AnalysisSession(stream_triad(64, 2), cache=cache).run()
        hit = AnalysisSession(stream_triad(64, 2), cache=cache).run()
        assert hit.from_cache
        assert hit.manifest.engine_ran is None
        assert "(ran" not in hit.manifest.render()

    def test_old_manifest_without_field_loads(self):
        data = RunManifest(program="p", engine="fenwick").to_dict()
        del data["engine_ran"]
        m = RunManifest.from_dict(data)
        assert m.engine == "fenwick" and m.engine_ran is None
        assert "engine fenwick / batch executor" in m.render()


class TestExecutorRan:
    """The manifest records the walk that produced the accesses next to
    the requested executor."""

    @pytest.mark.parametrize("kwargs,ran", [
        ({}, "enumerated"),
        ({"engine": "fenwick"}, "enumerated"),
        ({"engine": "fenwick", "batch": False}, "scalar"),
        ({"engine": "numpy", "batch": False}, "scalar"),
        ({"engine": "treap"}, "batch"),
        ({"simulate": True}, "enumerated"),
        ({"engine": "static"}, None),
        ({"shards": 2, "shard_jobs": 1}, "enumerated"),
    ], ids=["default", "fenwick-batched", "fenwick-scalar", "numpy-scalar",
            "treap", "simulated", "static", "sharded"])
    def test_records_the_walk(self, kwargs, ran):
        session = AnalysisSession(stream_triad(64, 2), **kwargs).run()
        m = session.manifest
        assert session.executor_ran == m.executor_ran == ran
        assert RunManifest.from_dict(m.to_dict()).executor_ran == ran
        assert (f"executor ran: {ran}" in m.render()) == (ran is not None)

    def test_cache_hit_records_no_walk(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        AnalysisSession(stream_triad(64, 2), cache=cache).run()
        hit = AnalysisSession(stream_triad(64, 2), cache=cache).run()
        assert hit.from_cache and hit.manifest.executor_ran is None

    def test_old_manifest_without_field_loads(self):
        data = RunManifest(program="p").to_dict()
        del data["executor_ran"]
        m = RunManifest.from_dict(data)
        assert m.executor == "batch" and m.executor_ran is None
        assert "executor ran" not in m.render()


class TestNumpyFlush:
    """The numpy engine resolves its input a window at a time; the last
    window is resolved inside ``execute``, and every window and kernel
    call is timed."""

    def test_execute_phase_includes_last_flush(self, monkeypatch, tmp_path):
        delay = 0.2
        resolve = NumpyBatchState._resolve

        def slow_resolve(self, win, end):
            time.sleep(delay)
            resolve(self, win, end)

        monkeypatch.setattr(NumpyBatchState, "_resolve", slow_resolve)
        session = AnalysisSession(fig1_interchange(8, 8),
                                  cache=AnalysisCache(str(tmp_path))).run()
        session.totals()
        phases = session.manifest.phases
        assert phases["execute"] >= delay
        assert phases["cache_store"] < delay
        assert phases["predict"] < delay

    def test_manifest_carries_flush_metrics(self, obs_on):
        session = AnalysisSession(fig1_interchange(8, 8)).run()
        metrics = session.manifest.metrics
        flushes = metrics["counters"]["analyzer.np_flushes"]
        assert flushes >= 1
        assert metrics["counters"]["analyzer.np_flushed_events"] == \
            session.stats.accesses
        timers = metrics["timers"]
        assert timers["analyzer.np_flush_latency"]["count"] == flushes
        assert timers["analyzer.np_count_smaller_latency"]["count"] >= 1

    def test_timers_count_every_flush(self, obs_on):
        trace, _stats = record_trace(fig1_interchange(16, 16))
        before = obs_metrics.snapshot()
        fed_analyzer(trace, MachineConfig.scaled_itanium2().granularities(),
                     threshold=97)   # several windows
        d = obs_metrics.delta(before, obs_metrics.snapshot())
        flushes = d["counters"]["analyzer.np_flushes"]
        flush_t = d["timers"]["analyzer.np_flush_latency"]
        kernel_t = d["timers"]["analyzer.np_count_smaller_latency"]
        assert flushes > 1
        assert flush_t["count"] == flushes
        assert kernel_t["count"] >= 1
        assert kernel_t["total_s"] <= flush_t["total_s"]


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        session = AnalysisSession(fig1_interchange(8, 8))
        session.run()
        path = str(tmp_path / "manifest.json")
        session.manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == session.manifest.to_dict()

    def test_to_dict_is_json_serializable_with_metrics(self, obs_on):
        session = AnalysisSession(fig1_interchange(8, 8))
        session.run()
        round_tripped = json.loads(session.manifest.to_json())
        assert round_tripped["events"]["accesses"] == session.stats.accesses
        assert round_tripped["metrics"]["counters"]

    def test_from_dict_tolerates_missing_fields(self):
        m = RunManifest.from_dict({"program": "p"})
        assert m.program == "p"
        assert m.events == {} and m.phases == {}


class TestRender:
    def test_render_mentions_phases_events_counters(self, obs_on):
        session = AnalysisSession(fig1_interchange(8, 8))
        session.run()
        text = session.manifest.render()
        assert "execute" in text
        assert "accesses=" in text
        assert "analyzer.batch_events" in text
        assert session.manifest.fingerprint[:12] in text

    def test_render_cache_states(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        s1 = AnalysisSession(fig1_interchange(8, 8), cache=cache)
        s1.run()
        assert "cache: miss" in s1.manifest.render()
        s2 = AnalysisSession(fig1_interchange(8, 8), cache=cache)
        s2.run()
        assert "cache: hit" in s2.manifest.render()
