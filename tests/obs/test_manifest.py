"""Run manifests: session integration, JSON roundtrip, rendering."""

import json

from repro.apps.kernels import fig1_interchange
from repro.apps.spcg import build_cg
from repro.obs.manifest import RunManifest
from repro.tools import AnalysisCache, AnalysisSession, program_fingerprint


class TestSessionManifest:
    def test_every_run_leaves_a_manifest(self):
        session = AnalysisSession(fig1_interchange(8, 8))
        assert session.manifest is None
        session.run()
        m = session.manifest
        assert m.program == session.program.name
        assert m.fingerprint == program_fingerprint(session.program)
        assert m.executor == "batch"
        assert m.engine == "fenwick"
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
        assert counters["batch.chunks"] >= 1
        # fig1 is affine throughout; CG's sparse gathers compile to
        # gather plans (counted once per compiled loop, not per access).
        assert counters.get("batch.gather_plans", 0) == 0
        cg = AnalysisSession(build_cg(grid=6, iterations=1))
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
