"""AnalysisSession with engine="static": analytical runs end to end.

The static engine must be a drop-in engine choice: same downstream
pipeline (prediction, recommendations, manifest), same cache protocol,
same graceful degradation — just no execution.
"""

import pytest

from repro.apps.kernels import stream_triad
from repro.apps.registry import build_workload
from repro.model import MachineConfig
from repro.testing import faults
from repro.testing.faults import FaultSpec
from repro.tools import AnalysisCache, AnalysisSession

CFG = MachineConfig.scaled_itanium2()


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


class TestStaticRun:
    def test_exact_match_on_triad(self):
        """Triad is single-event everywhere: static == dynamic exactly,
        so the whole downstream pipeline agrees too."""
        dyn = AnalysisSession(stream_triad(64, 2), config=CFG).run()
        sta = AnalysisSession(stream_triad(64, 2), config=CFG,
                              engine="static").run()
        assert sta.analyzer.dump_state() == dyn.analyzer.dump_state()
        assert sta.totals() == dyn.totals()
        assert sta.stats.accesses == dyn.stats.accesses

    def test_pipeline_consumes_static_result(self):
        session = AnalysisSession(build_workload("sweep3d", mesh=6),
                                  config=CFG, engine="static").run()
        totals = session.totals()
        assert all(totals[lvl] >= 0 for lvl in ("L2", "L3", "TLB"))
        assert session.render_carried()
        assert session.render_recommendations("L2")
        assert session.export_xml()

    def test_manifest_records_static_engine(self):
        session = AnalysisSession(stream_triad(32, 1), config=CFG,
                                  engine="static").run()
        assert session.manifest.engine == "static"
        assert "static_estimate" in session.manifest.phases
        assert "execute" not in session.manifest.phases
        assert session.manifest.events["accesses"] == session.stats.accesses

    def test_params_override(self):
        from repro.lang import (
            MemoryLayout, Var, load, loop, program, routine, stmt,
        )

        def build():
            lay = MemoryLayout()
            a = lay.array("A", 256)
            nest = loop("i", 1, Var("n"), stmt(load(a, Var("i"))), name="I")
            return program("p", lay, [routine("main", nest)],
                           params={"n": 32})

        base = AnalysisSession(build(), config=CFG, engine="static").run()
        big = AnalysisSession(build(), config=CFG,
                              engine="static").run(n=64)
        assert base.stats.accesses == 32
        assert big.stats.accesses == 64
        dyn = AnalysisSession(build(), config=CFG).run(n=64)
        assert big.analyzer.dump_state() == dyn.analyzer.dump_state()


class TestStaticGuards:
    def test_simulate_rejected(self):
        with pytest.raises(ValueError, match="simulator"):
            AnalysisSession(stream_triad(32, 1), engine="static",
                            simulate=True)

    def test_shards_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            AnalysisSession(stream_triad(32, 1), engine="static", shards=2)

    def test_trace_store_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="trace"):
            AnalysisSession(stream_triad(32, 1), engine="static",
                            trace_store=str(tmp_path))


class TestStaticCache:
    def test_cache_roundtrip(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        first = AnalysisSession(stream_triad(64, 2), config=CFG,
                                engine="static", cache=cache).run()
        assert not first.from_cache
        second = AnalysisSession(stream_triad(64, 2), config=CFG,
                                 engine="static", cache=cache).run()
        assert second.from_cache
        assert (second.analyzer.dump_state()
                == first.analyzer.dump_state())

    def test_key_distinct_from_dynamic(self, tmp_path):
        """A static entry must never satisfy a dynamic lookup (or vice
        versa): the engine is part of the cache key."""
        cache = AnalysisCache(str(tmp_path))
        AnalysisSession(stream_triad(64, 2), config=CFG,
                        engine="static", cache=cache).run()
        dyn = AnalysisSession(stream_triad(64, 2), config=CFG,
                              cache=cache).run()
        assert not dyn.from_cache
        assert len(cache) == 2


class TestStaticDegrade:
    def test_failure_falls_back_to_fenwick(self):
        faults.install(FaultSpec(point="session.run", action="raise",
                                 exc="RuntimeError",
                                 match=(("engine", "static"),)))
        session = AnalysisSession(stream_triad(64, 2), config=CFG,
                                  engine="static").run()
        assert session.fallback is not None
        assert session.fallback["from"] == "static"
        # the rerun takes the default dynamic path
        assert session.fallback["to"] == "numpy"
        assert session.engine_ran == "numpy"
        ref = AnalysisSession(stream_triad(64, 2), config=CFG).run()
        assert session.analyzer.dump_state() == ref.analyzer.dump_state()

    def test_unsupported_program_raises_static_unsupported(self):
        """The degrade trigger for irregular programs: enumeration blows
        the point budget and raises StaticUnsupported."""
        from repro.apps.kernels import irregular_gather
        from repro.static import StaticUnsupported
        from repro.static.profile import static_profile
        with pytest.raises(StaticUnsupported, match="too irregular"):
            static_profile(irregular_gather(64, 128), CFG.granularities(),
                           max_points=8)


class TestStaticSweep:
    def test_sweep_task_accepts_static_engine(self):
        from repro.tools.sweep import SweepTask, run_sweep
        task = SweepTask(key="triad-static", builder=stream_triad,
                         args=(64, 2), engine="static")
        out, = run_sweep([task])
        ref = AnalysisSession(stream_triad(64, 2)).run().totals()
        assert out.totals == ref
