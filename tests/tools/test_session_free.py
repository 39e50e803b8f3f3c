"""A dropped session is freed by reference counting.

Analyzers, their block tables and distance engines, and predictions are
the bulk of a finished analysis.  None of them may sit in a reference
cycle: cyclic garbage lives until the collector's next full pass, which
runs less often the fewer objects a run allocates, so the peak memory of
a long-lived process would hang on the collector's timing.
"""

import gc
import weakref

import pytest

from repro.apps.sweep3d import SweepParams, build_original
from repro.tools.cache import AnalysisCache
from repro.tools.session import AnalysisSession

PARAMS = SweepParams(n=4, mm=3, nm=2, noct=1)


def _drive(session):
    """The calls ``repro analyze`` makes after the run."""
    session.prediction
    session.render_carried(n=6)
    session.render_table2("L2", top_scopes=5)
    session.render_fragmentation("L2", n=6)
    session.viewer.render_arrays(n=8)
    session.render_recommendations("L2", top_n=6)
    session.export_xml(None)


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("kwargs", [
    {},
    {"engine": "static"},
    {"shards": 2, "shard_jobs": 1},
    {"engine": "fenwick", "batch": False},
    {"engine": "numpy", "batch": False},
    {"cache": "hit"},
], ids=["numpy", "static", "sharded", "scalar-fenwick", "scalar-numpy",
        "cache-hit"])
def test_dropped_session_is_freed_without_the_collector(kwargs, tmp_path,
                                                       no_collector):
    if kwargs.get("cache") == "hit":
        cache = AnalysisCache(str(tmp_path))
        AnalysisSession(build_original(PARAMS), cache=cache).run()
        kwargs = {"cache": cache}
    session = AnalysisSession(build_original(PARAMS), **kwargs).run()
    if "cache" in kwargs:
        assert session.from_cache
    _drive(session)
    analyzer = weakref.ref(session.analyzer)
    prediction = weakref.ref(session.prediction)
    del session
    assert analyzer() is None
    assert prediction() is None
