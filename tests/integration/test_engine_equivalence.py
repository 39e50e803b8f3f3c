"""End-to-end engine equivalence on the real application kernels.

The array engine's acceptance bar is byte-identity, not statistical
agreement: for every application in the suite the ``numpy`` analyzer must
produce exactly the pattern databases, cold counts, footprints, and clock
that the scalar ``fenwick`` engine does — through the full batched
pipeline (a recorded walk fed to the windows), not just synthetic
traces.  Sweep3D and GTC are the paper's two headline codes; CG adds an
irregular (index-vector) access pattern.
"""

import pytest

from repro.apps.gtc import GTCParams, build_gtc
from repro.apps.spcg import build_cg
from repro.apps.sweep3d import SweepParams, build_original
from repro.core import ReuseAnalyzer
from repro.core.npengine import FLUSH_ACCESSES
from repro.core.shard import record_trace
from repro.lang import BatchExecutor
from repro.model import MachineConfig
from tests.helpers import fed_analyzer

CFG = MachineConfig.scaled_itanium2()

BUILDERS = [
    ("sweep3d", lambda: build_original(SweepParams(n=6, mm=4, nm=2,
                                                   noct=1))),
    ("gtc", lambda: build_gtc(None, GTCParams(mpsi=4, mtheta=6, micell=2,
                                              mzeta=2, timesteps=1))),
    ("cg", lambda: build_cg(grid=10, iterations=2)),
]


def _run(build, engine, flush_threshold=FLUSH_ACCESSES):
    """The fenwick engine walked by ``BatchExecutor``, or the walked
    numpy path: the same walk recorded, then fed to the windows."""
    if engine == "numpy":
        trace, stats = record_trace(build())
        analyzer = fed_analyzer(trace, CFG.granularities(), flush_threshold)
    else:
        analyzer = ReuseAnalyzer(CFG.granularities(), engine=engine)
        stats = BatchExecutor(build(), analyzer).run()
    return analyzer.dump_state(), vars(stats)


@pytest.mark.parametrize("name,build", BUILDERS,
                         ids=[n for n, _b in BUILDERS])
def test_numpy_byte_identical_to_fenwick(name, build):
    fw_state, fw_stats = _run(build, "fenwick")
    np_state, np_stats = _run(build, "numpy")
    assert np_state == fw_state
    assert np_stats == fw_stats


@pytest.mark.parametrize("name,build", BUILDERS,
                         ids=[n for n, _b in BUILDERS])
def test_numpy_small_flush_windows(name, build):
    # Force many windows inside one run: windows end mid-loop and
    # mid-run, exercising the cross-window distance/carry stitching on a
    # real access stream rather than a synthetic one.  On the irregular
    # kernels run compression keeps most accesses, so each flush's
    # count-smaller prefix table is at its largest.
    fw_state, _ = _run(build, "fenwick")
    np_state, _ = _run(build, "numpy", flush_threshold=997)
    assert np_state == fw_state
