"""Exact static-engine output on the paper's three kernels at small sizes.

The static engine is approximate, so its states are not compared with a
dynamic run; they are pinned byte for byte.  Any change to
``StaticProfiler`` that is meant to be a pure speed-up must leave these
digests unchanged.  The six scaled-machine points exercise overlap,
plain, co-traversal-corrected and cover links; the two GTC points also
exercise near-extra weights (co-reference fresh-block counts).  The three
full-size Itanium2 points add blocks larger than the object alignment,
where several arrays share one block.

The scaled-machine digests are the benchmark's ``"static"`` references
for the same points (sha256 of the pickled state, highest protocol).
"""

import hashlib
import pickle

import pytest

from repro.apps.registry import build_workload
from repro.model import MachineConfig
from repro.static import profile
from repro.static.profile import static_profile
from repro.tools import AnalysisSession

SCALED = MachineConfig.scaled_itanium2()
# The full-size target's 16384-B pages each hold several small arrays
# (objects are 4096-B aligned), so same-key chains cross arrays and leave
# negative re-touch gaps.
ITANIUM2 = MachineConfig.itanium2()
GTC_GRID = {"mpsi": 8, "mtheta": 12, "mzeta": 4}

POINTS = [
    ("sweep3d", {"mesh": 4}, SCALED,
     "bb3ee824759530a974a07a4470480fa1883dbcf0fb466accbab08e4cdd482817"),
    ("sweep3d", {"mesh": 6}, SCALED,
     "a2ec666feb576d6d95749b0ddaa1a9b93c7842f3520b775bacf0abd9d58f85f7"),
    ("gtc", {"micell": 1, **GTC_GRID}, SCALED,
     "612dec195eba6c4eab24141114851b9517b6d11970c71de97264bbfa1a214561"),
    ("gtc", {"micell": 2, **GTC_GRID}, SCALED,
     "8f5b1a647a0594f5958363fd17c56461533483c9b5e1aa465cd693a352ee82bf"),
    ("cg", {"grid": 12}, SCALED,
     "3870c23d683908f63b95c519818f0094ca06e04b8dbf77117521734ad7b4cb4f"),
    ("cg", {"grid": 16}, SCALED,
     "60d6a58d4f751f07f34da82280cc082756ab9fc5f77399aaa7a792bb4a0fa38d"),
    ("sweep3d", {"mesh": 4}, ITANIUM2,
     "4ad7ba6869992127c1a4679e8d1ffa5a929f4a4617733478812a68256934511c"),
    ("gtc", {"micell": 1, **GTC_GRID}, ITANIUM2,
     "67e9b20f2251d978a51c7889a76f03913dfd7b00489f6dfbefee0fcd7297957f"),
    ("cg", {"grid": 12}, ITANIUM2,
     "59a90d3b18574e8bfe58b7fd898120dbfad8ad09e719662b479d1d9158aeb863"),
]
IDS = [f"{w}-{next(iter(p.values()))}"
       + ("" if m is SCALED else f"-{m.name}") for w, p, m, _ in POINTS]

BUDGET_COUNTERS = ("static.cotrav_skipped", "static.fresh_sim_skipped")


def _digest(state) -> str:
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("workload,params,machine,want", POINTS, ids=IDS)
def test_static_state_digest(workload, params, machine, want, obs_on):
    state, _stats = static_profile(build_workload(workload, **params),
                                   machine.granularities())
    assert _digest(state) == want
    # No budget cut an estimate short at the default budgets.
    counters = obs_on.snapshot()["counters"]
    assert all(counters.get(name, 0) == 0 for name in BUDGET_COUNTERS)


@pytest.mark.parametrize("budget,counter", [
    ("_COTRAV_CELL_BUDGET", "static.cotrav_skipped"),
    ("_FRESH_SIM_BUDGET", "static.fresh_sim_skipped"),
])
def test_budget_skip_is_counted(budget, counter, monkeypatch, obs_on):
    monkeypatch.setattr(profile, budget, 0)
    session = AnalysisSession(build_workload("gtc", micell=1, **GTC_GRID),
                              engine="static").run()
    assert session.manifest.metrics["counters"].get(counter, 0) > 0
