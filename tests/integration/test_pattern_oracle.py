"""Every dynamic path against a naive O(N^2) pattern oracle.

``tests.helpers.oracle_state`` analyses a recorded event list the slow,
obvious way: an explicit scan per reuse for its distance, the innermost
scope at the previous touch for its source, a linear top-down frame scan
for its carrying scope.  On small generated kernels — including the
loop-carried and escaping scalars the enumeration rejects — the
``dump_state()`` of each path equals the oracle's, and so does each on
the registry workloads at small sizes: the walked feed (a recording fed
whole), the table feed, the scalar ``Executor`` with fenwick, treap on
both executors, ``shards=K`` for every K in 1..7, a spilled scalar
recording at K=1 and K=3, and the hit of a cache round-trip.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings

from repro.apps.registry import build_workload, workload_names
from repro.core.shard import record_trace
from repro.lang import (
    Executor, MemoryLayout, TraceRecorder, Var, assign, idx, load, loop,
    program, routine, stmt,
)
from repro.model import MachineConfig
from repro.static.itermodel import StaticUnsupported
from repro.static.segments import build_segments
from repro.tools.cache import AnalysisCache
from repro.tools.session import AnalysisSession
from tests.helpers import SMALLER, fed_analyzer, kernels, oracle_state

GRANS = MachineConfig.scaled_itanium2().granularities()


def check_oracle(prog) -> bool:
    """Compare every feed with the oracle; returns whether the
    enumeration accepted ``prog``."""
    rec = TraceRecorder()
    Executor(prog, rec).run()
    want = oracle_state(rec.events, GRANS)
    trace, _stats = record_trace(prog)
    assert fed_analyzer(trace, GRANS).dump_state() == want
    try:
        table = build_segments(prog)
    except StaticUnsupported:
        table = None
    else:
        assert fed_analyzer(table, GRANS).dump_state() == want
    with tempfile.TemporaryDirectory() as tmp:
        cache = AnalysisCache(os.path.join(tmp, "cache"))
        AnalysisSession(prog, cache=cache).run()
        hit = AnalysisSession(prog, cache=cache).run()
        assert hit.from_cache
        spilled = [AnalysisSession(prog, shards=k, batch=False,
                                   trace_store=tmp).run() for k in (1, 3)]
        assert all(s.executor_ran == "scalar" and s.trace_path
                   for s in spilled)
    sessions = [AnalysisSession(prog, engine=engine, batch=batch).run()
                for engine, batch in (("fenwick", False), ("treap", True),
                                      ("treap", False))]
    sessions += [AnalysisSession(prog, shards=k, shard_jobs=1).run()
                 for k in range(1, 8)]
    for session in sessions + spilled + [hit]:
        assert session.fallback is None
        assert session.analyzer.dump_state() == want
    return table is not None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(prog=kernels())
def test_generated_kernels_match_the_oracle(prog):
    check_oracle(prog)


@pytest.mark.parametrize("name", workload_names())
def test_registry_workload_matches_the_oracle(name):
    assert check_oracle(build_workload(name, **SMALLER[name]))


def _small_layout():
    lay = MemoryLayout()
    a = lay.array("A", 40)
    ix = lay.index_array("IX", 8)
    ix.values[:] = [3, 1, 4, 1, 5, 9, 2, 6]
    return lay, a, ix


def test_loop_carried_scalar_matches_the_oracle():
    # s is read before it is assigned in the same iteration
    lay, a, ix = _small_layout()
    i = Var("i")
    prog = program("carried", lay, [routine("main", loop(
        "i", 1, 4, stmt(load(a, Var("s"))), assign("s", idx(ix, i))))],
        params={"s": 1})
    assert not check_oracle(prog)


def test_escaping_scalar_matches_the_oracle():
    # s keeps the last iteration's value after the loop
    lay, a, ix = _small_layout()
    prog = program("escaping", lay, [routine(
        "main", loop("j", 1, 3, loop("i", 1, 4,
                                     assign("s", idx(ix, Var("i")))),
                     stmt(load(a, Var("s")), load(a, Var("j")))))],
        params={"s": 1})
    assert not check_oracle(prog)


def test_oracle_reads_distances_sources_and_carriers():
    # A(1) A(2) A(1) under one loop: one reuse at distance 1, sourced
    # and carried by the loop's scope
    lay, a, _ix = _small_layout()
    prog = program("tiny", lay, [routine("main", loop(
        "i", 1, 1, stmt(load(a, 1), load(a, 9), load(a, 1))))])
    rec = TraceRecorder()
    Executor(prog, rec).run()
    state = oracle_state(rec.events, {"word": 8})
    (gran,) = state["grans"]
    assert state["clock"] == 3 and gran["blocks"] == 2
    ((key, bins),) = gran["raw"].items()
    rid = rec.accesses()[2][1]
    loop_sid = rec.events[1][1]
    assert key == (rid, loop_sid, loop_sid) and bins == {1: 1}
    assert sum(gran["cold"].values()) == 2
