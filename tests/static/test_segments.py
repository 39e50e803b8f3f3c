"""Differential check of the numpy window's enumerated feed.

The default dynamic path builds the numpy engine's input from the static
enumeration (:mod:`repro.static.segments`) instead of a
``BatchExecutor`` walk.  For generated kernels and every registry
workload, wherever the enumeration accepts the program:

* the ``(rid, addr)`` stream materialised from the segment table equals
  a ``BatchExecutor`` recording element by element;
* the enumeration's ``RunStats`` equal the executor's field by field;
* the table-fed numpy state pickles to the same bytes as the
  ``BatchExecutor``-fed one, at the default flush threshold and at 7
  (a window every few segments), and as the scalar fenwick reference.

Where it rejects the program, the session walks it with
``BatchExecutor`` instead, quietly and with the same state.
"""

import pickle

import pytest
from hypothesis import given, settings

from repro.apps.registry import build_workload, workload_names
from repro.core.analyzer import ReuseAnalyzer
from repro.core.shard import (
    merge_shard_results, record_trace, run_shards, split_trace,
)
from repro.lang import (
    MemoryLayout, Var, assign, idx, load, loop, program, routine, stmt,
    store,
)
from repro.lang.ast import FloorDiv, Max, Mod
from repro.lang.batch import BatchExecutor
from repro.lang.executor import Executor
from repro.model.config import MachineConfig
from repro.static import itermodel, segments
from repro.static.itermodel import StaticUnsupported
from repro.static.segments import build_segments
from repro.tools.session import AnalysisSession
from tests.helpers import SMALLER, kernels

GRANS = MachineConfig.scaled_itanium2().granularities()
STAT_FIELDS = ("accesses", "loads", "stores", "ops", "loop_entries",
               "loop_iters", "scope_insts")


class _Recorder:
    def __init__(self):
        self.rids = []
        self.addrs = []

    def enter_scope(self, sid):
        pass

    def exit_scope(self, sid):
        pass

    def access(self, rid, addr, is_store):
        self.rids.append(rid)
        self.addrs.append(addr)

    def access_batch(self, rids, addrs, stores, period=0):
        self.rids.extend(rids)
        self.addrs.extend(addrs)


def _stats(stats):
    return {name: getattr(stats, name) for name in STAT_FIELDS}


def _walked_state(prog, threshold=None):
    analyzer = ReuseAnalyzer(GRANS, engine="numpy")
    if threshold is not None:
        analyzer._np_state.flush_threshold = threshold
    BatchExecutor(prog, analyzer).run()
    return pickle.dumps(analyzer.dump_state())


def _fed_state(table, threshold=None):
    analyzer = ReuseAnalyzer(GRANS, engine="numpy")
    if threshold is not None:
        analyzer._np_state.flush_threshold = threshold
    analyzer._np_state.feed(table)
    assert analyzer.clock == table.stats.accesses
    return pickle.dumps(analyzer.dump_state())


def check_feed(prog, thresholds=(None, 7), reference=True):
    """Run every check on ``prog``; returns whether it was enumerated."""
    rec = _Recorder()
    walked = BatchExecutor(prog, rec).run()
    try:
        table = build_segments(prog)
    except StaticUnsupported:
        session = AnalysisSession(prog).run()
        assert session.executor_ran == "batch"
        assert session.fallback is None
        assert pickle.dumps(session.analyzer.dump_state()) == \
            _walked_state(prog)
        return False
    rids, addrs = table.stream()
    assert rids.tolist() == rec.rids
    assert addrs.tolist() == rec.addrs
    assert _stats(table.stats) == _stats(walked)
    for threshold in thresholds:
        if threshold is not None and len(rec.rids) > 50 * threshold ** 3:
            continue  # thousands of windows: the default one suffices
        assert _fed_state(table, threshold) == \
            _walked_state(prog, threshold), threshold
    if reference:
        scalar = ReuseAnalyzer(GRANS, engine="fenwick")
        Executor(prog, scalar).run()
        assert pickle.dumps(scalar.dump_state()) == _fed_state(table)
    return True


# ---------------------------------------------------------------------------
# Generated kernels
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(prog=kernels())
def test_generated_kernels(prog):
    check_feed(prog)


# ---------------------------------------------------------------------------
# Regressions: programs the enumeration used to get wrong
# ---------------------------------------------------------------------------

def _small_layout():
    lay = MemoryLayout()
    a = lay.array("A", 40)
    ix = lay.index_array("IX", 8)
    ix.values[:] = [3, 1, 4, 1, 5, 9, 2, 6]
    return lay, a, ix


def test_loop_carried_scalar_is_rejected():
    # s is read before it is assigned in the same iteration: iteration i
    # reads iteration i-1's value, which a vectorised walk cannot see
    lay, a, ix = _small_layout()
    i = Var("i")
    prog = program("carried", lay, [routine("main", loop(
        "i", 1, 4, stmt(load(a, Var("s"))), assign("s", idx(ix, i))))],
        params={"s": 1})
    with pytest.raises(StaticUnsupported):
        itermodel.enumerate_program(prog)
    assert not check_feed(prog)


def test_scalar_escaping_its_loop_is_rejected():
    # s keeps the last iteration's value after the loop
    lay, a, ix = _small_layout()
    prog = program("escaping", lay, [routine(
        "main", loop("i", 1, 4, assign("s", idx(ix, Var("i")))),
        stmt(load(a, Var("s"))))], params={"s": 1})
    with pytest.raises(StaticUnsupported):
        itermodel.enumerate_program(prog)
    assert not check_feed(prog)


def test_scalar_assigned_before_use_is_enumerated():
    lay, a, ix = _small_layout()
    i = Var("i")
    prog = program("local", lay, [routine("main", loop(
        "i", 1, 4, assign("s", idx(ix, i)), stmt(load(a, Var("s")))),
        loop("i", 1, 2, assign("s", i + 3), stmt(store(a, Var("s")))))],
        params={"s": 1})
    assert check_feed(prog)


def test_empty_loop_body_counts_no_statements():
    # the executor bumps scope_insts per statement run; a loop with an
    # empty body runs none, so its scope gets no entry
    lay, a, _ix = _small_layout()
    prog = program("empty", lay, [routine("main", loop(
        "i", 1, 3, loop("j", 1, 2), stmt(load(a, Var("i")))))])
    assert check_feed(prog)


def test_segment_opening_mid_iteration_gets_no_period():
    # the inner loop runs only at i = 1, so from B's first run on the
    # outer loop's statements alternate B, A, B, A ... in one segment
    # that opens mid-iteration.  Rows of one access would all touch the
    # same block and compress, crediting A's reuses to B: the segment
    # must get period 0
    lay, a, _ix = _small_layout()
    i = Var("i")
    prog = program("midrow", lay, [routine("main", loop(
        "i", 1, 6, stmt(load(a, 1)),
        loop("j", 1, Max(2 - i, 0), stmt(load(a, 9))),
        stmt(store(a, 1))))])
    assert check_feed(prog)


def test_nonaffine_subscript_that_passes_a_three_point_probe():
    # 2*(i//4)*2 + i%2 matches a line at i = 0, 1 and 5 but not at 2:
    # the nest must be enumerated, not taken as affine
    lay, a, _ix = _small_layout()
    i = Var("i")
    prog = program("probe", lay, [routine("main", loop(
        "i", 0, 5, stmt(load(a, FloorDiv(i, 4) * 4 + Mod(i, 2)))))])
    assert check_feed(prog)


def _nested_layout():
    lay = MemoryLayout()
    a = lay.array("A", 40)
    b = lay.index_array("B", 8)
    b.values[:] = [7, 2, 9, 4, 1, 8, 3, 6]
    ix = lay.index_array("IX", 8)
    ix.values[:] = [3, 1, 4, 1, 5, 8, 2, 6]
    return lay, a, b, ix


def _check_nested(prog, refs_per_iter):
    # every load is one reference, emitted once per iteration: the inner
    # IX(i) is not emitted again for the load whose subscript holds it
    assert len(prog.refs) == refs_per_iter
    assert Executor(prog, _Recorder()).run().accesses == 8 * refs_per_iter
    assert check_feed(prog)
    # sharded: table slices, and a recording cut between ops
    table_fed = AnalysisSession(prog, shards=3).run()
    assert table_fed.executor_ran == "enumerated"
    assert pickle.dumps(table_fed.analyzer.dump_state()) == \
        _walked_state(prog)
    trace, _stats = record_trace(prog)
    state = merge_shard_results(run_shards(split_trace(trace, 3), GRANS),
                                GRANS, trace.accesses)
    assert pickle.dumps(state) == _walked_state(prog)


def test_load_nested_in_a_statement_subscript():
    # A(IX(IX(i))) read, A(IX(i)) written
    lay, a, _b, ix = _nested_layout()
    i = Var("i")
    prog = program("nested", lay, [routine("main", loop(
        "i", 1, 8, stmt(load(a, idx(ix, idx(ix, i))),
                        store(a, idx(ix, i)))))])
    _check_nested(prog, 5)


def test_load_nested_in_a_scalar_assign():
    # s = B(IX(IX(i))); A(s) read
    lay, a, b, ix = _nested_layout()
    i = Var("i")
    prog = program("nested_assign", lay, [routine("main", loop(
        "i", 1, 8, assign("s", idx(b, idx(ix, idx(ix, i)))),
        stmt(load(a, Var("s")))))], params={"s": 1})
    _check_nested(prog, 4)


# ---------------------------------------------------------------------------
# Registry workloads and fallbacks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", workload_names())
def test_registry_workload_at_defaults(name):
    assert check_feed(build_workload(name), thresholds=(None,),
                      reference=False)


@pytest.mark.parametrize("name", workload_names())
def test_registry_workload_smaller(name):
    assert check_feed(build_workload(name, **SMALLER[name]))


@pytest.mark.parametrize("name", ["sweep3d", "gtc", "cg"])
def test_digit_keys_split_across_packs(name, monkeypatch):
    # paper kernels' digits fit one int64 key; force one level per key
    # so the multi-key sort and prefix comparisons run too
    monkeypatch.setattr(segments, "_PACK_BITS", 1)
    assert check_feed(build_workload(name, **SMALLER[name]),
                      reference=False)


def test_program_over_the_point_budget_walks(monkeypatch):
    prog = build_workload("sweep3d", **SMALLER["sweep3d"])
    clean = AnalysisSession(prog).run()
    assert clean.executor_ran == "enumerated"
    monkeypatch.setattr(segments, "STREAM_MAX_POINTS", 10)
    with pytest.raises(StaticUnsupported):
        build_segments(prog)
    over = AnalysisSession(prog).run()
    assert over.executor_ran == "batch"
    assert over.fallback is None
    assert pickle.dumps(over.analyzer.dump_state()) == \
        pickle.dumps(clean.analyzer.dump_state())


def test_simulated_session_walks():
    prog = build_workload("sweep3d", **SMALLER["sweep3d"])
    clean = AnalysisSession(prog).run()
    simulated = AnalysisSession(prog, simulate=True).run()
    assert simulated.executor_ran == "batch"
    assert simulated.sim.totals()
    assert pickle.dumps(simulated.analyzer.dump_state()) == \
        pickle.dumps(clean.analyzer.dump_state())
