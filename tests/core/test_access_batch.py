"""Equivalence of chunked delivery against the scalar ``access`` path.

The batched pipeline's contract is exact: for any chunking of any access
stream — flat or row-periodic, through the generic per-element
``access_batch`` loop or recorded and fed to the numpy engine's windows
— the resulting pattern databases, cold counts, footprints, and clock
must be byte-identical to feeding the same stream one access at a time.
"""

import random

import pytest

from repro.core import ReuseAnalyzer
from repro.core.npengine import FLUSH_ACCESSES
from tests.helpers import fed_analyzer, record_ops

GRANS_ONE = {"line": 64}
GRANS_TWO = {"line": 64, "page": 512}


def _random_trace(seed, n_chunks=30, periodic=False):
    """Scope events interleaved with access chunks.

    Returns a list of ("scope", [(sid, enter?)...]) and
    ("chunk", rids, addrs, stores, period) entries.  Addresses live in a
    small block universe so reuses, duplicate blocks inside one row, and
    steady-state repeated rows (runs) all occur; chunk boundaries land
    mid-run so runs cross access_batch calls.
    """
    rng = random.Random(seed)
    events = []
    depth = 0
    sid = 0
    for _ in range(n_chunks):
        scope_ops = []
        for _ in range(rng.randrange(3)):
            if depth and rng.random() < 0.5:
                scope_ops.append((sid, False))
                depth -= 1
            else:
                sid += 1
                scope_ops.append((sid, True))
                depth += 1
        if scope_ops:
            events.append(("scope", scope_ops))
        if periodic:
            k = rng.choice((1, 2, 3, 4))
            rows = rng.randrange(1, 12)
            rids = [rng.randrange(6) for _ in range(k)]
            stores = [rng.random() < 0.3 for _ in range(k)]
            # A handful of base rows; repeating one produces runs.  Small
            # strides make several positions alias to one block (duplicate
            # blocks within a row), zero strides repeat blocks exactly.
            base = [rng.randrange(0, 4096, 8) for _ in range(k)]
            stride = [rng.choice((0, 8, 8, 64, 512)) for _ in range(k)]
            addrs = []
            row_i = 0
            while len(addrs) < rows * k:
                repeatrow = rng.randrange(1, 6)
                for _ in range(repeatrow):
                    if len(addrs) >= rows * k:
                        break
                    addrs.extend(base[p] + row_i * stride[p]
                                 for p in range(k))
                row_i += 1
            events.append(("chunk", rids * rows, addrs,
                           stores * rows, k))
        else:
            m = rng.randrange(1, 40)
            rids = [rng.randrange(6) for _ in range(m)]
            addrs = [rng.randrange(0, 4096, 8) for _ in range(m)]
            stores = [rng.random() < 0.3 for _ in range(m)]
            events.append(("chunk", rids, addrs, stores, 0))
    while depth:
        events.append(("scope", [(0, False)]))
        depth -= 1
    return events


def _feed_scalar(analyzer, events):
    for kind, *payload in events:
        if kind == "scope":
            for sid, enter in payload[0]:
                if enter:
                    analyzer.enter_scope(sid)
                else:
                    analyzer.exit_scope(sid)
        else:
            rids, addrs, stores, _period = payload
            for i, rid in enumerate(rids):
                analyzer.access(rid, addrs[i], stores[i])


def _batched_ops(events, split=False):
    """``events`` as ``tests.helpers.record_ops`` op tuples, one
    ``batch`` op per chunk; ``split`` delivers row chunks in two
    row-aligned ops, so runs cross the seam."""
    rng = random.Random(99)
    ops = []
    for kind, *payload in events:
        if kind == "scope":
            ops += [("enter" if enter else "exit", sid)
                    for sid, enter in payload[0]]
            continue
        rids, addrs, stores, period = payload
        if split and len(rids) > period > 0:
            cut = period * rng.randrange(1, len(rids) // period + 1)
            ops.append(("batch", rids[:cut], addrs[:cut], stores[:cut],
                        period))
            ops.append(("batch", rids[cut:], addrs[cut:], stores[cut:],
                        period))
        else:
            ops.append(("batch", rids, addrs, stores, period))
    return ops


def _batched(engine, grans, ops, table="flat", threshold=FLUSH_ACCESSES):
    """An analyzer after ``ops``: handed to a per-access engine's
    ``enter_scope``/``exit_scope``/``access_batch``, or recorded and fed
    to the numpy engine's windows at ``threshold``."""
    if engine == "numpy":
        return fed_analyzer(record_ops(ops), grans, threshold, table=table)
    analyzer = ReuseAnalyzer(dict(grans), engine=engine, table=table)
    for op in ops:
        if op[0] == "enter":
            analyzer.enter_scope(op[1])
        elif op[0] == "exit":
            analyzer.exit_scope(op[1])
        else:
            analyzer.access_batch(*op[1:])
    return analyzer


@pytest.mark.parametrize("grans", [GRANS_ONE, GRANS_TWO],
                         ids=["1gran", "2grans"])
@pytest.mark.parametrize("engine,table", [
    ("fenwick", "flat"),          # generic batch loop, inlined access
    ("fenwick", "hierarchical"),  # generic batch loop
    ("treap", "flat"),            # generic batch loop
    ("numpy", "flat"),            # recorded, fed to the numpy windows
    ("numpy", "hierarchical"),    # the same, 3-level table
], ids=["fenwick-flat", "fenwick-hier", "treap-flat", "numpy-flat",
        "numpy-hier"])
@pytest.mark.parametrize("periodic", [False, True],
                         ids=["flat-chunks", "row-chunks"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_equals_scalar(grans, engine, table, periodic, seed):
    # the numpy engine takes windows, not events: its scalar side is the
    # per-access fenwick reference
    events = _random_trace(seed, periodic=periodic)
    scalar = ReuseAnalyzer(dict(grans),
                           engine="fenwick" if engine == "numpy" else engine,
                           table=table)
    _feed_scalar(scalar, events)
    batched = _batched(engine, grans, _batched_ops(events, split=periodic),
                       table=table)
    assert batched.clock == scalar.clock
    assert batched.dump_state() == scalar.dump_state()


@pytest.mark.parametrize("flush_threshold", [7, 64, None],
                         ids=["flush7", "flush64", "flush-default"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_three_way_engine_equivalence(seed, flush_threshold):
    """fenwick, treap, and numpy produce byte-identical pattern databases.

    The numpy analyzer is additionally fed at a tiny window threshold so
    windows end mid-run and mid-scope, at every op boundary — every seam
    the array engine's cross-window distance logic has to stitch.
    """
    ops = _batched_ops(_random_trace(seed, periodic=bool(seed % 2)),
                       split=True)
    threshold = flush_threshold or FLUSH_ACCESSES
    dumps = {engine: _batched(engine, GRANS_TWO, ops,
                              threshold=threshold).dump_state()
             for engine in ("fenwick", "treap", "numpy")}
    assert dumps["treap"] == dumps["fenwick"]
    assert dumps["numpy"] == dumps["fenwick"]


@pytest.mark.parametrize("chunk", [1, 3, 17, 1000])
def test_numpy_chunk_boundaries_are_invisible(chunk):
    """One stream, many chunkings: identical databases regardless of where
    the recorded ops split it (including splits inside steady-state runs
    and windows that end between them)."""
    rng = random.Random(42)
    rids, addrs, stores = [], [], []
    row = [(0x4000 + 64 * b, rng.randrange(4)) for b in range(3)]
    for _ in range(40):
        if rng.random() < 0.3:   # repeated rows -> runs
            for _ in range(rng.randrange(2, 6)):
                for addr, rid in row:
                    rids.append(rid)
                    addrs.append(addr)
                    stores.append(False)
        else:
            rids.append(rng.randrange(4))
            addrs.append(rng.randrange(0, 2048, 8))
            stores.append(rng.random() < 0.5)
    expected = _batched("numpy", GRANS_TWO,
                        [("batch", rids, addrs, stores, 0)]).dump_state()
    ops = [("batch", rids[lo:lo + chunk], addrs[lo:lo + chunk],
            stores[lo:lo + chunk], 0) for lo in range(0, len(rids), chunk)]
    # windows of 29 accesses or more: many of them, cut between ops
    analyzer = _batched("numpy", GRANS_TWO, ops, threshold=29)
    assert analyzer.dump_state() == expected


#: The two batched implementations: the generic per-element
#: ``access_batch`` loop (the default analyzer, fenwick) and the numpy
#: engine's windows, fed a recording of the same ops, which use the
#: period for run compression.  Each case below runs on both.
BATCH_ENGINES = ("fenwick", "numpy")


def test_period_zero_disables_row_mode():
    # Same stream once with the row hint, once without: identical results.
    events = _random_trace(7, periodic=True)
    unhinted_events = [
        (kind, *payload[:-1], 0) if kind == "chunk" else (kind, *payload)
        for kind, *payload in events]
    for engine in BATCH_ENGINES:
        hinted = _batched(engine, GRANS_TWO, _batched_ops(events))
        unhinted = _batched(engine, GRANS_TWO,
                            _batched_ops(unhinted_events))
        assert hinted.dump_state() == unhinted.dump_state(), engine


def test_reuse_predating_batch():
    # t_prev earlier than every scope entry on the stack: the carry
    # search falls back to the outermost scope.
    addr = 0x1000
    scalar = ReuseAnalyzer(dict(GRANS_ONE))
    scalar.access(0, addr, False)        # touch before any scope exists
    scalar.enter_scope(1)
    scalar.enter_scope(2)
    scalar.access(0, addr, False)
    scalar.access(0, addr + 8, False)
    ops = [("batch", [0], [addr], [False], 0), ("enter", 1), ("enter", 2),
           ("batch", [0, 0], [addr, addr + 8], [False, False], 0)]
    for engine in BATCH_ENGINES:
        analyzer = _batched(engine, GRANS_ONE, ops)
        assert analyzer.dump_state() == scalar.dump_state(), engine


def test_empty_batch_is_noop():
    for engine in BATCH_ENGINES:
        analyzer = _batched(engine, GRANS_TWO, [("batch", [], [], [], 4)])
        assert analyzer.clock == 0
        assert analyzer.dump_state()["grans"][0]["raw"] == {}


def test_long_run_multiplication_exact():
    # One row repeated many times: bins must accumulate the run length
    # exactly and the footprint/clock must advance as if walked per
    # access (the numpy window compresses the run into two rows).
    k, reps = 3, 50
    addrs_row = [0x2000, 0x2008, 0x2040]   # two lines, duplicate block
    rids_row = [1, 2, 3]
    scalar = ReuseAnalyzer(dict(GRANS_TWO))
    scalar.enter_scope(5)
    for _ in range(reps):
        for rid, addr in zip(rids_row, addrs_row):
            scalar.access(rid, addr, False)
    ops = [("enter", 5), ("batch", rids_row * reps, addrs_row * reps,
                          [False] * (k * reps), k)]
    for engine in BATCH_ENGINES:
        batched = _batched(engine, GRANS_TWO, ops)
        assert batched.dump_state() == scalar.dump_state(), engine
        assert batched.clock == k * reps
