"""Distance engines (Fenwick, treap, numpy) against the LRU-stack oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fenwick import FenwickEngine
from repro.core.npengine import NumpyFenwickEngine, _count_smaller_left
from repro.core.treap import TreapEngine

from tests.helpers import NaiveReuseDistance


def _drive(engine, addresses):
    """Feed an address stream through an engine; return distances."""
    table = {}
    clock = 0
    out = []
    for addr in addresses:
        clock += 1
        prev = table.get(addr)
        if prev is None:
            engine.first(clock)
            out.append(None)
        else:
            out.append(engine.reuse(prev, clock))
        table[addr] = clock
    return out


def _naive(addresses):
    oracle = NaiveReuseDistance()
    return [oracle.access(a) for a in addresses]


ENGINES = [FenwickEngine, TreapEngine, NumpyFenwickEngine]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestEnginesBasic:
    def test_repeat_same_block(self, engine_cls):
        assert _drive(engine_cls(), [1, 1, 1]) == [None, 0, 0]

    def test_two_blocks_alternating(self, engine_cls):
        assert _drive(engine_cls(), [1, 2, 1, 2]) == [None, None, 1, 1]

    def test_classic_stack_example(self, engine_cls):
        # a b c b a: distance(b)=1, distance(a)=2
        assert _drive(engine_cls(), [1, 2, 3, 2, 1]) == [
            None, None, None, 1, 2]

    def test_streaming_never_reuses(self, engine_cls):
        assert _drive(engine_cls(), list(range(50))) == [None] * 50

    def test_active_block_count(self, engine_cls):
        engine = engine_cls()
        _drive(engine, [1, 2, 3, 1, 2])
        assert engine.active_blocks == 3


class TestFenwickGrowth:
    def test_growth_preserves_marks(self):
        engine = FenwickEngine(initial_capacity=8)
        # Push the clock far beyond the initial capacity.
        stream = [k % 5 for k in range(100)]
        assert _drive(engine, stream) == _naive(stream)

    def test_ensure_idempotent(self):
        engine = FenwickEngine(initial_capacity=8)
        engine.first(1)
        engine.ensure(1000)
        engine.ensure(1000)
        assert engine.reuse(1, 999) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30),
                min_size=1, max_size=120))
def test_fenwick_matches_naive(stream):
    assert _drive(FenwickEngine(initial_capacity=16), stream) == _naive(stream)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30),
                min_size=1, max_size=120))
def test_treap_matches_naive(stream):
    assert _drive(TreapEngine(), stream) == _naive(stream)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30),
                min_size=1, max_size=120))
def test_numpy_fenwick_matches_naive(stream):
    # Tiny capacity so the ndarray tree grows several times mid-stream.
    assert (_drive(NumpyFenwickEngine(initial_capacity=8), stream)
            == _naive(stream))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200),
                min_size=1, max_size=300))
def test_engines_agree(stream):
    reference = _drive(FenwickEngine(initial_capacity=4), stream)
    assert _drive(TreapEngine(), stream) == reference
    assert _drive(NumpyFenwickEngine(initial_capacity=4), stream) == reference


class TestNumpyFenwickGrowth:
    def test_growth_preserves_marks(self):
        engine = NumpyFenwickEngine(initial_capacity=8)
        stream = [k % 5 for k in range(100)]
        assert _drive(engine, stream) == _naive(stream)

    def test_ensure_idempotent(self):
        engine = NumpyFenwickEngine(initial_capacity=8)
        engine.first(1)
        engine.ensure(1000)
        engine.ensure(1000)
        assert engine.reuse(1, 999) == 0

    def test_midstream_ensure_matches_fenwick(self):
        # Pre-grow far past the clock in the middle of a stream: the bulk
        # and scalar trees must agree on every later distance.
        streams = ([3, 1, 4, 1, 5], [9, 2, 6, 5, 3, 5, 8, 9, 7, 9])
        np_eng = NumpyFenwickEngine(initial_capacity=8)
        fw_eng = FenwickEngine(initial_capacity=8)
        table = {}
        clock = 0
        for part in streams:
            for addr in part:
                clock += 1
                prev = table.get(addr)
                if prev is None:
                    np_eng.first(clock)
                    fw_eng.first(clock)
                else:
                    assert (np_eng.reuse(prev, clock)
                            == fw_eng.reuse(prev, clock))
                table[addr] = clock
            np_eng.ensure(clock + 500)
            fw_eng.ensure(clock + 500)
        assert np_eng.active_blocks == fw_eng.active_blocks

    def test_bulk_ops_match_scalar(self):
        engine = NumpyFenwickEngine(initial_capacity=8)
        for t in range(1, 40):
            engine.first(t)
        times = np.arange(1, 40, 3, dtype=np.int64)
        engine.bulk_add(times, -1)
        scalar = NumpyFenwickEngine(initial_capacity=8)
        for t in range(1, 40):
            scalar.first(t)
        for t in times:
            scalar._add(int(t), -1)
        queries = np.arange(1, 40, dtype=np.int64)
        expected = [scalar._prefix(int(t)) for t in queries]
        assert engine.bulk_prefix(queries).tolist() == expected


class TestTreapStructure:
    def test_keys_sorted_after_churn(self):
        engine = TreapEngine()
        _drive(engine, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
        keys = engine.keys()
        assert keys == sorted(keys)

    def test_delete_missing_raises(self):
        engine = TreapEngine()
        engine.first(5)
        with pytest.raises(KeyError):
            engine._delete(7)


class TestCountSmallerLeft:
    """The numpy flush's blocked count-smaller kernel against brute force."""

    @staticmethod
    def _brute(ranks, queries):
        return np.array([int((ranks[:i] < ranks[i]).sum()) for i in queries],
                        dtype=np.int64)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 129, 1000, 4097])
    @pytest.mark.parametrize("queries", ["empty", "all", "half"])
    def test_matches_brute_force(self, n, queries):
        rng = np.random.default_rng(n)
        ranks = rng.permutation(n).astype(np.int64)
        if queries == "empty":
            qpos = np.zeros(0, dtype=np.int64)
        elif queries == "all":
            qpos = np.arange(n, dtype=np.int64)
        else:
            qpos = np.sort(rng.choice(n, size=n // 2, replace=False))
        got = _count_smaller_left(ranks, qpos)
        assert got.dtype == np.int64
        assert got.tolist() == self._brute(ranks, qpos).tolist()
