"""Distance engines (Fenwick, treap, numpy) against the LRU-stack oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fenwick import FenwickEngine
from repro.core.npengine import (
    NumpyFenwickEngine, _count_smaller_left, _row_order,
)
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
    """The numpy flush's bit-parallel count-smaller kernel against brute
    force (up to a few thousand elements) and an independent pure-Python
    Fenwick oracle (above).  Row widths switch at n = 4096/4097 (64 ->
    128), 32768/32769 (-> 256) and 262144/262145 (-> 512)."""

    @staticmethod
    def _brute(ranks, queries):
        return np.array([int((ranks[:i] < ranks[i]).sum()) for i in queries],
                        dtype=np.int64)

    @staticmethod
    def _fenwick(ranks, queries):
        n = len(ranks)
        tree = [0] * (n + 1)
        smaller = []
        for r in ranks.tolist():
            count, i = 0, r
            while i > 0:
                count += tree[i]
                i -= i & -i
            smaller.append(count)
            i = r + 1
            while i <= n:
                tree[i] += 1
                i += i & -i
        return [smaller[i] for i in queries.tolist()]

    @staticmethod
    def _permutation(kind, n, rng):
        ranks = np.arange(n, dtype=np.int64)
        if kind == "random":
            return rng.permutation(n).astype(np.int64)
        if kind == "reversed":
            return ranks[::-1].copy()
        if kind == "block-reversed":
            # ascending runs of 100, the runs in descending order
            starts = range((n - 1) // 100 * 100, -1, -100)
            return np.concatenate([ranks[s:s + 100] for s in starts])
        assert kind == "identity"
        return ranks

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 129, 255, 256, 257,
                                   511, 512, 513, 1000, 1025, 4095, 4096,
                                   4097])
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

    @pytest.mark.parametrize("n", [2, 64, 257, 1025, 4097])
    @pytest.mark.parametrize("kind", ["identity", "reversed",
                                      "block-reversed"])
    def test_structured_permutations_brute_force(self, kind, n):
        ranks = self._permutation(kind, n, None)
        qpos = np.arange(n, dtype=np.int64)
        got = _count_smaller_left(ranks, qpos)
        assert got.tolist() == self._brute(ranks, qpos).tolist()

    @pytest.mark.parametrize("n", [16385, 32768, 32769, 70001])
    @pytest.mark.parametrize("kind", ["random", "identity", "reversed",
                                      "block-reversed"])
    def test_matches_fenwick_oracle(self, kind, n):
        rng = np.random.default_rng(n)
        ranks = self._permutation(kind, n, rng)
        qpos = np.sort(rng.choice(n, size=n // 3, replace=False))
        assert _count_smaller_left(ranks, qpos).tolist() == \
            self._fenwick(ranks, qpos)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [262145, 1 << 20])
    def test_stress_matches_fenwick_oracle(self, n):
        rng = np.random.default_rng(n)
        ranks = rng.permutation(n).astype(np.int64)
        qpos = np.arange(n, dtype=np.int64)
        assert _count_smaller_left(ranks, qpos).tolist() == \
            self._fenwick(ranks, qpos)

    @pytest.mark.parametrize("nrows", [(1 << 15) + 3, 1 << 16,
                                       (1 << 16) + 1, 100_000])
    def test_row_order_keeps_wide_row_ids(self, nrows):
        """Row ids at or above 2**15 must not wrap in the narrowed radix
        keys, and ids past uint16 must take the wide path."""
        rng = np.random.default_rng(nrows)
        rows = rng.integers(nrows - 300, nrows, size=5000)
        rows[::7] = rng.integers(0, 300, size=rows[::7].size)
        assert _row_order(rows, nrows).tolist() == \
            np.argsort(rows, kind="stable").tolist()
