"""On-disk analysis cache: content addressing and session integration."""

import os
import pickle

import pytest

from repro.apps.kernels import fig1_interchange, stream_triad
from repro.model import MachineConfig
from repro.tools import AnalysisCache, AnalysisSession, program_fingerprint

CFG = MachineConfig.scaled_itanium2()


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert (program_fingerprint(fig1_interchange(8, 8))
                == program_fingerprint(fig1_interchange(8, 8)))

    def test_sensitive_to_shape(self):
        assert (program_fingerprint(fig1_interchange(8, 8))
                != program_fingerprint(fig1_interchange(8, 12)))

    def test_sensitive_to_program(self):
        assert (program_fingerprint(fig1_interchange(8, 8))
                != program_fingerprint(stream_triad(8, 1)))


class TestAnalysisCache:
    def test_roundtrip(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        key = cache.key_for(fig1_interchange(8, 8), {}, CFG, "sa", "fenwick")
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"hello": [1, 2, 3]})
        assert key in cache
        assert cache.get(key) == {"hello": [1, 2, 3]}
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_key_sensitivity(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        prog = fig1_interchange(8, 8)
        base = cache.key_for(prog, {}, CFG, "sa", "fenwick")
        assert cache.key_for(prog, {"n": 9}, CFG, "sa", "fenwick") != base
        assert cache.key_for(prog, {}, CFG, "fa", "fenwick") != base
        assert cache.key_for(prog, {}, CFG, "sa", "treap") != base
        assert cache.key_for(prog, {}, MachineConfig.itanium2(),
                             "sa", "fenwick") != base
        assert cache.key_for(fig1_interchange(8, 12), {}, CFG,
                             "sa", "fenwick") != base
        # and it is deterministic
        assert cache.key_for(fig1_interchange(8, 8), {}, CFG,
                             "sa", "fenwick") == base

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, {"ok": True})
        with open(cache._path(key), "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(key) is None

    def test_truncated_entry_counts_corrupt_and_warns(self, tmp_path,
                                                      caplog, obs_on):
        cache = AnalysisCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, {"payload": list(range(1000))})
        path = cache._path(key)
        with open(path, "rb") as fh:
            whole = fh.read()
        with open(path, "wb") as fh:
            fh.write(whole[: len(whole) // 2])
        with caplog.at_level("WARNING", logger="repro.tools.cache"):
            assert cache.get(key) is None  # degrades to a miss
        assert cache.corrupt == 1
        assert cache.misses == 1
        assert obs_on.counter("cache.corrupt").value == 1
        assert obs_on.counter("cache.misses").value == 1
        assert any("corrupt cache entry" in r.message
                   for r in caplog.records)
        # the next put repairs the slot
        cache.put(key, {"ok": 1})
        assert cache.get(key) == {"ok": 1}
        assert cache.hits == 1

    def test_plain_miss_is_not_corrupt(self, tmp_path, obs_on):
        cache = AnalysisCache(str(tmp_path))
        assert cache.get("ab" + "0" * 62) is None
        assert cache.corrupt == 0
        assert obs_on.counter("cache.corrupt").value == 0
        assert obs_on.counter("cache.misses").value == 1

    def test_clear_counts_evictions(self, tmp_path, obs_on):
        cache = AnalysisCache(str(tmp_path))
        cache.put("ab" + "0" * 62, 1)
        cache.put("cd" + "0" * 62, 2)
        assert cache.clear() == 2
        assert obs_on.counter("cache.evictions").value == 2

    def test_clear(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        cache.put("ab" + "0" * 62, 1)
        cache.put("cd" + "0" * 62, 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert AnalysisCache().root == str(tmp_path / "envcache")

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        cache.put("ef" + "0" * 62, list(range(100)))
        leftovers = [f for _, _, files in os.walk(str(tmp_path))
                     for f in files if f.startswith(".tmp-")]
        assert leftovers == []


class TestBlobStore:
    def test_put_get_round_trip(self, tmp_path):
        import hashlib
        cache = AnalysisCache(str(tmp_path))
        data = b"shard partial bytes"
        digest = hashlib.sha256(data).hexdigest()
        assert not cache.has_blob(digest)
        cache.put_blob(digest, data)
        assert cache.has_blob(digest)
        assert cache.get_blob(digest) == data
        # idempotent: a second put is a no-op
        cache.put_blob(digest, data)
        assert cache.get_blob(digest) == data

    def test_corrupt_blob_is_a_miss(self, tmp_path, obs_on):
        import hashlib
        cache = AnalysisCache(str(tmp_path))
        data = b"payload"
        digest = hashlib.sha256(data).hexdigest()
        cache.put_blob(digest, data)
        with open(cache._blob_path(digest), "wb") as fh:
            fh.write(b"tampered")
        assert cache.get_blob(digest) is None
        assert cache.corrupt == 1

    def test_missing_blob_is_a_miss(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        assert cache.get_blob("0" * 64) is None


class TestQuarantine:
    def test_corrupt_entry_moved_to_quarantine(self, tmp_path, obs_on):
        cache = AnalysisCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, {"ok": True})
        with open(cache._path(key), "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(key) is None
        assert not os.path.exists(cache._path(key))
        qpath = os.path.join(str(tmp_path), AnalysisCache.QUARANTINE_DIR,
                             key + ".pkl")
        assert os.path.exists(qpath)
        assert cache.quarantined == 1
        assert obs_on.counter("cache.quarantined").value == 1
        assert "quarantined=1" in repr(cache)

    def test_quarantined_entries_invisible_to_lookups(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, 1)
        with open(cache._path(key), "wb") as fh:
            fh.write(b"junk")
        cache.get(key)
        assert len(cache) == 0
        assert key not in cache
        # the slot is writable again after quarantine
        cache.put(key, 2)
        assert cache.get(key) == 2

    def test_fsync_mode_round_trips(self, tmp_path):
        cache = AnalysisCache(str(tmp_path), fsync=True)
        key = "ab" + "0" * 62
        cache.put(key, {"durable": [1, 2]})
        assert cache.get(key) == {"durable": [1, 2]}


class TestSessionIntegration:
    def test_second_session_restored_from_cache(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        s1 = AnalysisSession(fig1_interchange(12, 12), cache=cache)
        s1.run()
        assert not s1.from_cache
        s2 = AnalysisSession(fig1_interchange(12, 12), cache=cache)
        s2.run()
        assert s2.from_cache
        assert s2.totals() == s1.totals()
        assert s2.analyzer.dump_state() == s1.analyzer.dump_state()
        assert vars(s2.stats) == vars(s1.stats)
        # downstream reports keep working on the restored state
        assert s2.render_carried(n=3)

    def test_param_change_misses(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        AnalysisSession(stream_triad(64, 1), cache=cache).run()
        s2 = AnalysisSession(stream_triad(64, 1), cache=cache)
        s2.run(timesteps=2)
        assert not s2.from_cache

    def test_simulate_bypasses_cache(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        AnalysisSession(fig1_interchange(8, 8), cache=cache,
                        simulate=True).run()
        s2 = AnalysisSession(fig1_interchange(8, 8), cache=cache,
                            simulate=True)
        s2.run()
        assert not s2.from_cache
        assert s2.sim.totals()  # the simulator actually ran

    def test_scalar_executor_opt_out(self, tmp_path):
        s1 = AnalysisSession(fig1_interchange(8, 8), batch=False)
        s1.run()
        s2 = AnalysisSession(fig1_interchange(8, 8), batch=True)
        s2.run()
        assert s1.analyzer.dump_state() == s2.analyzer.dump_state()

    def test_cached_payload_is_plain_pickle(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        session = AnalysisSession(fig1_interchange(8, 8), cache=cache)
        session.run()
        files = [os.path.join(dp, f) for dp, _, fs in os.walk(str(tmp_path))
                 for f in fs if f.endswith(".pkl")]
        assert len(files) == 1
        with open(files[0], "rb") as fh:
            payload = pickle.load(fh)
        assert payload["analyzer_state"] == session.analyzer.dump_state()
