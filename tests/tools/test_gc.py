"""``repro gc``: one pass over the analysis cache, trace stores and jobs.

The pass expires old terminal jobs, pins what the survivors name (their
artifact blobs, live jobs' trace stores, and everything written since
the earliest live job started), evicts the coldest unpinned cache
entries and trace stores under one budget, then removes unpinned blobs
and abandoned temp files.  Files the tests create are fresh, and fresh
files are pinned by time, so every candidate is backdated first.

The pass as a whole is tested here; what it does to one kind of state
is also tested in tests/core/test_tracegc.py (trace stores),
tests/tools/test_cache_gc.py (cache entries) and
tests/service/test_jobs_gc.py (artifact blobs).
"""

import fcntl
import hashlib
import json
import os
import time

import pytest

from repro.cli import main
from repro.core.tracestore import load_trace, record_spilled
from repro.service.jobs import JobSpec, JobStore
from repro.tools.atomicio import atomic_write_text
from repro.tools.cache import AnalysisCache
from repro.tools.gc import TMP_MAX_AGE_S, collect
from tests.helpers import (
    DAY, LONG_AGO, TINY_SPEC, backdate, blob_artifact, cache_entries,
    finish_job, removed_paths, service_state, spilled_store, tree_bytes,
    two_array_kernel,
)


class TestEviction:
    def test_stores_evicted_coldest_first(self, tmp_path):
        cold = spilled_store(tmp_path, 8, LONG_AGO)
        warm = spilled_store(tmp_path, 10, LONG_AGO + 100)
        hot = spilled_store(tmp_path, 12, LONG_AGO + 200)
        total = sum(tree_bytes(p) for p in (cold, warm, hot))
        result = collect(trace_dir=str(tmp_path),
                         max_bytes=total - tree_bytes(cold))
        assert removed_paths(result, "store") == [cold]
        assert not os.path.exists(cold)
        assert os.path.exists(warm)
        assert load_trace(hot).accesses > 0  # survivors still load

    def test_entries_evicted_coldest_first(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        keys = cache_entries(cache, 8)
        entry = os.path.getsize(cache._path(keys[0]))
        result = collect(cache_dir=str(tmp_path), max_bytes=entry * 4)
        assert removed_paths(result, "entry") \
            == [cache._path(k) for k in keys[:4]]
        assert all(cache.get(k) is None for k in keys[:4])
        assert all(cache.get(k) is not None for k in keys[4:])

    def test_entries_and_stores_share_one_budget(self, tmp_path):
        cache = AnalysisCache(str(tmp_path / "cache"))
        cold, hot = (cache._path(k) for k in cache_entries(cache, 2))
        backdate(hot, LONG_AGO + 300)
        store = spilled_store(tmp_path / "traces", 8, LONG_AGO + 200)
        sizes = [os.path.getsize(cold), tree_bytes(store)]
        result = collect(cache_dir=str(tmp_path / "cache"),
                         trace_dir=str(tmp_path / "traces"),
                         max_bytes=os.path.getsize(hot))
        assert result.removed == [("entry", cold, sizes[0]),
                                  ("store", store, sizes[1])]
        assert os.path.exists(hot)

    def test_junk_hidden_and_inflight_dirs_are_not_candidates(
            self, tmp_path):
        store = spilled_store(tmp_path, 8, LONG_AGO)
        junk = tmp_path / "not-a-store"
        junk.mkdir()
        (junk / "noise.bin").write_bytes(b"xxxx")
        (tmp_path / ".hidden").mkdir()
        inflight = tmp_path / ".rec-abc"
        inflight.mkdir()
        (inflight / "ops.i64").write_bytes(b"x" * 64)
        backdate(str(tmp_path), LONG_AGO)
        result = collect(trace_dir=str(tmp_path), max_bytes=0)
        assert result.removed == [("store", store, result.freed_bytes)]
        assert junk.exists() and inflight.exists()

    def test_quarantine_and_temp_files_are_not_candidates(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        cache_entries(cache, 2)
        qfile = os.path.join(str(tmp_path), "quarantine", "bad.pkl")
        os.makedirs(os.path.dirname(qfile))
        open(qfile, "wb").write(b"x" * 1000)
        tmp = os.path.join(str(tmp_path), "00", ".tmp-half.pkl")
        open(tmp, "wb").write(b"partial")
        backdate(qfile, LONG_AGO)
        result = collect(cache_dir=str(tmp_path), max_bytes=0)
        assert len(removed_paths(result, "entry")) == 2
        assert os.path.exists(qfile)
        assert os.path.exists(tmp)  # a live writer's temp file

    def test_writer_lock_free_after_pass(self, tmp_path):
        cache = AnalysisCache(str(tmp_path), shared=True)
        cache_entries(cache, 2)
        assert len(collect(cache_dir=str(tmp_path),
                           max_bytes=0).removed) == 2
        lock_path = os.path.join(str(tmp_path), AnalysisCache.LOCK_NAME)
        with open(lock_path, "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(fh, fcntl.LOCK_UN)

    def test_missing_dirs_are_empty_and_stay_absent(self, tmp_path):
        result = collect(cache_dir=str(tmp_path / "no-cache"),
                         trace_dir=str(tmp_path / "no-traces"),
                         max_bytes=0)
        assert result.removed == [] and result.budgeted_before == 0
        assert os.listdir(str(tmp_path)) == []

    def test_counters(self, tmp_path, obs_on):
        store = spilled_store(tmp_path, 8, LONG_AGO)
        size = tree_bytes(store)
        collect(trace_dir=str(tmp_path), max_bytes=0)
        counters = obs_on.snapshot()["counters"]
        assert counters["gc.removed"] == 1
        assert counters["gc.freed_bytes"] == size


class TestRetention:
    def test_removes_old_terminal_keeps_recent_and_live(self, tmp_path):
        state, store, _cache = service_state(tmp_path)
        old = finish_job(store, [], finished=time.time() - 10 * DAY)
        recent = finish_job(store, [])
        live = store.submit("a", TINY_SPEC)  # queued: never collected

        result = collect(state, keep_days=7.0)
        assert removed_paths(result, "job") == [store.job_dir(old.id)]
        assert not os.path.exists(store.job_dir(old.id))
        # the removal is durable: a fresh recover agrees
        fresh = JobStore(state)
        fresh.recover()
        assert sorted(fresh.jobs) == sorted([recent.id, live.id])
        assert fresh.jobs[recent.id].state == "done"
        assert fresh.jobs[live.id].state == "queued"

    def test_live_jobs_survive_regardless_of_age(self, tmp_path):
        state, store, _cache = service_state(tmp_path)
        stale = store.submit("a", TINY_SPEC)
        record = json.load(open(store.record_path(stale.id)))
        record["created"] = time.time() - 30 * DAY
        atomic_write_text(store.record_path(stale.id), json.dumps(record))
        assert collect(state, keep_days=1.0).removed == []
        assert os.path.exists(store.job_dir(stale.id))

    def test_finished_age_survives_restart(self, tmp_path):
        """The pass recovers ``finished`` from the job record, so it can
        age records no live process saw complete."""
        state, store, _cache = service_state(tmp_path)
        job = finish_job(store, [], finished=time.time() - 10 * DAY)
        fresh = JobStore(state)
        fresh.recover()
        assert fresh.jobs[job.id].finished == job.finished
        assert removed_paths(collect(state, keep_days=7.0), "job") \
            == [store.job_dir(job.id)]

    def test_dry_run_keeps_job_dirs(self, tmp_path):
        state, store, _cache = service_state(tmp_path)
        old = finish_job(store, [], finished=time.time() - 10 * DAY)
        result = collect(state, keep_days=7.0, dry_run=True)
        assert removed_paths(result, "job") == [store.job_dir(old.id)]
        assert result.freed_bytes > 0  # spec.json + job.json at least
        fresh = JobStore(state)
        fresh.recover()
        assert old.id in fresh.jobs

    def test_digest_shared_with_kept_record_stays_pinned(self, tmp_path):
        state, store, cache = service_state(tmp_path)
        shared = blob_artifact(cache, b"shared")
        only_old = blob_artifact(cache, b"only the old job")
        finish_job(store, [shared, only_old],
                   finished=time.time() - 10 * DAY)
        finish_job(store, [shared])
        result = collect(state, keep_days=7.0)
        assert removed_paths(result, "blob") == [
            cache._blob_path(only_old["digest"])]
        assert cache.has_blob(shared["digest"])

    def test_one_pass_removes_expired_job_and_its_blob(self, tmp_path):
        state, store, cache = service_state(tmp_path)
        old_art = blob_artifact(cache, b"old bytes")
        new_art = blob_artifact(cache, b"new bytes")
        old = finish_job(store, [old_art], finished=time.time() - 10 * DAY)
        finish_job(store, [new_art])
        result = collect(state, keep_days=7.0)
        assert [kind for kind, _p, _b in result.removed] == ["job", "blob"]
        assert not os.path.exists(store.job_dir(old.id))
        assert not cache.has_blob(old_art["digest"])
        assert cache.has_blob(new_art["digest"])


class TestBlobsAndTemps:
    def test_no_blob_removed_without_state_dir(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        blob = blob_artifact(cache, b"a checkpoint payload")
        assert collect(cache_dir=str(tmp_path), max_bytes=0).removed == []
        assert cache.has_blob(blob["digest"])

    def test_stale_temp_files_removed_fresh_kept(self, tmp_path):
        state, store, cache = service_state(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, 1)
        job = finish_job(store, [])
        old = [os.path.join(cache.root, "ab", ".tmp-dead"),
               os.path.join(store.job_dir(job.id), ".tmp-dead.json")]
        fresh = os.path.join(cache.root, "ab", ".tmp-live")
        for path in old + [fresh]:
            open(path, "wb").write(b"partial")
        for path in old:
            backdate(path, time.time() - TMP_MAX_AGE_S - 60)
        assert removed_paths(collect(state), "temp") == sorted(old)
        assert os.path.exists(fresh)  # a live writer's temp survives
        assert cache.get(key) == 1  # real entries untouched


class TestLiveJobPins:
    """A running job writes before any record names what it wrote."""

    def _running(self, store, spec=TINY_SPEC):
        job = store.submit("t", spec)
        store.mark_started(job.id)
        return job

    def test_running_jobs_unrecorded_blob_survives(self, tmp_path):
        state, store, cache = service_state(tmp_path)
        stray = blob_artifact(cache, b"nobody's")
        self._running(store)
        digest = hashlib.sha256(b"just published").hexdigest()
        assert cache.put_blob(digest, b"just published") is False
        result = collect(state, max_bytes=0)
        assert removed_paths(result, "blob") \
            == [cache._blob_path(stray["digest"])]
        assert cache.has_blob(digest)

    def test_dedup_hit_keeps_blob_of_expired_record(self, tmp_path):
        state, store, cache = service_state(tmp_path)
        shared = blob_artifact(cache, b"identical patterns")
        only_old = blob_artifact(cache, b"old manifest")
        old = finish_job(store, [shared, only_old],
                         finished=time.time() - 10 * DAY)
        self._running(store)
        # the running job publishes the same bytes: a dedup hit
        assert cache.put_blob(shared["digest"], b"identical patterns")
        result = collect(state, keep_days=7.0)
        assert removed_paths(result, "job") == [store.job_dir(old.id)]
        assert removed_paths(result, "blob") == [
            cache._blob_path(only_old["digest"])]
        assert cache.has_blob(shared["digest"])

    def test_running_jobs_store_survives_without_trace_path(self, tmp_path):
        state, store, _cache = service_state(tmp_path)
        traces = os.path.join(state, "traces")
        cold = spilled_store(traces, 12, LONG_AGO)
        self._running(store, JobSpec.from_dict(
            {"workload": "fig1", "use_trace_store": True}))
        # recorded by the running job; status.json names no trace_path
        stored, _ = record_spilled(two_array_kernel(8, 8), traces)
        result = collect(state, max_bytes=0)
        assert removed_paths(result, "store") == [cold]
        assert os.path.exists(stored.path)

    def test_put_blob_restamps_a_hit(self, tmp_path):
        cache = AnalysisCache(str(tmp_path), shared=True)
        blob = blob_artifact(cache, b"reused")
        assert cache.put_blob(blob["digest"], b"reused") is True
        assert os.path.getmtime(cache._blob_path(blob["digest"])) \
            > time.time() - 60

    def test_record_spilled_restamps_a_reused_store(self, tmp_path):
        path = spilled_store(tmp_path, 8, LONG_AGO)
        again, _ = record_spilled(two_array_kernel(8, 8), str(tmp_path))
        assert again.path == path
        assert all(os.path.getmtime(os.path.join(path, name))
                   > time.time() - 60 for name in os.listdir(path))


class TestCLI:
    def test_state_dir_pass(self, tmp_path, capsys):
        state, store, cache = service_state(tmp_path)
        old_art = blob_artifact(cache, b"old bytes")
        new_art = blob_artifact(cache, b"new bytes")
        old = finish_job(store, [old_art], finished=time.time() - 10 * DAY)
        recent = finish_job(store, [new_art])
        assert main(["gc", "--state-dir", state, "--keep-days", "7"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 item(s)" in out
        assert old.id in out and old_art["digest"] in out
        assert not cache.has_blob(old_art["digest"])
        assert cache.has_blob(new_art["digest"])
        # the surviving record still lists
        assert main(["jobs", "list", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert recent.id in out and old.id not in out

    @pytest.mark.parametrize("argv", [
        ["gc", "--state-dir"], ["jobs", "list", "--state-dir"]],
        ids=["gc", "jobs-list"])
    def test_missing_state_dir_is_an_error(self, tmp_path, capsys, argv):
        typo = str(tmp_path / "no-such-dir")
        with pytest.raises(SystemExit) as exc:
            main(argv + [typo])
        assert exc.value.code != 0 and typo in str(exc.value.code)
        assert not os.path.exists(typo)

    @pytest.mark.parametrize("argv", [
        ["trace", "gc", "--trace-dir", "t", "--max-gb", "0"],
        ["cache", "gc", "--max-gb", "0"],
        ["jobs", "gc", "--state-dir", "s", "--keep-days", "0"],
        ["gc", "--keep-days", "1"]],
        ids=["trace-gc", "cache-gc", "jobs-gc", "keep-days-alone"])
    def test_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
