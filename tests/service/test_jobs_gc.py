"""Retention GC for job records and their artifact blobs.

``repro jobs gc`` ages out *terminal* job records (their job
directories); the digests those records were the last to reference come
back "unpinned" so ``repro cache gc --state-dir`` can reclaim the
actual blob bytes.  The two passes are deliberately separate commands —
job records are the pin roots, so records must go first.
"""

import hashlib
import json
import os
import time

from repro.service.jobs import JobSpec, JobStore
from repro.tools.cache import AnalysisCache

TINY_SPEC = JobSpec(workload="fig1", params={"n": 24, "m": 24})
DAY = 86400.0


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _age_done_event(store, job_id, ts):
    """Backdate a job's recorded finish (tests can't wait a week)."""
    path = store.record_path(job_id)
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["finished"] = ts
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def _finish_job(store, tenant, artifacts, finished=None):
    """Submit + complete one job; optionally backdate its completion.

    Writes ``result.json`` the way a worker would.
    """
    job = store.submit(tenant, TINY_SPEC)
    store.mark_started(job.id)
    store.mark_done(job.id, {"L1": 1}, artifacts)
    with open(store.result_path(job.id), "w", encoding="utf-8") as fh:
        json.dump({"status": "done", "totals": {"L1": 1},
                   "artifacts": artifacts, "error": ""}, fh)
    if finished is not None:
        job.finished = finished
        _age_done_event(store, job.id, finished)
    return job


def _blob_artifact(cache, name, data):
    digest = _digest(data)
    cache.put_blob(digest, data)
    return {"name": name, "file": f"{name}.bin", "digest": digest,
            "bytes": len(data)}


class TestJobsGC:
    def test_removes_old_terminal_keeps_recent_and_live(self, tmp_path):
        store = JobStore(str(tmp_path))
        now = time.time()
        old = _finish_job(store, "a", [], finished=now - 10 * DAY)
        recent = _finish_job(store, "a", [])
        live = store.submit("a", TINY_SPEC)  # queued: never collected

        result = store.gc(keep_days=7.0, now=now)
        assert result.removed == [old.id]
        assert result.kept == 2
        assert not result.dry_run
        assert old.id not in store.jobs
        assert not os.path.exists(store.job_dir(old.id))
        assert os.path.exists(store.job_dir(recent.id))
        assert os.path.exists(store.job_dir(live.id))

        # the removal is durable: a fresh recover agrees
        fresh = JobStore(str(tmp_path))
        fresh.recover()
        assert old.id not in fresh.jobs
        assert fresh.jobs[recent.id].state == "done"
        assert fresh.jobs[live.id].state == "queued"

    def test_live_jobs_survive_regardless_of_age(self, tmp_path):
        store = JobStore(str(tmp_path))
        now = time.time()
        stale = store.submit("a", TINY_SPEC)
        stale.created = now - 30 * DAY
        result = store.gc(keep_days=1.0, now=now)
        assert result.removed == []
        assert stale.id in store.jobs

    def test_unpinned_excludes_digests_shared_with_kept_jobs(
            self, tmp_path):
        store = JobStore(str(tmp_path))
        now = time.time()
        shared = {"name": "patterns", "file": "p.bin",
                  "digest": "a" * 64, "bytes": 3}
        only_old = {"name": "manifest", "file": "m.bin",
                    "digest": "b" * 64, "bytes": 3}
        _finish_job(store, "a", [shared, only_old],
                    finished=now - 10 * DAY)
        _finish_job(store, "a", [shared])

        result = store.gc(keep_days=7.0, now=now)
        # the kept job still serves the shared digest: stays pinned
        assert result.unpinned == ["b" * 64]
        assert store.pinned_blob_digests() == {"a" * 64}

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store = JobStore(str(tmp_path))
        now = time.time()
        old = _finish_job(store, "a", [], finished=now - 10 * DAY)

        result = store.gc(keep_days=7.0, now=now, dry_run=True)
        assert result.dry_run
        assert result.removed == [old.id]
        assert result.freed_bytes > 0  # spec.json + result.json at least
        assert old.id in store.jobs
        assert os.path.exists(store.job_dir(old.id))

    def test_finished_age_survives_restart(self, tmp_path):
        """recover() restores ``finished`` from the job record, so a
        fresh process can age records it never saw complete."""
        store = JobStore(str(tmp_path))
        now = time.time()
        job = _finish_job(store, "a", [], finished=now - 10 * DAY)
        fresh = JobStore(str(tmp_path))
        fresh.recover()
        assert fresh.jobs[job.id].finished == job.finished
        result = fresh.gc(keep_days=7.0, now=now)
        assert result.removed == [job.id]


class TestBlobGC:
    def test_unpinned_blobs_reclaimed_pinned_kept(self, tmp_path):
        cache = AnalysisCache(str(tmp_path), shared=True)
        keep = _blob_artifact(cache, "patterns", b"keep me")
        drop = _blob_artifact(cache, "manifest", b"drop me")

        result = cache.gc_blobs({keep["digest"]})
        assert result.evicted == [drop["digest"]]
        assert result.kept == [keep["digest"]]
        assert result.freed_bytes == len(b"drop me")
        assert cache.has_blob(keep["digest"])
        assert not cache.has_blob(drop["digest"])

    def test_dry_run_removes_nothing(self, tmp_path):
        cache = AnalysisCache(str(tmp_path), shared=True)
        drop = _blob_artifact(cache, "manifest", b"drop me")
        result = cache.gc_blobs(set(), dry_run=True)
        assert result.evicted == [drop["digest"]]
        assert cache.has_blob(drop["digest"])

    def test_in_flight_tmp_files_are_skipped(self, tmp_path):
        cache = AnalysisCache(str(tmp_path), shared=True)
        blob = _blob_artifact(cache, "patterns", b"data")
        sub = os.path.dirname(cache._blob_path(blob["digest"]))
        tmp = os.path.join(sub, ".tmp-half-written.bin")
        with open(tmp, "wb") as fh:
            fh.write(b"partial")
        result = cache.gc_blobs({blob["digest"]})
        assert result.evicted == []
        assert os.path.exists(tmp)  # a concurrent writer owns it


class TestGCCommands:
    def _seed_state(self, state_dir):
        """One week-old job pinning a blob nothing else references,
        one fresh job pinning a blob of its own."""
        store = JobStore(state_dir)
        cache = AnalysisCache(os.path.join(state_dir, "cache"),
                              shared=True)
        old_art = _blob_artifact(cache, "patterns", b"old bytes")
        new_art = _blob_artifact(cache, "patterns", b"new bytes")
        old = _finish_job(store, "a", [old_art],
                          finished=time.time() - 10 * DAY)
        recent = _finish_job(store, "a", [new_art])
        return store, cache, old, recent, old_art, new_art

    def test_jobs_gc_then_cache_gc_reclaims_blobs(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        state_dir = str(tmp_path)
        store, cache, old, recent, old_art, new_art = \
            self._seed_state(state_dir)

        assert main(["jobs", "gc", "--state-dir", state_dir,
                     "--keep-days", "7"]) == 0
        out = capsys.readouterr().out
        assert "removed  1 terminal job(s)" in out
        assert old.id in out
        assert "unpinned 1 artifact blob(s)" in out

        assert main(["cache", "gc", "--max-gb", "100",
                     "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert old_art["digest"] in out
        assert not cache.has_blob(old_art["digest"])
        assert cache.has_blob(new_art["digest"])

        # the surviving record still lists and still serves
        assert main(["jobs", "list", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert recent.id in out
        assert old.id not in out

    def test_jobs_gc_dry_run_cli(self, tmp_path, capsys):
        from repro.cli import main
        state_dir = str(tmp_path)
        store, cache, old, *_ = self._seed_state(state_dir)

        assert main(["jobs", "gc", "--state-dir", state_dir,
                     "--keep-days", "7", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "(dry run)" in out
        fresh = JobStore(state_dir)
        fresh.recover()
        assert old.id in fresh.jobs
