"""Artifact blobs in the one GC pass over a service state dir.

Job records are the pin roots: a blob that no kept record names is
reclaimed by the same ``repro gc --state-dir`` pass that expires the
records.  Retention of the records themselves and the time pin for
running jobs are in tests/tools/test_gc.py.
"""

import os
import time

from repro.cli import main
from repro.service.jobs import JobStore
from repro.tools.gc import collect
from tests.helpers import (
    DAY, blob_artifact, finish_job, removed_paths, service_state,
)


class TestBlobGC:
    def test_unpinned_blobs_reclaimed_pinned_kept(self, tmp_path):
        state, store, cache = service_state(tmp_path)
        keep = blob_artifact(cache, b"keep me")
        drop = blob_artifact(cache, b"drop me")
        finish_job(store, [keep])
        result = collect(state)
        assert result.removed == [
            ("blob", cache._blob_path(drop["digest"]), len(b"drop me"))]
        assert result.freed_bytes == len(b"drop me")
        assert cache.has_blob(keep["digest"])
        assert not cache.has_blob(drop["digest"])

    def test_dry_run_removes_nothing(self, tmp_path):
        state, _store, cache = service_state(tmp_path)
        drop = blob_artifact(cache, b"drop me")
        result = collect(state, dry_run=True)
        assert removed_paths(result, "blob") == [
            cache._blob_path(drop["digest"])]
        assert cache.has_blob(drop["digest"])

    def test_in_flight_tmp_files_are_skipped(self, tmp_path):
        state, store, cache = service_state(tmp_path)
        blob = blob_artifact(cache, b"data")
        finish_job(store, [blob])
        tmp = os.path.join(os.path.dirname(
            cache._blob_path(blob["digest"])), ".tmp-half-written.bin")
        with open(tmp, "wb") as fh:
            fh.write(b"partial")
        assert collect(state).removed == []
        assert os.path.exists(tmp)  # a concurrent writer owns it


class TestGCCommands:
    def test_jobs_gc_dry_run_cli(self, tmp_path, capsys):
        state, store, cache = service_state(tmp_path)
        old_art = blob_artifact(cache, b"old bytes")
        old = finish_job(store, [old_art], finished=time.time() - 10 * DAY)
        assert main(["gc", "--state-dir", state, "--keep-days", "7",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "(dry run)" in out
        assert old.id in out and old_art["digest"] in out
        fresh = JobStore(state)
        fresh.recover()
        assert old.id in fresh.jobs
        assert cache.has_blob(old_art["digest"])
