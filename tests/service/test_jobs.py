"""JobSpec validation and JobStore record/recovery semantics."""

import json
import logging
import os
import sys
import threading
import time

import pytest

from repro.service.jobs import (
    ARTIFACT_KINDS, JobSpec, JobStore, SpecError,
)


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec.from_dict({"workload": "sweep3d",
                                  "params": {"mesh": 6},
                                  "engine": "numpy", "shards": 2,
                                  "artifacts": ["patterns", "xml"]})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.artifacts == ("patterns", "xml")

    def test_defaults(self):
        spec = JobSpec.from_dict({"workload": "fig1"})
        assert spec.engine == "numpy"
        assert JobSpec(workload="fig1").engine == "numpy"
        assert spec.shards == 1
        assert spec.artifacts == ("patterns", "manifest")
        assert not spec.use_trace_store

    @pytest.mark.parametrize("body,fragment", [
        ({}, "workload"),
        ({"workload": "nope"}, "unknown workload"),
        ({"workload": "sweep3d", "params": {"bogus": 1}}, "unknown params"),
        ({"workload": "sweep3d", "params": "x"}, "params"),
        ({"workload": "sweep3d", "engine": "magic"}, "engine"),
        ({"workload": "sweep3d", "shards": 0}, "shards"),
        ({"workload": "sweep3d", "shards": "many"}, "shards"),
        ({"workload": "sweep3d", "artifacts": []}, "artifacts"),
        ({"workload": "sweep3d", "artifacts": ["gold"]}, "artifacts"),
        ({"workload": "sweep3d", "surprise": 1}, "unknown spec fields"),
        ({"workload": "sweep3d", "spill_mb": "big"}, "spill_mb"),
        ({"workload": "sweep3d", "engine": "static", "shards": 2},
         "no trace to shard"),
        ({"workload": "sweep3d", "engine": "static",
          "use_trace_store": True}, "no trace to spill"),
        ({"workload": "sweep3d", "shards": 2, "spill_mb": 1},
         "needs 'use_trace_store'"),
        ("not a dict", "object"),
    ])
    def test_rejects(self, body, fragment):
        with pytest.raises(SpecError, match=fragment):
            JobSpec.from_dict(body)

    def test_static_engine_accepted(self):
        spec = JobSpec.from_dict({"workload": "sweep3d",
                                  "engine": "static"})
        assert spec.engine == "static"

    def test_artifact_kinds_have_filenames(self):
        for name, fname in ARTIFACT_KINDS.items():
            assert "." in fname, (name, fname)


class TestJobStore:
    def _spec(self):
        return JobSpec.from_dict({"workload": "fig1"})

    def test_submit_creates_spec_and_record(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("acme", self._spec())
        assert job.state == "queued"
        assert os.path.exists(store.spec_path(job.id))
        with open(store.record_path(job.id), encoding="utf-8") as fh:
            record = json.load(fh)
        expected = job.to_dict()
        del expected["spec"]
        assert record == expected

    def test_lifecycle_counts(self, tmp_path):
        store = JobStore(str(tmp_path))
        a = store.submit("t1", self._spec())
        b = store.submit("t1", self._spec())
        store.submit("t2", self._spec())
        assert store.queued_count("t1") == 2
        store.mark_started(a.id)
        assert store.queued_count("t1") == 1
        assert store.running_count("t1") == 1
        store.mark_done(a.id, {"L2": 1.0}, [{"name": "patterns",
                                             "digest": "d", "bytes": 3}])
        assert store.running_count("t1") == 0
        store.mark_cancelled(b.id)
        assert store.queued_count("t1") == 0
        assert store.jobs[a.id].terminal
        assert store.jobs[b.id].state == "cancelled"

    def test_recover_requeues_queued_and_running(self, tmp_path):
        store = JobStore(str(tmp_path))
        queued = store.submit("t", self._spec())
        running = store.submit("t", self._spec())
        done = store.submit("t", self._spec())
        store.mark_started(running.id)
        store.mark_started(done.id)
        store.mark_done(done.id, {"L2": 2.0}, [])

        fresh = JobStore(str(tmp_path))
        requeued = fresh.recover()
        ids = {j.id for j in requeued}
        assert ids == {queued.id, running.id}
        assert fresh.jobs[queued.id].resumed == 0
        assert fresh.jobs[running.id].resumed == 1
        assert fresh.resumed_ids == [running.id]
        assert fresh.jobs[done.id].state == "done"

    def test_recover_hydrates_result(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("t", self._spec())
        store.mark_started(job.id)
        from repro.tools.atomicio import atomic_write_text
        atomic_write_text(store.result_path(job.id), json.dumps(
            {"totals": {"L2": 5.0},
             "artifacts": [{"name": "patterns", "digest": "abc",
                            "bytes": 7}]}))
        store.mark_done(job.id, {"L2": 5.0},
                        [{"name": "patterns", "digest": "abc", "bytes": 7}])

        fresh = JobStore(str(tmp_path))
        fresh.recover()
        hydrated = fresh.jobs[job.id]
        assert hydrated.totals == {"L2": 5.0}
        assert hydrated.artifacts[0]["digest"] == "abc"

    def test_recover_skips_dir_without_record(self, tmp_path, caplog):
        store = JobStore(str(tmp_path))
        job = store.submit("t", self._spec())
        # a submit cut short between its two writes: spec, no record
        from repro.tools.atomicio import atomic_write_text
        atomic_write_text(store.spec_path("halfway"),
                          json.dumps(self._spec().to_dict()))

        fresh = JobStore(str(tmp_path))
        with caplog.at_level(logging.WARNING, "repro.service.jobs"):
            requeued = fresh.recover()
        assert [j.id for j in requeued] == [job.id]
        assert "halfway" not in fresh.jobs
        assert "halfway" in caplog.text

    def test_recover_skips_unparseable_record(self, tmp_path):
        store = JobStore(str(tmp_path))
        torn = store.submit("t", self._spec())
        done = store.submit("t", self._spec())
        queued = store.submit("t", self._spec())
        store.mark_started(done.id)
        store.mark_done(done.id, {"L2": 1.0}, [])
        with open(store.record_path(torn.id), "w") as fh:
            fh.write('{"id": "%s", "sta' % torn.id)

        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [queued.id]
        assert torn.id not in fresh.jobs
        assert fresh.jobs[done.id].state == "done"

    def test_recover_ignores_stray_tmp_files(self, tmp_path, caplog):
        store = JobStore(str(tmp_path))
        job = store.submit("t", self._spec())
        store.mark_started(job.id)
        store.mark_done(job.id, {"L2": 1.0}, [])
        # a writer killed between mkstemp and rename leaves these
        for directory in (store.job_dir(job.id),
                          os.path.join(str(tmp_path), "jobs")):
            with open(os.path.join(directory, ".tmp-abc123.json"),
                      "w") as fh:
                fh.write('{"state": "runn')

        fresh = JobStore(str(tmp_path))
        with caplog.at_level(logging.WARNING, "repro.service.jobs"):
            assert fresh.recover() == []
        assert list(fresh.jobs) == [job.id]
        assert fresh.jobs[job.id].state == "done"
        assert caplog.text == ""

    def test_concurrent_writers_lose_no_job(self, tmp_path):
        """Each store writes only its own jobs' records, so two stores
        submitting and finishing jobs in one state dir at once lose
        none of each other's jobs or transitions."""
        writer = JobStore(str(tmp_path))
        stop = threading.Event()
        errors = []
        churned = []

        def churn():
            store = JobStore(str(tmp_path))
            try:
                while not stop.is_set():
                    job = store.submit("t", self._spec())
                    store.mark_started(job.id)
                    store.mark_done(job.id, {}, [])
                    churned.append(job.id)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        thread = threading.Thread(target=churn)
        ids = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            while not churned and thread.is_alive():
                time.sleep(0.001)  # the writer starts once churn does
            for i in range(30):
                job = writer.submit("t", self._spec())
                ids.append(job.id)
                if i % 2:
                    writer.mark_started(job.id)
                    writer.mark_done(job.id, {}, [])
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors
        assert churned
        fresh = JobStore(str(tmp_path))
        requeued = fresh.recover()
        assert set(fresh.jobs) == set(ids) | set(churned)
        assert {job.id for job in requeued} == set(ids[0::2])
        assert all(fresh.jobs[i].state == "queued" for i in ids[0::2])
        assert all(fresh.jobs[i].state == "done"
                   for i in ids[1::2] + churned)

    def test_recover_sees_seeded_jobs_terminal_during_writes(self,
                                                             tmp_path):
        """Records are replaced by rename and never shared, so a
        recover() racing other stores' submits and transitions reads
        every settled job whole, and no writer loses another's jobs."""
        seeder = JobStore(str(tmp_path))
        ids = []
        for _ in range(10):
            job = seeder.submit("t", self._spec())
            seeder.mark_started(job.id)
            seeder.mark_done(job.id, {}, [])
            ids.append(job.id)
        stop = threading.Event()
        errors = []
        written = []

        def churn():
            store = JobStore(str(tmp_path))
            try:
                while not stop.is_set():
                    job = store.submit("t", self._spec())
                    store.mark_started(job.id)
                    store.mark_done(job.id, {}, [])
                    written.append(job.id)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        writers = [threading.Thread(target=churn) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers:
                thread.start()
            for _ in range(20):
                fresh = JobStore(str(tmp_path))
                fresh.recover()
                assert set(ids) <= set(fresh.jobs)
                assert all(fresh.jobs[i].state == "done" for i in ids)
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers)
        assert not errors
        fresh = JobStore(str(tmp_path))
        fresh.recover()
        assert set(ids) | set(written) <= set(fresh.jobs)
        assert all(job.state == "done" for job in fresh.jobs.values())

    def test_recover_missing_jobs_dir(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert store.recover() == []

    def test_recover_drops_job_with_unreadable_spec(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("t", self._spec())
        os.unlink(store.spec_path(job.id))
        fresh = JobStore(str(tmp_path))
        assert fresh.recover() == []
        assert job.id not in fresh.jobs


def _spec():
    return JobSpec.from_dict({"workload": "fig1"})


class TestRecordRoundTrip:
    """What a fresh ``JobStore(state_dir).recover()`` reads back."""

    def test_every_state_survives_recover(self, tmp_path):
        store = JobStore(str(tmp_path))
        queued = store.submit("t", _spec())
        running = store.submit("t", _spec())
        done = store.submit("t", _spec())
        failed = store.submit("t", _spec())
        cancelled = store.submit("t", _spec())
        store.mark_started(running.id)
        for job in (done, failed):
            store.mark_started(job.id)
        store.mark_done(done.id, {"L2": 2.0},
                        [{"name": "patterns", "digest": "d", "bytes": 3}])
        store.mark_failed(failed.id, "boom")
        store.mark_cancelled(cancelled.id)

        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [queued.id, running.id]
        expected = {job_id: job.to_dict()
                    for job_id, job in store.jobs.items()}
        # the interrupted run comes back queued, counted as resumed
        expected[running.id].update(state="queued", resumed=1)
        assert {job_id: job.to_dict()
                for job_id, job in fresh.jobs.items()} == expected

    def test_restart_churn_keeps_resume_counter(self, tmp_path):
        store = JobStore(str(tmp_path))
        ids = [store.submit("t", _spec()).id for _ in range(4)]
        for job_id in ids:
            store.mark_started(job_id)
        for _ in range(8):
            fresh = JobStore(str(tmp_path))
            for job in fresh.recover():
                fresh.mark_started(job.id)

        recovered = JobStore(str(tmp_path))
        recovered.recover()
        assert [recovered.jobs[i].resumed for i in ids] == [9, 9, 9, 9]
        assert sorted(recovered.resumed_ids) == sorted(ids)

    def test_requeued_jobs_come_back_oldest_first(self, tmp_path):
        store = JobStore(str(tmp_path))
        ids = [store.submit("t", _spec()).id for _ in range(8)]
        for job_id in ids[::2]:
            store.mark_started(job_id)

        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == ids
        assert fresh.resumed_ids == ids[::2]

    def test_crash_counter_survives_recover(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.submit("t", _spec())
        for _ in range(2):
            store.mark_started(job.id)
            store.mark_requeued(job.id, "killed by signal 9")

        fresh = JobStore(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [job.id]
        assert fresh.jobs[job.id].state == "queued"
        assert fresh.jobs[job.id].crashes == 2
        assert fresh.jobs[job.id].error == "killed by signal 9"

    def test_requeued_job_recovers_queued_not_resumed(self, tmp_path):
        """A crash-requeued job is queued, not an interrupted run: a
        restart must not count the already-accounted crash as a
        resume."""
        store = JobStore(str(tmp_path))
        job = store.submit("t", _spec())
        store.mark_started(job.id)
        store.mark_requeued(job.id, "exited with code 70")

        fresh = JobStore(str(tmp_path))
        fresh.recover()
        assert fresh.jobs[job.id].state == "queued"
        assert fresh.jobs[job.id].crashes == 1
        assert fresh.jobs[job.id].resumed == 0
        assert fresh.resumed_ids == []

    def test_counters_survive_recover(self, tmp_path):
        """Terminal jobs keep their ``crashes`` and ``resumed`` history,
        which ``repro jobs list`` prints."""
        state_dir = str(tmp_path)
        store = JobStore(state_dir)
        poisoned = store.submit("t", _spec())
        resumed = store.submit("t", _spec())
        for _ in range(2):
            store.mark_started(poisoned.id)
            store.mark_requeued(poisoned.id, "killed by signal 11")
        store.mark_started(poisoned.id)
        store.mark_poisoned(poisoned.id, "quarantined after 3 crashes")
        store.mark_started(resumed.id)
        for _ in range(3):  # three restarts find it mid-run
            store = JobStore(state_dir)
            store.recover()
            store.mark_started(resumed.id)
        store.mark_done(resumed.id, {"L2": 1.0}, [])

        fresh = JobStore(state_dir)
        assert fresh.recover() == []
        job = fresh.jobs[poisoned.id]
        assert (job.state, job.crashes) == ("failed_poison", 2)
        assert job.error == "quarantined after 3 crashes"
        assert job.finished > 0
        job = fresh.jobs[resumed.id]
        assert (job.state, job.resumed) == ("done", 3)


class TestLiveTraceRefs:
    """The trace stores live jobs replay are pinned by the GC pass."""

    def test_collects_only_live_jobs(self, tmp_path):
        from repro.tools.atomicio import atomic_write_text
        from repro.tools.gc import collect
        from tests.helpers import LONG_AGO, removed_paths, spilled_store

        state = str(tmp_path)
        traces = os.path.join(state, "traces")
        live_path = spilled_store(traces, 8, LONG_AGO)
        dead_path = spilled_store(traces, 12, LONG_AGO)
        store = JobStore(state)
        spec = JobSpec.from_dict({"workload": "fig1",
                                  "use_trace_store": True})
        live = store.submit("t", spec)
        dead = store.submit("t", spec)
        store.mark_started(live.id)
        store.mark_started(dead.id)
        store.mark_done(dead.id, {}, [])
        atomic_write_text(store.status_path(live.id), json.dumps(
            {"phase": "analyze", "trace_path": live_path}))
        atomic_write_text(store.status_path(dead.id), json.dumps(
            {"phase": "artifacts", "trace_path": dead_path}))

        result = collect(state, max_bytes=0)
        assert removed_paths(result, "store") == [dead_path]
        assert os.path.exists(live_path)
