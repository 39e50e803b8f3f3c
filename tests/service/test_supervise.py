"""Unit tests for the supervision layer (:mod:`repro.service.supervise`).

The chaos matrix in ``test_chaos.py`` exercises the same machinery
end-to-end through a live server; these tests pin the pieces in
isolation — probes, kill decisions, escalation, backoff, and orphan
identity checks — with stub processes where a real fork would only add
noise.
"""

import json
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.obs import metrics
from repro.service.jobs import JobSpec, JobStore
from repro.service.supervise import (
    SupervisionPolicy, Supervisor, pid_alive, proc_start_ticks,
    read_worker_identity, reap_orphans, rss_mb, write_worker_identity,
)

pytestmark = pytest.mark.skipif(sys.platform == "win32",
                                reason="POSIX process control")

TINY_SPEC = JobSpec(workload="fig1", params={"n": 24, "m": 24})


class StubProc:
    """A fake multiprocessing.Process for kill-decision tests."""

    def __init__(self, pid=4242):
        self.pid = pid
        self.terminated = 0
        self.killed = 0

    def is_alive(self):
        return True

    def terminate(self):
        self.terminated += 1

    def kill(self):
        self.killed += 1


def _store_with_running_job(tmp_path, started=None):
    store = JobStore(str(tmp_path))
    job = store.submit("default", TINY_SPEC)
    store.mark_started(job.id)
    if started is not None:
        job.started = started
    return store, job


def _write_status(store, job_id, **fields):
    fields.setdefault("ts", time.time())
    with open(store.status_path(job_id), "w", encoding="utf-8") as fh:
        json.dump(fields, fh)


class TestProbes:
    def test_rss_mb_is_positive_and_plausible(self):
        rss = rss_mb()
        assert 1.0 < rss < 1024 * 64  # between 1 MiB and 64 GiB

    def test_rss_mb_grows_with_allocation(self):
        before = rss_mb()
        ballast = bytearray(64 * 1024 * 1024)
        after = rss_mb()
        del ballast
        assert after - before > 32  # zero-filled pages are committed

    def test_proc_start_ticks_stable_for_self(self):
        first = proc_start_ticks(os.getpid())
        second = proc_start_ticks(os.getpid())
        assert first is not None and first == second

    def test_proc_start_ticks_none_for_dead_pid(self):
        # find a pid that does not exist
        pid = 4_000_000
        while pid_alive(pid):  # pragma: no cover - absurdly full table
            pid += 1
        assert proc_start_ticks(pid) is None

    def test_pid_alive(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(-1)

    def test_worker_identity_roundtrip(self, tmp_path):
        write_worker_identity(str(tmp_path))
        ident = read_worker_identity(str(tmp_path))
        assert ident["pid"] == os.getpid()
        assert ident["start_ticks"] == proc_start_ticks(os.getpid())


class TestKillDecisions:
    def test_walltime_kill(self, tmp_path, scoped_metrics):
        metrics.set_enabled(True)
        store, job = _store_with_running_job(
            tmp_path, started=time.time() - 10.0)
        sup = Supervisor(store, SupervisionPolicy(walltime_s=5.0))
        proc = StubProc()
        killed = sup.check({job.id: proc})
        assert killed == [job.id]
        assert proc.terminated == 1 and proc.killed == 0
        record = sup.take_kill(job.id)
        assert record.reason == "walltime"
        assert metrics.snapshot()["counters"]["svc.stuck_killed"] == 1

    def test_within_walltime_not_killed(self, tmp_path, scoped_metrics):
        store, job = _store_with_running_job(tmp_path)
        sup = Supervisor(store, SupervisionPolicy(walltime_s=60.0))
        proc = StubProc()
        assert sup.check({job.id: proc}) == []
        assert proc.terminated == 0
        assert sup.take_kill(job.id) is None

    def test_rss_kill(self, tmp_path, scoped_metrics):
        metrics.set_enabled(True)
        store, job = _store_with_running_job(tmp_path)
        _write_status(store, job.id, phase="analyze", rss_mb=512.0)
        sup = Supervisor(store, SupervisionPolicy(max_rss_mb=256.0))
        proc = StubProc()
        assert sup.check({job.id: proc}) == [job.id]
        assert sup.take_kill(job.id).reason == "rss"
        assert metrics.snapshot()["counters"]["svc.rss_killed"] == 1

    def test_rss_under_ceiling_not_killed(self, tmp_path, scoped_metrics):
        store, job = _store_with_running_job(tmp_path)
        _write_status(store, job.id, phase="analyze", rss_mb=100.0)
        sup = Supervisor(store, SupervisionPolicy(max_rss_mb=256.0))
        assert sup.check({job.id: StubProc()}) == []

    def test_stale_heartbeat_kill(self, tmp_path, scoped_metrics):
        metrics.set_enabled(True)
        store, job = _store_with_running_job(
            tmp_path, started=time.time() - 10.0)
        _write_status(store, job.id, phase="analyze",
                      ts=time.time() - 8.0)
        sup = Supervisor(store, SupervisionPolicy(heartbeat_timeout_s=5.0))
        assert sup.check({job.id: StubProc()}) == [job.id]
        assert sup.take_kill(job.id).reason == "heartbeat"

    def test_fresh_heartbeat_not_killed_and_counted(self, tmp_path,
                                                    scoped_metrics):
        metrics.set_enabled(True)
        store, job = _store_with_running_job(
            tmp_path, started=time.time() - 10.0)
        _write_status(store, job.id, phase="analyze")
        sup = Supervisor(store, SupervisionPolicy(heartbeat_timeout_s=5.0))
        assert sup.check({job.id: StubProc()}) == []
        assert metrics.snapshot()["counters"]["svc.heartbeats"] == 1
        # same heartbeat seen again: not double-counted
        assert sup.check({job.id: StubProc()}) == []
        assert metrics.snapshot()["counters"]["svc.heartbeats"] == 1

    def test_escalates_to_sigkill_after_grace(self, tmp_path,
                                              scoped_metrics):
        store, job = _store_with_running_job(
            tmp_path, started=time.time() - 10.0)
        sup = Supervisor(store, SupervisionPolicy(walltime_s=1.0,
                                                  kill_grace_s=0.0))
        proc = StubProc()
        sup.check({job.id: proc})
        assert proc.terminated == 1 and proc.killed == 0
        # next tick: grace (0s) has passed and the stub is "still alive"
        sup.check({job.id: proc})
        assert proc.killed == 1
        # escalation happens once
        sup.check({job.id: proc})
        assert proc.killed == 1

    def test_disabled_ceilings_never_kill(self, tmp_path, scoped_metrics):
        store, job = _store_with_running_job(
            tmp_path, started=time.time() - 3600.0)
        _write_status(store, job.id, phase="analyze", rss_mb=1e6,
                      ts=time.time() - 3600.0)
        sup = Supervisor(store, SupervisionPolicy(
            walltime_s=0.0, max_rss_mb=0.0, heartbeat_timeout_s=0.0))
        assert sup.check({job.id: StubProc()}) == []

    def test_inflight_rss_sums_running_jobs(self, tmp_path,
                                            scoped_metrics):
        store, job1 = _store_with_running_job(tmp_path)
        job2 = store.submit("default", TINY_SPEC)
        store.mark_started(job2.id)
        _write_status(store, job1.id, phase="a", rss_mb=100.0)
        _write_status(store, job2.id, phase="a", rss_mb=50.5)
        sup = Supervisor(store, SupervisionPolicy())
        procs = {job1.id: StubProc(), job2.id: StubProc()}
        assert sup.inflight_rss_mb(procs) == pytest.approx(150.5)

    def test_requeue_backoff_grows_and_caps(self, tmp_path):
        store = JobStore(str(tmp_path))
        retry = Supervisor(store, SupervisionPolicy()).retry
        # the delay after a job's k-th crash is backoff(k - 1)
        delays = [retry.backoff(k - 1) for k in range(1, 10)]
        assert delays == pytest.approx([0.5, 1, 2, 4, 8, 16, 30, 30, 30])


def _orphan_main(job_dir):
    """Pretend to be a worker left behind by a crashed server."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    write_worker_identity(job_dir)
    time.sleep(120)


class TestOrphanReaping:
    def test_reaps_live_orphan_with_matching_identity(self, tmp_path,
                                                      scoped_metrics):
        metrics.set_enabled(True)
        store = JobStore(str(tmp_path))
        job = store.submit("default", TINY_SPEC)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_orphan_main,
                           args=(store.job_dir(job.id),), daemon=True)
        proc.start()
        deadline = time.monotonic() + 10
        while (read_worker_identity(store.job_dir(job.id)) is None
               and time.monotonic() < deadline):
            time.sleep(0.02)
        reaped = reap_orphans(store, [job.id], grace_s=5.0)
        assert reaped == [proc.pid]
        proc.join(timeout=10)
        assert proc.exitcode == -signal.SIGTERM
        assert metrics.snapshot()["counters"]["svc.orphans_reaped"] == 1
        # identity file consumed: a second pass finds nothing
        assert reap_orphans(store, [job.id]) == []

    def test_dead_pid_is_not_reaped(self, tmp_path, scoped_metrics):
        store = JobStore(str(tmp_path))
        job = store.submit("default", TINY_SPEC)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_orphan_main,
                           args=(store.job_dir(job.id),), daemon=True)
        proc.start()
        deadline = time.monotonic() + 10
        while (read_worker_identity(store.job_dir(job.id)) is None
               and time.monotonic() < deadline):
            time.sleep(0.02)
        proc.terminate()
        proc.join(timeout=10)
        assert reap_orphans(store, [job.id]) == []

    def test_recycled_pid_is_not_killed(self, tmp_path, scoped_metrics):
        """A live pid whose start time mismatches is someone else."""
        store = JobStore(str(tmp_path))
        job = store.submit("default", TINY_SPEC)
        job_dir = store.job_dir(job.id)
        # forge an identity naming *this* process but with wrong ticks,
        # as if our pid had been recycled from a dead worker
        with open(os.path.join(job_dir, "worker.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(),
                       "start_ticks": 1, "ts": 0.0}, fh)
        assert reap_orphans(store, [job.id]) == []
        assert pid_alive(os.getpid())  # we were not shot

    def test_unverifiable_identity_is_left_alone(self, tmp_path,
                                                 scoped_metrics):
        store = JobStore(str(tmp_path))
        job = store.submit("default", TINY_SPEC)
        job_dir = store.job_dir(job.id)
        with open(os.path.join(job_dir, "worker.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "start_ticks": None}, fh)
        assert reap_orphans(store, [job.id]) == []
        assert pid_alive(os.getpid())

    def test_missing_identity_file_is_skipped(self, tmp_path,
                                              scoped_metrics):
        store = JobStore(str(tmp_path))
        job = store.submit("default", TINY_SPEC)
        assert reap_orphans(store, [job.id]) == []


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"poison_threshold": 0},
        {"walltime_s": -1.0},
        {"max_rss_mb": -1.0},
        {"kill_grace_s": -0.1},
    ])
    def test_rejects_bad_policy(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)
