"""End-to-end chaos matrix for the service supervision layer.

Every test here runs a real server (thread + event loop + forked job
workers) and injects one failure mode through the deterministic fault
harness: a worker that stalls forever, leaks memory, goes silent under
SIGSTOP, a server asked to drain mid-load, a queue pushed past its
watermark, an orphan left by a crashed server.  The assertions are the
robustness contract: supervised kills route through requeue/poison
exactly like unexplained crashes, survivors produce artifacts
byte-identical to an undisturbed run, and the job records read back the
truth after every insult.

The quick scenarios (walltime reap, poison quarantine, overload
shedding, graceful drain) run in tier-1; the heavier ones (RSS
runaway, SIGSTOP liveness, orphan reaping through a full service
restart) are marked ``slow`` and run in the nightly chaos leg
(``--runslow``).
"""

import asyncio
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.service.client import (
    JobFailed, QuotaExceeded, ServiceClient, ServiceUnavailable,
)
from repro.service.jobs import JobSpec, JobStore
from repro.service.server import ServiceConfig, ServiceThread
from repro.testing.faults import FaultSpec

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="needs POSIX signals + fork")

TINY = {"workload": "fig1", "params": {"n": 24, "m": 24}}


def _client(svc, tenant="default"):
    return ServiceClient("127.0.0.1", svc.port, tenant=tenant)


def _wait_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.status(job_id)
        if job["state"] == state:
            return job
        if job["state"] in ("done", "failed", "cancelled",
                            "failed_poison"):
            raise AssertionError(f"job reached {job['state']} while "
                                 f"waiting for {state}: {job}")
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} never reached {state}")


def _wait_marker(marker, n=1, timeout=30.0):
    """Block until ``n`` fault-budget slots have been claimed.

    Slot files appear atomically when a worker claims a firing, so this
    is the deterministic way to know an injected stall has actually
    started (vs. the worker still importing) before poking it further.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if len(os.listdir(marker)) >= n:
                return
        except OSError:
            pass
        time.sleep(0.02)
    raise TimeoutError(f"fault marker {marker} never reached {n} slots")


def _direct_patterns():
    """The pattern DB bytes an undisturbed in-process run produces."""
    from repro.apps.registry import build_workload, workload_params
    from repro.tools.session import AnalysisSession
    params = dict(workload_params("fig1"))
    params.update(TINY["params"])
    session = AnalysisSession(build_workload("fig1", **params))
    session.run()
    return pickle.dumps(session.analyzer.dump_state(),
                        protocol=pickle.HIGHEST_PROTOCOL)


class TestWalltimeReap:
    def test_stalled_worker_killed_requeued_and_completes(
            self, tmp_path, scoped_metrics, clean_faults):
        """A worker stalled past the walltime ceiling is SIGTERMed,
        the job requeues with backoff, and the retry's artifacts are
        byte-identical to an undisturbed run."""
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=60.0,
            match=(("program", "fig1a"),), times=1,
            marker=str(tmp_path / "marker")))
        config = ServiceConfig(state_dir=str(tmp_path / "state"),
                               workers=1, walltime_s=1.0,
                               heartbeat_s=0.1)
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(TINY, artifacts=["patterns"]))
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done"
            # exactly one supervised kill, one requeue, then success
            assert done["crashes"] == 1
            counters = client.metrics()["counters"]
            assert counters["svc.stuck_killed"] >= 1
            assert counters["svc.requeued"] == 1
            assert counters.get("svc.poisoned", 0) == 0
            assert counters["svc.heartbeats"] >= 1
            served = client.fetch_artifact(job["id"], "patterns")
        assert served == _direct_patterns()

    def test_requeued_attempt_respects_backoff(self, tmp_path,
                                               scoped_metrics,
                                               clean_faults):
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=60.0,
            match=(("program", "fig1a"),), times=1,
            marker=str(tmp_path / "marker")))
        config = ServiceConfig(state_dir=str(tmp_path / "state"),
                               workers=1, walltime_s=0.75,
                               heartbeat_s=0.1)
        with ServiceThread(config) as svc:
            client = _client(svc)
            t0 = time.monotonic()
            job = client.submit(dict(TINY))
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done"
            # walltime (0.75s) + backoff (>= 0.5s) both elapsed before
            # the successful attempt could even start
            assert time.monotonic() - t0 > 1.25


class TestPoisonQuarantine:
    def test_repeatedly_stalling_job_is_quarantined(
            self, tmp_path, scoped_metrics, clean_faults):
        """A spec that kills every worker stops being retried after
        ``poison_threshold`` crashes and parks as ``failed_poison``."""
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=60.0,
            match=(("program", "fig1a"),), times=0))
        config = ServiceConfig(state_dir=str(tmp_path), workers=1,
                               walltime_s=0.75, heartbeat_s=0.1,
                               poison_threshold=2)
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(TINY))
            with pytest.raises(JobFailed) as err:
                client.wait(job["id"], timeout=60)
            assert err.value.job["state"] == "failed_poison"
            status = client.status(job["id"])
            assert status["state"] == "failed_poison"
            assert "quarantined" in status["error"]
            counters = client.metrics()["counters"]
            assert counters["svc.poisoned"] == 1
            assert counters["svc.requeued"] == 1
            assert counters["svc.stuck_killed"] == 2
            # a healthy job still runs to completion afterwards: the
            # poison spec is quarantined, not the service
            clean_faults.clear()
            ok = client.submit(dict(TINY))
            assert client.wait(ok["id"], timeout=60)["state"] == "done"

    def test_poison_state_survives_restart(self, tmp_path,
                                           scoped_metrics, clean_faults):
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=60.0,
            match=(("program", "fig1a"),), times=0))
        state_dir = str(tmp_path)
        config = ServiceConfig(state_dir=state_dir, workers=1,
                               walltime_s=0.75, heartbeat_s=0.1,
                               poison_threshold=1)
        with ServiceThread(config) as svc:
            client = _client(svc)
            job_id = client.submit(dict(TINY))["id"]
            with pytest.raises(JobFailed):
                client.wait(job_id, timeout=60)
        clean_faults.clear()

        # the job record keeps the quarantine: the job must NOT re-run
        store = JobStore(state_dir)
        assert store.recover() == []
        assert store.jobs[job_id].state == "failed_poison"
        with ServiceThread(ServiceConfig(state_dir=state_dir,
                                         workers=1)) as svc:
            client = _client(svc)
            assert client.status(job_id)["state"] == "failed_poison"


@pytest.mark.slow
class TestRssCeiling:
    def test_leaking_worker_killed_then_retry_completes(
            self, tmp_path, scoped_metrics, clean_faults):
        """A worker whose heartbeat reports RSS over the ceiling is
        killed (``svc.rss_killed``, not ``svc.stuck_killed``) and the
        leak-free retry completes."""
        marker = str(tmp_path / "marker")
        # the leak commits pages (zero-filled), the stall keeps the
        # worker alive long enough for its heartbeat to report them
        clean_faults.install(FaultSpec(
            point="service.worker", action="leak", mb=600.0,
            match=(("workload", "fig1"),), times=1, marker=marker))
        clean_faults.install(FaultSpec(
            point="service.worker", action="stall", delay=60.0,
            match=(("workload", "fig1"),), times=1, marker=marker))
        config = ServiceConfig(state_dir=str(tmp_path / "state"),
                               workers=1, max_rss_mb=400.0,
                               heartbeat_s=0.05, heartbeat_timeout_s=30.0)
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(TINY, artifacts=["patterns"]))
            done = client.wait(job["id"], timeout=120)
            assert done["state"] == "done"
            assert done["crashes"] == 1
            counters = client.metrics()["counters"]
            assert counters["svc.rss_killed"] >= 1
            assert counters.get("svc.stuck_killed", 0) == 0
            served = client.fetch_artifact(job["id"], "patterns")
        assert served == _direct_patterns()


@pytest.mark.slow
class TestStaleHeartbeat:
    def test_sigstopped_worker_reaped_via_sigkill_escalation(
            self, tmp_path, scoped_metrics, clean_faults):
        """A worker frozen by SIGSTOP stops heartbeating; SIGTERM
        cannot unwind a stopped process, so the supervisor's SIGKILL
        escalation is what actually clears it."""
        marker = str(tmp_path / "marker")
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=120.0,
            match=(("program", "fig1a"),), times=1, marker=marker))
        config = ServiceConfig(state_dir=str(tmp_path / "state"),
                               workers=1, heartbeat_s=0.05,
                               heartbeat_timeout_s=2.0, kill_grace_s=0.5)
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(TINY))
            _wait_state(client, job["id"], "running")
            # freeze the worker only once it owns the stall budget —
            # SIGSTOPping it mid-import would let the retry claim the
            # stall and sleep 120s with fresh heartbeats
            _wait_marker(marker)
            store = svc.service.store
            deadline = time.monotonic() + 10
            pid = None
            while time.monotonic() < deadline:
                pid = store.read_status(job["id"]).get("pid")
                if pid:
                    break
                time.sleep(0.02)
            assert pid, "worker never wrote status.json"
            os.kill(pid, signal.SIGSTOP)
            try:
                done = client.wait(job["id"], timeout=60)
            finally:
                # belt and braces: never leak a stopped process
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert done["state"] == "done"
            assert done["crashes"] == 1
            counters = client.metrics()["counters"]
            assert counters["svc.stuck_killed"] >= 1


class TestOverloadShedding:
    def test_full_queue_sheds_503_not_429(self, tmp_path, scoped_metrics,
                                          clean_faults):
        """Past the global queue watermark submissions shed with 503 +
        Retry-After — a different contract from the per-tenant 429 —
        while already-admitted jobs complete byte-identically."""
        marker = str(tmp_path / "marker")
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=60.0,
            match=(("program", "fig1a"),), times=1, marker=marker))
        config = ServiceConfig(state_dir=str(tmp_path / "state"),
                               workers=1, queue_max=2,
                               shed_retry_after_s=7.0)
        with ServiceThread(config) as svc:
            client = _client(svc)
            blocker = client.submit(dict(TINY))
            _wait_state(client, blocker["id"], "running")
            # the blocker must own the single stall slot before anything
            # else happens, or a queued job could claim it later and
            # stall with nobody left to cancel it
            _wait_marker(marker)
            queued = [client.submit(dict(TINY, artifacts=["patterns"]))
                      for _ in range(2)]
            assert all(j["state"] == "queued" for j in queued)
            with pytest.raises(ServiceUnavailable) as err:
                client.submit(dict(TINY))
            assert err.value.status == 503
            assert err.value.retry_after == 7.0
            assert "queue is full" in err.value.message
            assert not isinstance(err.value, QuotaExceeded)
            counters = client.metrics()["counters"]
            assert counters["svc.shed"] >= 1
            assert counters.get("svc.rejected", 0) == 0
            # clear the stalled blocker; the admitted jobs drain and
            # produce identical content-addressed artifacts
            client.cancel(blocker["id"])
            digests = []
            for j in queued:
                done = client.wait(j["id"], timeout=60)
                assert done["state"] == "done"
                digests.append(next(
                    a["digest"] for a in client.artifacts(j["id"])
                    if a["name"] == "patterns"))
            assert digests[0] == digests[1]
            served = client.fetch_artifact(queued[0]["id"], "patterns")
        assert served == _direct_patterns()

    def test_shed_clears_when_queue_drains(self, tmp_path, scoped_metrics):
        config = ServiceConfig(state_dir=str(tmp_path), workers=2,
                               queue_max=1)
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(TINY))
            assert client.wait(job["id"], timeout=60)["state"] == "done"
            # queue is empty again: the next submission is admitted
            job2 = client.submit(dict(TINY))
            assert client.wait(job2["id"], timeout=60)["state"] == "done"


class TestGracefulDrain:
    def test_drain_finishes_running_record_keeps_queued(
            self, tmp_path, scoped_metrics, clean_faults):
        """During drain the server answers polls but sheds submits and
        degrades healthz; the running job finishes inside the drain
        window and queued jobs survive in their records for the next
        server."""
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=2.0,
            match=(("program", "fig1a"),), times=1,
            marker=str(tmp_path / "marker")))
        state_dir = str(tmp_path / "state")
        config = ServiceConfig(state_dir=state_dir, workers=1,
                               drain_timeout_s=30.0)
        with ServiceThread(config) as svc:
            client = _client(svc)
            running = client.submit(dict(TINY, artifacts=["patterns"]))
            _wait_state(client, running["id"], "running")
            queued = client.submit(dict(TINY, artifacts=["patterns"]))
            assert client.health()["ok"]

            stop = asyncio.run_coroutine_threadsafe(
                svc.service.stop(), svc._loop)
            # healthz degrades to 503 (tolerated by the client) with a
            # draining payload, so load balancers stop routing here
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                health = client.health()
                if health.get("draining"):
                    break
                time.sleep(0.02)
            assert health["draining"] and not health["ok"]
            # new work bounces while polls keep working
            with pytest.raises(ServiceUnavailable) as err:
                client.submit(dict(TINY))
            assert "draining" in err.value.message
            assert client.status(running["id"])["state"] in (
                "running", "done")
            stop.result(timeout=60)

            # the running job finished inside the window; the queued
            # one was never started and stays recorded as queued
            assert svc.service.store.jobs[running["id"]].state == "done"
            assert svc.service.store.jobs[queued["id"]].state == "queued"
        clean_faults.clear()

        store = JobStore(state_dir)
        store.recover()
        assert store.jobs[queued["id"]].state == "queued"
        with ServiceThread(ServiceConfig(state_dir=state_dir,
                                         workers=1)) as svc:
            client = _client(svc)
            done = client.wait(queued["id"], timeout=60)
            assert done["state"] == "done"
            # queued (not interrupted): this was its first attempt
            assert done["resumed"] == 0
            a1 = {a["name"]: a["digest"]
                  for a in client.artifacts(running["id"])}
            a2 = {a["name"]: a["digest"]
                  for a in client.artifacts(queued["id"])}
            # drained and post-restart runs content-address identically
            assert a1["patterns"] == a2["patterns"]


def _orphan_worker_main(job_dir):
    """Stand-in for a worker that outlived a SIGKILLed server."""
    from repro.service.supervise import write_worker_identity
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    write_worker_identity(job_dir)
    time.sleep(120)


@pytest.mark.slow
class TestOrphanReaping:
    def test_restarted_server_reaps_orphan_then_reruns_job(
            self, tmp_path, scoped_metrics):
        """A record that says "running" plus a live worker identity is
        the crashed-server signature: the replacement server must kill
        the orphan before re-launching, and end with exactly one copy
        of each artifact."""
        state_dir = str(tmp_path)
        store = JobStore(state_dir)
        job = store.submit("default", JobSpec(
            workload="fig1", params={"n": 24, "m": 24},
            artifacts=["patterns", "manifest"]))
        store.mark_started(job.id)
        ctx = multiprocessing.get_context("fork")
        orphan = ctx.Process(target=_orphan_worker_main,
                             args=(store.job_dir(job.id),), daemon=True)
        orphan.start()
        from repro.service.supervise import read_worker_identity
        deadline = time.monotonic() + 10
        while (read_worker_identity(store.job_dir(job.id)) is None
               and time.monotonic() < deadline):
            time.sleep(0.02)

        with ServiceThread(ServiceConfig(state_dir=state_dir,
                                         workers=1,
                                         kill_grace_s=2.0)) as svc:
            client = _client(svc)
            done = client.wait(job.id, timeout=120)
            assert done["state"] == "done"
            assert done["resumed"] >= 1
            counters = client.metrics()["counters"]
            assert counters["svc.orphans_reaped"] == 1
            artifacts = client.artifacts(job.id)
            # exactly one blob per digest on disk, no duplicates
            for art in artifacts:
                blob = os.path.join(state_dir, "cache", "blobs",
                                    art["digest"][:2],
                                    art["digest"] + ".bin")
                assert os.path.exists(blob)
                assert os.path.getsize(blob) == art["bytes"]
            served = client.fetch_artifact(job.id, "patterns")
        orphan.join(timeout=10)
        assert orphan.exitcode == -signal.SIGTERM
        assert served == _direct_patterns()
