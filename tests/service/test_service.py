"""End-to-end service tests over a live in-process server.

Each test runs a real :class:`AnalysisService` (own thread, own event
loop, real sockets, real ``multiprocessing`` job workers) and talks to
it through the bundled blocking :class:`ServiceClient` — the same path
the CI smoke job exercises.
"""

import pickle
import time

import pytest

from repro.service.client import QuotaExceeded, ServiceClient
from repro.service.quota import TenantQuota
from repro.service.server import ServiceConfig, ServiceThread
from repro.testing.faults import FaultSpec

TINY = {"workload": "fig1", "params": {"n": 24, "m": 24}}


def _client(svc, tenant="default"):
    return ServiceClient("127.0.0.1", svc.port, tenant=tenant)


def _wait_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.status(job_id)
        if job["state"] == state:
            return job
        if job["state"] in ("done", "failed", "cancelled"):
            raise AssertionError(f"job reached {job['state']} while "
                                 f"waiting for {state}: {job}")
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} never reached {state}")


class TestLifecycle:
    def test_submit_poll_fetch(self, tmp_path, scoped_metrics):
        config = ServiceConfig(state_dir=str(tmp_path), workers=2)
        with ServiceThread(config) as svc:
            client = _client(svc)
            assert client.health()["ok"]
            job = client.submit(dict(
                TINY, artifacts=["patterns", "manifest", "xml", "report"]))
            assert job["state"] == "queued"
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done"
            assert done["totals"]["L2"] > 0
            names = {a["name"] for a in client.artifacts(job["id"])}
            assert names == {"patterns", "manifest", "xml", "report"}
            for art in client.artifacts(job["id"]):
                data = client.fetch_artifact(job["id"], art["name"])
                assert len(data) == art["bytes"]
            manifest = client.fetch_artifact(job["id"], "manifest")
            assert b'"program"' in manifest
            report = client.fetch_artifact(job["id"], "report")
            assert report.startswith(b"<!DOCTYPE html>")
            counters = client.metrics()["counters"]
            assert counters["svc.submitted"] == 1
            assert counters["svc.completed"] == 1

    def test_artifact_bytes_identical_to_direct_run(self, tmp_path,
                                                    scoped_metrics):
        config = ServiceConfig(state_dir=str(tmp_path))
        spec = {"workload": "sweep3d", "params": {"mesh": 6},
                "artifacts": ["patterns", "xml"]}
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(spec))
            client.wait(job["id"], timeout=120)
            served_patterns = client.fetch_artifact(job["id"], "patterns")
            served_xml = client.fetch_artifact(job["id"], "xml")

        from repro.apps.registry import build_workload, workload_params
        from repro.tools.session import AnalysisSession
        params = dict(workload_params("sweep3d"))
        params["mesh"] = 6
        session = AnalysisSession(build_workload("sweep3d", **params))
        session.run()
        direct_patterns = pickle.dumps(session.analyzer.dump_state(),
                                       protocol=pickle.HIGHEST_PROTOCOL)
        assert served_patterns == direct_patterns
        assert served_xml.decode() == session.export_xml(None)

    def test_repeat_submission_dedups_artifacts(self, tmp_path,
                                                scoped_metrics):
        config = ServiceConfig(state_dir=str(tmp_path))
        with ServiceThread(config) as svc:
            client = _client(svc)
            first = client.submit(dict(TINY))
            client.wait(first["id"], timeout=60)
            second = client.submit(dict(TINY))
            client.wait(second["id"], timeout=60)
            a1 = {a["name"]: a["digest"]
                  for a in client.artifacts(first["id"])}
            a2 = {a["name"]: a["digest"]
                  for a in client.artifacts(second["id"])}
            # identical analysis -> identical content address for the
            # deterministic artifact, and the second publish was a
            # dedup, not a second copy
            assert a1["patterns"] == a2["patterns"]
            # the manifest is a run record (timestamps, from_cache,
            # phase timings), so its digest legitimately differs
            assert a1["manifest"] != a2["manifest"]
            counters = client.metrics()["counters"]
            assert counters["svc.artifacts_deduped"] >= 1

    def test_failed_job_reports_error(self, tmp_path, scoped_metrics):
        config = ServiceConfig(state_dir=str(tmp_path))
        with ServiceThread(config) as svc:
            client = _client(svc)
            # an engine mismatch deep in the run: sharded jobs fall
            # back, but a plain fenwick failure surfaces as failed.
            # Simplest deterministic failure: unknown param slips past
            # nothing, so use a fault-free path — submit a job whose
            # params make the workload builder raise (kb must divide n)
            job = client.submit({"workload": "sweep3d",
                                 "params": {"mesh": 9, "kb": 2}})
            with pytest.raises(Exception) as err:
                client.wait(job["id"], timeout=60)
            assert "failed" in str(err.value)
            status = client.status(job["id"])
            assert status["state"] == "failed"
            assert status["error"]
            counters = client.metrics()["counters"]
            assert counters["svc.failed"] == 1

    def test_unknown_routes_and_jobs(self, tmp_path, scoped_metrics):
        from repro.service.client import ServiceError
        config = ServiceConfig(state_dir=str(tmp_path))
        with ServiceThread(config) as svc:
            client = _client(svc)
            with pytest.raises(ServiceError) as err:
                client.status("nothere")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/v2/jobs")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/jobs",
                                body=None, raw=False)  # no body
            assert err.value.status == 400

    def test_bad_spec_is_400(self, tmp_path, scoped_metrics):
        from repro.service.client import ServiceError
        config = ServiceConfig(state_dir=str(tmp_path))
        with ServiceThread(config) as svc:
            client = _client(svc)
            with pytest.raises(ServiceError) as err:
                client.submit({"workload": "not-a-workload"})
            assert err.value.status == 400
            assert "unknown workload" in err.value.message


class TestQuota:
    def test_queue_quota_429_other_tenants_unaffected(
            self, tmp_path, scoped_metrics, clean_faults):
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=60.0,
            match=(("program", "fig1a"),), times=0))
        config = ServiceConfig(
            state_dir=str(tmp_path), workers=1,
            default_quota=TenantQuota(max_concurrent=1, max_queued=1),
            retry_after_s=3.0)
        with ServiceThread(config) as svc:
            client = _client(svc, tenant="busy")
            running = client.submit(dict(TINY))
            _wait_state(client, running["id"], "running")
            queued = client.submit(dict(TINY))
            assert queued["state"] == "queued"
            with pytest.raises(QuotaExceeded) as err:
                client.submit(dict(TINY))
            assert err.value.retry_after == 3.0
            assert "busy" in err.value.message
            # an unrelated tenant still gets in
            other = ServiceClient("127.0.0.1", svc.port, tenant="idle")
            accepted = other.submit(dict(TINY))
            assert accepted["state"] == "queued"
            counters = client.metrics()["counters"]
            assert counters["svc.rejected"] == 1
            # unblock shutdown: cancel everything
            client.cancel(queued["id"])
            client.cancel(running["id"])
            other.cancel(accepted["id"])

    def test_oversize_body_429(self, tmp_path, scoped_metrics):
        config = ServiceConfig(state_dir=str(tmp_path),
                               max_request_bytes=512, retry_after_s=1.0)
        with ServiceThread(config) as svc:
            client = _client(svc)
            with pytest.raises(QuotaExceeded) as err:
                client.submit(dict(TINY, params={"n": 24, "m": 24},
                                   padding="x" * 2048))
            assert err.value.retry_after == 1.0

    def test_concurrency_cap_queues_not_rejects(self, tmp_path,
                                                scoped_metrics):
        config = ServiceConfig(
            state_dir=str(tmp_path), workers=4,
            default_quota=TenantQuota(max_concurrent=1, max_queued=16))
        with ServiceThread(config) as svc:
            client = _client(svc)
            ids = [client.submit(dict(TINY))["id"] for _ in range(3)]
            for job_id in ids:
                done = client.wait(job_id, timeout=120)
                assert done["state"] == "done"


class TestCancel:
    def test_cancel_queued_job(self, tmp_path, scoped_metrics,
                               clean_faults):
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=60.0, times=0))
        config = ServiceConfig(state_dir=str(tmp_path), workers=1)
        with ServiceThread(config) as svc:
            client = _client(svc)
            running = client.submit(dict(TINY))
            _wait_state(client, running["id"], "running")
            queued = client.submit(dict(TINY))
            out = client.cancel(queued["id"])
            assert out["state"] == "cancelled"
            assert client.status(queued["id"])["state"] == "cancelled"
            client.cancel(running["id"])

    def test_cancel_running_job_mid_run(self, tmp_path, scoped_metrics,
                                        clean_faults):
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=120.0, times=0))
        config = ServiceConfig(state_dir=str(tmp_path), workers=1)
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(TINY))
            _wait_state(client, job["id"], "running")
            t0 = time.monotonic()
            out = client.cancel(job["id"])
            assert out["state"] == "cancelling"
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                state = client.status(job["id"])["state"]
                if state == "cancelled":
                    break
                time.sleep(0.05)
            assert state == "cancelled"
            # the 120s stall was interrupted, not waited out
            assert time.monotonic() - t0 < 30
            counters = client.metrics()["counters"]
            assert counters["svc.cancelled"] == 1

    def test_cancel_terminal_job_conflicts(self, tmp_path,
                                           scoped_metrics):
        from repro.service.client import ServiceError
        config = ServiceConfig(state_dir=str(tmp_path))
        with ServiceThread(config) as svc:
            client = _client(svc)
            job = client.submit(dict(TINY))
            client.wait(job["id"], timeout=60)
            with pytest.raises(ServiceError) as err:
                client.cancel(job["id"])
            assert err.value.status == 409


class TestRestartResume:
    def test_restart_resumes_queued_and_interrupted_jobs(
            self, tmp_path, scoped_metrics, clean_faults):
        state_dir = str(tmp_path)
        clean_faults.install(FaultSpec(
            point="session.run", action="stall", delay=120.0, times=0))
        config = ServiceConfig(state_dir=state_dir, workers=1)
        with ServiceThread(config) as svc:
            client = _client(svc)
            interrupted = client.submit(dict(TINY))["id"]
            _wait_state(client, interrupted, "running")
            queued = client.submit(dict(TINY))["id"]
            # graceful stop on exit: SIGTERMs the running worker and
            # records no terminal state for either job
        clean_faults.clear()

        with ServiceThread(ServiceConfig(state_dir=state_dir,
                                         workers=1)) as svc:
            client = _client(svc)
            for job_id in (interrupted, queued):
                done = client.wait(job_id, timeout=120)
                assert done["state"] == "done"
            assert client.status(interrupted)["resumed"] >= 1
            assert client.status(queued)["resumed"] == 0
            counters = client.metrics()["counters"]
            assert counters["svc.resumed"] >= 1

    def test_service_json_discovery(self, tmp_path, scoped_metrics):
        config = ServiceConfig(state_dir=str(tmp_path))
        with ServiceThread(config) as svc:
            client = ServiceClient.from_state_dir(str(tmp_path))
            assert client.port == svc.port
            assert client.health()["ok"]
