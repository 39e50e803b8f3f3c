"""SIGKILL durability: a hard-killed server resumes from its job store.

Unlike the in-process restart tests, this one runs ``repro serve`` as a
real subprocess and SIGKILLs the whole process group mid-job — no
graceful teardown, no atexit, nothing.  The restarted server must
read back the job records, re-run the interrupted job, and publish artifacts
that deduplicate content-addressed against any the killed attempt
already wrote.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.service.client import ServiceClient
from repro.service.jobs import JobStore
from repro.service.server import SERVICE_FILE

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="needs POSIX process groups")


def _env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_server(state_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", state_dir,
         "--workers", "1"],
        env=_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30
    path = os.path.join(state_dir, SERVICE_FILE)
    while time.monotonic() < deadline:
        if os.path.exists(path):
            try:
                info = json.loads(open(path).read())
            except ValueError:
                info = {}
            if info.get("pid") == proc.pid:
                return proc
        if proc.poll() is not None:
            raise AssertionError(f"server died at startup "
                                 f"(rc={proc.returncode})")
        time.sleep(0.05)
    proc.kill()
    raise TimeoutError("server never wrote service.json")


def test_sigkill_mid_job_then_restart_resumes(tmp_path):
    state_dir = str(tmp_path)
    server = _start_server(state_dir)
    job_id = None
    try:
        client = ServiceClient.from_state_dir(state_dir)
        # big enough that the analysis is still running when we kill
        job_id = client.submit({"workload": "sweep3d",
                                "params": {"mesh": 10},
                                "artifacts": ["patterns",
                                              "manifest"]})["id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job_id)["state"] == "running":
                break
            time.sleep(0.02)
        else:
            raise TimeoutError("job never started running")
    finally:
        # SIGKILL the whole group: server AND its job worker, no unwind
        os.killpg(server.pid, signal.SIGKILL)
        server.wait(timeout=30)

    # the job record survived the kill intact and reads back as queued
    store = JobStore(state_dir)
    requeued = store.recover()
    assert [j.id for j in requeued] == [job_id]
    assert store.jobs[job_id].resumed >= 1

    server = _start_server(state_dir)
    try:
        client = ServiceClient.from_state_dir(state_dir)
        done = client.wait(job_id, timeout=180, poll_s=0.2)
        assert done["state"] == "done"
        assert done["resumed"] >= 1
        assert done["totals"]["L2"] > 0
        artifacts = client.artifacts(job_id)
        assert {a["name"] for a in artifacts} == {"patterns", "manifest"}
        # content-addressed: each digest exists exactly once on disk,
        # even if the killed attempt had already published it
        for art in artifacts:
            blob = os.path.join(state_dir, "cache", "blobs",
                                art["digest"][:2],
                                art["digest"] + ".bin")
            assert os.path.exists(blob)
            assert os.path.getsize(blob) == art["bytes"]
        data = client.fetch_artifact(job_id, "patterns")
        assert len(data) == next(a["bytes"] for a in artifacts
                                 if a["name"] == "patterns")
        assert client.metrics()["counters"].get("svc.resumed", 0) >= 1
    finally:
        # graceful this time: SIGTERM must exit 0 (the CI smoke relies
        # on the same contract)
        os.killpg(server.pid, signal.SIGTERM)
        rc = server.wait(timeout=30)
    assert rc == 0
