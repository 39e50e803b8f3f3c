"""The scheduler reaps a job when its worker exits, not at the idle tick.

A child closes its sentinel a moment before the parent can wait on it,
so the reaper can find a child whose sentinel fired still alive.  This
test makes that race certain (every child reads alive once after it has
exited) and stretches the idle tick to 30 s, so a job reaches ``done``
within seconds only if the reaper looks again on its own.
"""

import json
from multiprocessing.process import BaseProcess

from repro.service import server
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceThread

SPEC = {"workload": "fig1", "params": {"n": 24, "m": 24}}


def test_exited_worker_reaped_without_idle_tick(tmp_path, monkeypatch,
                                                scoped_metrics):
    monkeypatch.setattr(server, "SCHEDULE_TICK_S", 30.0)
    real_is_alive = BaseProcess.is_alive
    lied = set()

    def alive_once_more(proc):
        alive = real_is_alive(proc)
        if not alive and proc.pid not in lied:
            lied.add(proc.pid)
            return True
        return alive

    monkeypatch.setattr(BaseProcess, "is_alive", alive_once_more)
    config = ServiceConfig(state_dir=str(tmp_path), workers=1)
    with ServiceThread(config) as svc:
        client = ServiceClient("127.0.0.1", svc.port)
        first = client.submit(dict(SPEC))
        client.wait(first["id"], timeout=10, poll_s=0.02)
        repeat = client.submit(dict(SPEC))
        record = client.wait(repeat["id"], timeout=5, poll_s=0.02)
        manifest = json.loads(client.fetch_artifact(repeat["id"],
                                                    "manifest"))
    assert record["state"] == "done"
    assert manifest["cache"]["hit"] is True
    # both workers exited into the race the reaper has to win
    assert len(lied) == 2
