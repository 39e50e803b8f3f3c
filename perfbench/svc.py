"""The service-roundtrip workload: ``python -m repro serve`` as its own
process, one closed-loop client.

One request is ``ServiceClient.submit`` -> ``wait`` -> ``fetch_artifact
("patterns")``.  Each round starts a fresh server on a fresh state dir,
so a spec's first submission is a new job and its later ones repeats
the server's analysis cache serves.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from decks import Request
from paper import Result
from spans import Recorder
from speed import calibrate, scale, scale_all

#: status poll interval of the client's wait loop
POLL_S = 0.01
#: calibration samples taken before each server spawn
CAL_SAMPLES = 9
#: a job outside the deck, run once per server before timing starts
WARMUP_SPEC = {"workload": "cg", "params": {"grid": 8}}


def spec_for(req: Request) -> Dict:
    return {"workload": req.kernel, "params": req.param_dict,
            "engine": req.path, "miss_model": req.miss_model}


def spec_key(req: Request) -> str:
    """Reference key of a spec's patterns (the miss model only changes
    predictions, not patterns)."""
    return f"{req.key}/{req.path}"


#: job workers: one client keeps at most one job in flight, so one
#: worker is all it can use (and at most nproc - 1 on any host with 2+)
WORKERS = "1"


class Server:
    """A ``repro serve`` child process on its own state dir."""

    def __init__(self, root: str, state_dir: str, log_path: str) -> None:
        self.root = root
        self.state_dir = state_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.client = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for a healthy ``healthz``; returns the seconds
        from spawn to healthy."""
        from repro.service.client import ServiceClient
        from repro.service.server import SERVICE_FILE
        n = WORKERS
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        t0 = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--state-dir", self.state_dir, "--workers", n,
                 "--max-concurrent", n],
                cwd=self.root, env=env, stdout=log, stderr=log)
        deadline = t0 + timeout
        info = os.path.join(self.state_dir, SERVICE_FILE)
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f"; see {self.log_path}")
            if os.path.exists(info):
                try:
                    client = ServiceClient.from_state_dir(self.state_dir,
                                                          timeout=30.0)
                    if client.health().get("ok"):
                        self.client = client
                        return time.perf_counter() - t0
                    client.close()
                except (OSError, ValueError):
                    pass  # service.json mid-write or socket not bound yet
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy after {timeout:g}s")

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def counters(client) -> Dict[str, int]:
    return dict(client.metrics().get("counters", {}))


def run_request(client, req: Request, checker, rec: Recorder, rid: str
                ) -> Result:
    from repro.service.client import QuotaExceeded, ServiceUnavailable
    res = Result(req, rid=rid)
    rec.request = rid
    try:
        t0 = time.perf_counter()
        with rec.span("request"):
            job = client.submit(spec_for(req))
            final = client.wait(job["id"], timeout=120.0, poll_s=POLL_S)
            data = client.fetch_artifact(job["id"], "patterns")
        res.wall = time.perf_counter() - t0
        rec.request = None
        res.accesses = checker.point(req.key)["accesses"]
        res.error = checker.check_artifact(spec_key(req), data)
        manifest = json.loads(client.fetch_artifact(job["id"], "manifest"))
        res.fallback = bool(manifest.get("fallback"))
        res.from_cache = bool(manifest["cache"]["hit"])
        res.extra.update(queue_wait_s=final["started"] - final["created"],
                         run_s=final["finished"] - final["started"])
    except (QuotaExceeded, ServiceUnavailable) as exc:
        res.error = f"refused: {exc}"
        res.extra["refused"] = True
    except Exception as exc:  # a failed request is counted, not fatal
        res.error = f"{type(exc).__name__}: {exc}"
    finally:
        rec.request = None
    return res


def run_round(root: str, workdir: str, index: int, deck: List[Request],
              checker, rec: Recorder) -> Tuple[List[Result], float, Dict]:
    """Start a fresh server, warm it up with one job outside the deck,
    run the deck, stop the server.

    Returns the results, the server's spawn-to-healthy seconds (raw and
    at the reference speed), and the ``/v1/metrics`` counter deltas
    over the deck.
    """
    state_dir = os.path.join(workdir, f"svc-{index}")
    server = Server(root, state_dir, os.path.join(workdir, "serve.log"))
    try:
        before_start = [calibrate() for _ in range(CAL_SAMPLES)]
        ready_s = server.start()
        ready = (ready_s, scale(ready_s, before_start))
        client = server.client
        client.wait(client.submit(WARMUP_SPEC)["id"], poll_s=POLL_S)
        before = counters(client)
        results, samples = [], []
        for i, req in enumerate(deck):
            samples.append(calibrate())
            results.append(run_request(client, req, checker, rec,
                                       f"r{index}.{i}"))
        samples.append(calibrate())
        after = counters(client)
    finally:
        server.stop()
    for res, scaled in zip(results, scale_all([r.wall for r in results],
                                              samples)):
        res.scaled = scaled
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    return results, ready, delta


def probe(root: str, workdir: str, index: int) -> Tuple[float, float]:
    """Spawn-to-healthy seconds (raw, at the reference speed) of a
    server that is stopped at once."""
    server = Server(root, os.path.join(workdir, f"probe-{index}"),
                    os.path.join(workdir, "serve.log"))
    try:
        # calibrated before the spawn only: a server that has just come
        # up is still busy and would slow a calibration taken after it
        before = [calibrate() for _ in range(CAL_SAMPLES)]
        ready_s = server.start()
        return ready_s, scale(ready_s, before)
    finally:
        server.stop()
