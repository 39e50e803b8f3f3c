"""The fork template: the server process every job is forked from.

``repro serve`` imports every module a job can reach before its first
fork (``repro.service.worker.preload``), so a forked job inherits them
instead of importing them on every run.  This test brings a service up
in a fresh interpreter the way ``repro serve`` does, snapshots
``sys.modules``, then runs jobs of every path in-process, cache miss and
cache hit, with every artifact kind: none of them may import a module.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

ARTIFACTS = ["patterns", "manifest", "report", "xml"]
SPECS = [
    {"workload": "fig1", "params": {"n": 24, "m": 24}, "engine": "numpy"},
    {"workload": "cg", "params": {"grid": 6}, "engine": "fenwick"},
    {"workload": "fig2", "params": {"n": 16, "m": 16}, "engine": "treap"},
    {"workload": "sweep3d", "params": {"mesh": 4}, "engine": "static"},
    {"workload": "triad", "params": {"n": 256}, "engine": "static",
     "closed_form": True},
    {"workload": "sweep3d", "params": {"mesh": 4}, "shards": 2},
    {"workload": "fig1", "params": {"n": 24, "m": 24}, "shards": 2,
     "use_trace_store": True, "spill_mb": 1},
]

SCRIPT = """
import json, os, sys, tempfile
import repro.cli  # what `python -m repro` loads before dispatching
from repro.service.server import ServiceConfig, ServiceThread

state = tempfile.mkdtemp(prefix="fork-template-")
with ServiceThread(ServiceConfig(state_dir=os.path.join(state, "svc"),
                                 workers=1)):
    template = set(sys.modules)
from repro.service.jobs import JobSpec, JobStore
from repro.service.worker import run_job

store = JobStore(os.path.join(state, "jobs"))
runs = []
for _ in ("miss", "hit"):
    for spec in json.loads(sys.argv[1]):
        job = store.submit("t", JobSpec.from_dict(spec))
        result = run_job(store.job_dir(job.id), os.path.join(state, "cache"),
                         os.path.join(state, "traces"))
        runs.append([result["status"], result["from_cache"]])
print(json.dumps({"runs": runs,
                  "imported": sorted(set(sys.modules) - template)}))
"""


def test_jobs_import_nothing_the_server_did_not():
    specs = [dict(spec, artifacts=ARTIFACTS) for spec in SPECS]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(specs)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert [status for status, _ in report["runs"]] == ["done"] * 14
    # the second round is served from the analysis cache
    assert [hit for _, hit in report["runs"][7:]] == [True] * 7
    assert report["imported"] == []
