"""Child-process entry point: run one analysis job, publish artifacts.

The server launches :func:`job_process_main` in its own
``multiprocessing.Process`` per job — a crash (OOM, segfault, operator
``kill``) takes down one job, never the listener.  The worker:

1. arms clean SIGTERM unwinding (cancellation = SIGTERM from the
   server, surfacing here as ``SystemExit`` so ``finally`` blocks run);
2. reads the immutable ``spec.json`` from its job directory;
3. builds the workload from :mod:`repro.apps.registry` and runs a
   normal :class:`~repro.tools.session.AnalysisSession` against the
   service's shared :class:`~repro.tools.cache.AnalysisCache`
   (``shared=True``: writes serialize on the writer lock, reads stay
   lock-free and digest-verified);
4. publishes each requested artifact content-addressed into the cache's
   blob store — identical bytes land at one address, so a job re-run
   after a server crash deduplicates instead of duplicating;
5. writes ``result.json`` atomically with totals, artifact digests, and
   the worker's metric snapshot for the parent to merge.

Progress is visible throughout via atomic rewrites of ``status.json``
(``phase`` walks build → analyze → predict → artifacts; ``trace_path``
appears once a spilled recording resolves, and ``repro gc`` pins the
store it names).  A daemon heartbeat thread
(:class:`StatusReporter`) re-stamps the same file every ``heartbeat_s``
with a fresh timestamp and the worker's current RSS — the liveness and
memory signal the scheduler-side supervisor
(:mod:`repro.service.supervise`) enforces ceilings against.  The worker
also records its (pid, start-ticks) identity in ``worker.json`` so a
replacement server can reap it if this server dies without cleanup.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import os
import pickle
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

logger = logging.getLogger("repro.service.worker")

#: worker exit codes the server maps back to job states
EXIT_OK = 0
EXIT_FAILED = 1

#: every module a job can import: the workload kernels, the session and
#: its engines, the static estimators, the cache and the artifact renderers,
#: plus what numpy and the stdlib load on first use (``np.unique`` reads
#: ``np.ma``; a sharded job starts a pool).  The server imports them
#: before its first fork (:func:`preload`), so each job inherits them
#: instead of importing them itself.
JOB_MODULES = (
    "numpy.ma",
    "multiprocessing.pool", "multiprocessing.popen_fork",
    "multiprocessing.queues", "multiprocessing.synchronize",
    "repro.apps.registry", "repro.apps.gtc", "repro.apps.kernels",
    "repro.apps.spcg", "repro.apps.sweep3d",
    "repro.core.npengine", "repro.core.shard", "repro.core.tracestore",
    "repro.service.jobs", "repro.service.supervise",
    "repro.static.closedform", "repro.static.profile",
    "repro.static.segments",
    "repro.tools.cache", "repro.tools.htmlreport", "repro.tools.session",
    "repro.tools.viewer",
)


def preload() -> None:
    """Import :data:`JOB_MODULES` into this (the forking) process."""
    for name in JOB_MODULES:
        importlib.import_module(name)


def _write_status(job_dir: str, **fields: Any) -> None:
    from repro.tools.atomicio import atomic_write_text
    fields.setdefault("ts", time.time())
    atomic_write_text(os.path.join(job_dir, "status.json"),
                      json.dumps(fields, sort_keys=True) + "\n")


class StatusReporter:
    """Heartbeating owner of a job's ``status.json``.

    Phase transitions call :meth:`update` (immediate atomic rewrite); a
    daemon thread re-writes the same fields every ``heartbeat_s`` with a
    fresh ``ts`` and the worker's current RSS, so a worker stalled
    inside one phase still proves liveness — and a leaking one reports
    the growth that gets it killed.  ``heartbeat_s <= 0`` disables the
    thread; updates still write through.
    """

    def __init__(self, job_dir: str, heartbeat_s: float = 0.0) -> None:
        self.job_dir = job_dir
        self.heartbeat_s = heartbeat_s
        self._fields: Dict[str, Any] = {"pid": os.getpid()}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def update(self, **fields: Any) -> None:
        with self._lock:
            self._fields.update(fields)
            snapshot = dict(self._fields)
        self._write(snapshot)

    def _write(self, snapshot: Dict[str, Any]) -> None:
        from repro.service.supervise import rss_mb
        snapshot["rss_mb"] = round(rss_mb(), 1)
        snapshot.pop("ts", None)  # _write_status stamps fresh
        try:
            _write_status(self.job_dir, **snapshot)
        except OSError:  # pragma: no cover - job dir vanished under us
            pass

    def start(self) -> None:
        if self.heartbeat_s <= 0 or self._thread is not None:
            return
        self._thread = threading.Thread(target=self._beat,
                                        name="status-heartbeat",
                                        daemon=True)
        self._thread.start()

    def _beat(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            with self._lock:
                snapshot = dict(self._fields)
            self._write(snapshot)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


def _artifact_bytes(session, kind: str) -> bytes:
    """Render one artifact kind to its canonical bytes."""
    if kind == "patterns":
        return pickle.dumps(session.analyzer.dump_state(),
                            protocol=pickle.HIGHEST_PROTOCOL)
    if kind == "manifest":
        return (session.manifest.to_json() + "\n").encode()
    if kind == "report":
        from repro.tools.htmlreport import render_html
        return render_html(session).encode()
    if kind == "xml":
        return session.export_xml(None).encode()
    raise ValueError(f"unknown artifact kind {kind!r}")


def run_job(job_dir: str, cache_dir: str,
            trace_dir: Optional[str] = None,
            heartbeat_s: float = 0.0) -> Dict[str, Any]:
    """Execute the job described by ``<job_dir>/spec.json``.

    Returns the result dict (also written to ``result.json``).  Raises
    nothing job-related — failures land in the result with
    ``status: "failed"``; only truly unexpected states (unreadable spec)
    raise out to :func:`job_process_main`.
    """
    # the clock starts before the imports: a job forked from a server
    # that did not preload them pays for them here, and wall_s shows it
    t0 = time.time()
    from repro.apps.registry import build_workload, workload_params
    from repro.obs import metrics as _obs
    from repro.service.jobs import ARTIFACT_KINDS, JobSpec
    from repro.service.supervise import write_worker_identity
    from repro.testing import faults as _faults
    from repro.tools.atomicio import atomic_write_text
    from repro.tools.cache import AnalysisCache
    from repro.tools.session import AnalysisSession

    with open(os.path.join(job_dir, "spec.json"), encoding="utf-8") as f:
        spec = JobSpec.from_dict(json.load(f))

    write_worker_identity(job_dir)
    reporter = StatusReporter(job_dir, heartbeat_s=heartbeat_s)
    reporter.update(phase="build")
    reporter.start()
    # chaos hook: lets the fault harness stall/leak/kill this worker at
    # a deterministic point (after identity + first heartbeat exist)
    _faults.fire("service.worker", workload=spec.workload,
                 job=os.path.basename(job_dir))
    result: Dict[str, Any] = {"status": "failed", "totals": {},
                              "artifacts": [], "error": ""}
    try:
        params = dict(workload_params(spec.workload))
        params.update(spec.params)
        program = build_workload(spec.workload, **params)
        cache = AnalysisCache(cache_dir, shared=True)
        session = AnalysisSession(
            program,
            miss_model=spec.miss_model,
            engine=spec.engine,
            cache=cache,
            shards=spec.shards,
            trace_store=(trace_dir if spec.use_trace_store else None),
            spill_mb=spec.spill_mb,
            closed_form=spec.closed_form,
            # the derivation cache entry lives in the shared analysis
            # cache, so restarted services and sibling jobs reuse it
            closed_form_spec=({"workload": spec.workload,
                               "params": params}
                              if spec.closed_form else None),
        )
        reporter.update(phase="analyze")
        session.run()
        if session.trace_path:
            reporter.update(phase="predict",
                            trace_path=session.trace_path)
        else:
            reporter.update(phase="predict")
        totals = session.totals()

        reporter.update(phase="artifacts",
                        trace_path=session.trace_path)
        artifacts: List[Dict[str, Any]] = []
        deduped = 0
        for kind in spec.artifacts:
            data = _artifact_bytes(session, kind)
            digest = hashlib.sha256(data).hexdigest()
            if cache.put_blob(digest, data):
                deduped += 1
                _obs.counter("svc.artifacts_deduped").inc()
            _obs.counter("svc.artifacts_published").inc()
            artifacts.append({"name": kind,
                              "file": ARTIFACT_KINDS[kind],
                              "digest": digest,
                              "bytes": len(data)})
        result = {
            "status": "done",
            "totals": totals,
            "artifacts": artifacts,
            "artifacts_deduped": deduped,
            "from_cache": session.from_cache,
            "fallback": session.fallback,
            "trace_path": session.trace_path,
            "wall_s": round(time.time() - t0, 6),
            "metrics": _obs.snapshot() if _obs.is_enabled() else {},
            "error": "",
        }
    except SystemExit:
        # SIGTERM (cancellation or a supervisor kill) unwinding through
        # install_term_handler
        reporter.stop()
        _write_status(job_dir, phase="cancelled", pid=os.getpid())
        raise
    except Exception as exc:  # job failure, not a server failure
        from repro.tools.resilience import WorkerFailure
        failure = WorkerFailure.from_exception(exc)
        logger.warning("job in %s failed: %s", job_dir, failure.summary)
        result["error"] = failure.summary
        result["wall_s"] = round(time.time() - t0, 6)
        if _obs.is_enabled():
            result["metrics"] = _obs.snapshot()
    finally:
        reporter.stop()
    atomic_write_text(os.path.join(job_dir, "result.json"),
                      json.dumps(result, sort_keys=True) + "\n")
    return result


def job_process_main(job_dir: str, cache_dir: str,
                     trace_dir: Optional[str] = None,
                     obs_enabled: bool = False,
                     log_level: Optional[int] = None,
                     fault_specs: Sequence = (),
                     heartbeat_s: float = 0.5,
                     ) -> None:
    """``multiprocessing.Process`` target for one job.

    State is passed explicitly (not inherited) so the worker behaves
    identically under fork and spawn start methods — the same
    discipline as the sweep pool initializer.  Exit code 0 = result
    written with ``status: "done"``; 1 = written with ``"failed"``;
    128+SIGTERM = cancelled mid-run.
    """
    from repro.obs import metrics as _obs
    from repro.testing import faults as _faults
    from repro.tools.resilience import install_term_handler

    install_term_handler()
    _obs.set_enabled(obs_enabled)
    # a forked child inherits the parent's registry; start from zero so
    # the result snapshot merges cleanly instead of double-counting
    _obs.reset()
    if log_level is not None:
        logging.getLogger("repro").setLevel(log_level)
    if fault_specs:
        _faults.set_specs(fault_specs)
    result = run_job(job_dir, cache_dir, trace_dir,
                     heartbeat_s=heartbeat_s)
    sys.exit(EXIT_OK if result.get("status") == "done" else EXIT_FAILED)
