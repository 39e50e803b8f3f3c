"""Durable job records for the analysis service.

A job is *what to run* (:class:`JobSpec` — workload name, parameters,
engine/shard/spill options) plus *where it is* (:class:`Job` — lifecycle
state, timestamps, artifact digests).  The :class:`JobStore` keeps both
in one directory per job, ``jobs/<id>/``:

* ``spec.json`` — the immutable submission;
* ``job.json`` — the lifecycle record (:meth:`Job.to_dict` without the
  spec), rewritten at every transition before the scheduler acts on it;
* ``status.json`` — the worker's progress (phase, metric snapshots,
  heartbeat);
* ``result.json`` — the worker's terminal report (totals, artifact
  digests).

Each file is replaced atomically (tmp + rename, see
:mod:`repro.tools.atomicio`), so any reader — this server after a
restart, or another process such as ``repro jobs list`` — sees every
record whole, old or new.  No two jobs share a file, so no write needs
a lock.

On startup :meth:`JobStore.recover` scans the job dirs: queued jobs are
queued again, with the crash counter their record carries (the poison
threshold survives restarts); a job recorded ``running`` was
interrupted with the server, and is re-queued with ``resumed`` bumped —
the worker's artifacts are content-addressed, so a re-run deduplicates
against whatever the killed attempt already published.  Terminal jobs,
``failed_poison`` quarantine included, load as recorded.
"""

from __future__ import annotations

import json
import logging
import os
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.tools.atomicio import atomic_write_text

logger = logging.getLogger("repro.service.jobs")

#: artifact name -> filename the worker publishes under the job dir
#: (also the download name served by the artifact endpoint)
ARTIFACT_KINDS: Dict[str, str] = {
    "patterns": "patterns.pkl",   # analyzer dump_state, pickled
    "manifest": "manifest.json",  # RunManifest JSON
    "report": "report.html",      # standalone HTML report
    "xml": "db.xml",              # paper's XML database format
}

#: job lifecycle states; ``failed_poison`` is terminal quarantine for
#: specs that killed their worker ``poison_threshold`` times
STATES = ("queued", "running", "done", "failed", "cancelled",
          "failed_poison")
TERMINAL_STATES = ("done", "failed", "cancelled", "failed_poison")


class SpecError(ValueError):
    """A submitted job spec failed validation (surfaces as HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one analysis job."""

    workload: str
    params: Dict[str, Any] = field(default_factory=dict)
    engine: str = "numpy"
    shards: int = 1
    miss_model: str = "sa"
    #: spill a recording to a columnar trace store under the service
    #: state dir; only runs that record write one (a program the
    #: enumeration accepts is cut from its segment table instead)
    use_trace_store: bool = False
    #: in-memory buffer bound (MB) of that recording (needs
    #: ``use_trace_store``)
    spill_mb: Optional[float] = None
    #: evaluate the cached closed-form derivation instead of enumerating
    #: (engine="static" only; byte-identical state, shared derivation
    #: across jobs via the analysis cache)
    closed_form: bool = False
    #: artifact kinds to publish (subset of ARTIFACT_KINDS)
    artifacts: Tuple[str, ...] = ("patterns", "manifest")

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["artifacts"] = list(self.artifacts)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Validate a submission body; raise :class:`SpecError` on junk."""
        if not isinstance(data, dict):
            raise SpecError("job spec must be a JSON object")
        known = {"workload", "params", "engine", "shards", "miss_model",
                 "use_trace_store", "spill_mb", "closed_form",
                 "artifacts"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown spec fields: {', '.join(unknown)}")
        workload = data.get("workload")
        if not workload or not isinstance(workload, str):
            raise SpecError("spec requires a 'workload' name")
        from repro.apps.registry import workload_names, workload_params
        if workload not in workload_names():
            raise SpecError(
                f"unknown workload {workload!r} "
                f"(known: {', '.join(workload_names())})")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise SpecError("'params' must be an object")
        defaults = workload_params(workload)
        bad = sorted(set(params) - set(defaults))
        if bad:
            raise SpecError(
                f"unknown params for {workload}: {', '.join(bad)} "
                f"(known: {', '.join(sorted(defaults))})")
        engine = data.get("engine", "numpy")
        if engine not in ("fenwick", "treap", "numpy", "static"):
            raise SpecError(f"unknown engine {engine!r}")
        try:
            shards = int(data.get("shards", 1))
        except (TypeError, ValueError):
            raise SpecError("'shards' must be an integer")
        if shards < 1:
            raise SpecError(f"shards must be >= 1, got {shards}")
        # mirror the AnalysisSession guards at submit time so impossible
        # combinations bounce as HTTP 400 instead of failing the job
        if engine == "static" and shards > 1:
            raise SpecError("engine='static' has no trace to shard")
        if engine == "static" and data.get("use_trace_store"):
            raise SpecError("engine='static' records no trace to spill")
        if data.get("closed_form") and engine != "static":
            raise SpecError("closed_form requires engine='static'")
        miss_model = data.get("miss_model", "sa")
        artifacts = data.get("artifacts", ["patterns", "manifest"])
        if (not isinstance(artifacts, (list, tuple)) or not artifacts
                or any(a not in ARTIFACT_KINDS for a in artifacts)):
            raise SpecError(
                f"'artifacts' must be a non-empty subset of "
                f"{sorted(ARTIFACT_KINDS)}")
        spill_mb = data.get("spill_mb")
        if spill_mb is not None:
            try:
                spill_mb = float(spill_mb)
            except (TypeError, ValueError):
                raise SpecError("'spill_mb' must be a number")
            if not data.get("use_trace_store"):
                raise SpecError("'spill_mb' bounds a trace-store "
                                "recording; it needs 'use_trace_store'")
        return cls(workload=workload, params=dict(params), engine=engine,
                   shards=shards, miss_model=str(miss_model),
                   use_trace_store=bool(data.get("use_trace_store", False)),
                   spill_mb=spill_mb,
                   closed_form=bool(data.get("closed_form", False)),
                   artifacts=tuple(artifacts))


@dataclass
class Job:
    """Lifecycle state of one submitted job."""

    id: str
    tenant: str
    spec: JobSpec
    state: str = "queued"
    created: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    error: str = ""
    #: [{"name", "digest", "bytes"}] once done
    artifacts: List[Dict[str, Any]] = field(default_factory=list)
    totals: Dict[str, float] = field(default_factory=dict)
    #: times this job was re-queued after a server restart found it
    #: mid-run (content-addressed artifacts make the re-run idempotent)
    resumed: int = 0
    #: times this job's worker died without writing a result (crash,
    #: supervised kill); at the poison threshold the job quarantines
    crashes: int = 0
    #: earliest wall-clock time the scheduler may relaunch this job
    #: (requeue backoff); in-memory only, resets to 0 across restarts
    not_before: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "artifacts": list(self.artifacts),
            "totals": dict(self.totals),
            "resumed": self.resumed,
            "crashes": self.crashes,
        }

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


class JobStore:
    """Durable store of every job the service has seen.

    Layout under ``state_dir``::

        jobs/<id>/spec.json   immutable submission
        jobs/<id>/job.json    lifecycle record (state, counters, artifacts)
        jobs/<id>/status.json worker progress (phase, trace_path, ...)
        jobs/<id>/result.json worker's terminal report (totals, artifacts)
        service.json          listener host/port/pid (written by server)

    ``job.json`` is the source of truth for *state*; the store rewrites
    it whole at every transition, as
    :class:`~repro.tools.resilience.SweepCheckpoint` writes one record
    file per sweep task.  ``fsync`` is opt-in for both: the atomic
    rename already keeps a record whole when its writer is killed, and
    the flush adds only durability across a power cut.
    """

    def __init__(self, state_dir: str, fsync: bool = False) -> None:
        self.state_dir = state_dir
        self.fsync = fsync
        self.jobs: Dict[str, Job] = {}
        #: jobs re-queued by the last recover() call
        self.resumed_ids: List[str] = []

    # -- paths ----------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.state_dir, "jobs", job_id)

    def spec_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "spec.json")

    def record_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "job.json")

    def status_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "status.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    # -- lifecycle ------------------------------------------------------

    def _transition(self, job_id: str, **changes: Any) -> None:
        """Apply ``changes`` to the job and rewrite its record."""
        job = self.jobs[job_id]
        for name, value in changes.items():
            setattr(job, name, value)
        record = job.to_dict()
        del record["spec"]
        atomic_write_text(self.record_path(job_id),
                          json.dumps(record) + "\n", fsync=self.fsync)

    def submit(self, tenant: str, spec: JobSpec,
               job_id: Optional[str] = None) -> Job:
        job = Job(id=job_id or new_job_id(), tenant=tenant, spec=spec,
                  created=time.time())
        atomic_write_text(self.spec_path(job.id),
                          json.dumps(spec.to_dict(), indent=2) + "\n",
                          fsync=self.fsync)
        self.jobs[job.id] = job
        self._transition(job.id)
        return job

    def mark_started(self, job_id: str) -> None:
        self._transition(job_id, state="running", started=time.time())

    def mark_done(self, job_id: str, totals: Dict[str, float],
                  artifacts: List[Dict[str, Any]]) -> None:
        self._transition(job_id, state="done", finished=time.time(),
                         totals=dict(totals), artifacts=list(artifacts))

    def mark_failed(self, job_id: str, error: str) -> None:
        self._transition(job_id, state="failed", finished=time.time(),
                         error=error)

    def mark_cancelled(self, job_id: str) -> None:
        self._transition(job_id, state="cancelled", finished=time.time())

    def mark_requeued(self, job_id: str, error: str = "") -> None:
        """The worker died without a result: back on the queue.

        Bumps the crash counter in the job's record, so the poison
        threshold survives restarts.
        """
        self._transition(job_id, state="queued",
                         crashes=self.jobs[job_id].crashes + 1,
                         error=error)

    def mark_poisoned(self, job_id: str, error: str) -> None:
        """Quarantine a job whose spec keeps killing workers."""
        self._transition(job_id, state="failed_poison",
                         finished=time.time(), error=error)

    # -- recovery -------------------------------------------------------

    def recover(self) -> List[Job]:
        """Load every job record; return the jobs to run, oldest first.

        A read-only scan of the job dirs.  Terminal jobs load as
        recorded, and queued jobs go back on the queue with their crash
        counter.  A job recorded ``running`` was interrupted with the
        previous server: it comes back ``queued`` with ``resumed``
        bumped and its id in :attr:`resumed_ids`, and the bump reaches
        disk with the job's next transition.  Requeued jobs and
        :attr:`resumed_ids` are ordered by ``(created, id)``.  A dir
        without a readable spec and record (a submit cut short, a
        foreign dir) is skipped with a warning.  A state dir without
        ``jobs/`` reads as an empty store: the store creates nothing
        until the first :meth:`submit` writes a job dir.
        """
        loaded: List[Job] = []
        jobs_dir = os.path.join(self.state_dir, "jobs")
        names = os.listdir(jobs_dir) if os.path.isdir(jobs_dir) else []
        for name in names:
            if os.path.isdir(os.path.join(jobs_dir, name)):
                job = self._load(name)
                if job is not None:
                    loaded.append(job)
        loaded.sort(key=lambda j: (j.created, j.id))
        self.jobs.clear()
        self.resumed_ids = []
        for job in loaded:
            self.jobs[job.id] = job
            if job.state == "running":
                job.state = "queued"
                job.resumed += 1
                self.resumed_ids.append(job.id)
        requeued = [job for job in loaded if job.state == "queued"]
        if requeued:
            logger.info("job store recovered %d queued job(s) "
                        "(%d resumed mid-run)", len(requeued),
                        len(self.resumed_ids))
        return requeued

    def _load(self, job_id: str) -> Optional[Job]:
        try:
            with open(self.spec_path(job_id), encoding="utf-8") as f:
                spec = JobSpec.from_dict(json.load(f))
            with open(self.record_path(job_id), encoding="utf-8") as f:
                return Job(spec=spec, **json.load(f))
        except (OSError, ValueError, TypeError) as exc:
            logger.warning("job %s: unreadable spec or record (%s); "
                           "skipping", job_id, exc)
            return None

    # -- queries --------------------------------------------------------

    def read_status(self, job_id: str) -> Dict[str, Any]:
        """Worker-side progress (phase, metrics, trace_path); {} if none."""
        try:
            with open(self.status_path(job_id), encoding="utf-8") as f:
                return json.load(f)
        except (OSError, ValueError):
            return {}

    def queued_count(self, tenant: str) -> int:
        return sum(1 for j in self.jobs.values()
                   if j.tenant == tenant and j.state == "queued")

    def running_count(self, tenant: str) -> int:
        return sum(1 for j in self.jobs.values()
                   if j.tenant == tenant and j.state == "running")

