"""Durable job records for the analysis service.

A job is *what to run* (:class:`JobSpec` — workload name, parameters,
engine/shard/spill options) plus *where it is* (:class:`Job` — lifecycle
state, timestamps, artifact digests).  The :class:`JobStore` makes both
durable with the same discipline the sweep checkpoints use
(:mod:`repro.tools.resilience`):

* an append-only JSONL **journal** (``jobs.jsonl``) records lifecycle
  events — submit, start, requeue, done, fail, cancel, poison — one
  JSON object per line, torn final lines tolerated;
* a **job directory** (``jobs/<id>/``) holds the immutable
  ``spec.json``, the worker-updated ``status.json`` (phase progress,
  metric snapshots), and the terminal ``result.json`` (totals, artifact
  digests), each written atomically (tmp + rename).

On startup :meth:`JobStore.recover` replays the journal: jobs whose last
event is ``submit`` are queued again; jobs whose last event is ``start``
(the server died mid-run) are re-queued and counted as resumed — the
worker's artifacts are content-addressed, so a re-run deduplicates
against whatever the killed attempt already published.  Jobs whose last
event is ``requeue`` (the supervisor killed the worker, or it crashed)
go back on the queue with their crash counter intact; ``poison`` is
terminal quarantine after repeated worker-killing crashes.

Journal writes, compaction, and recovery all hold a file lock
(``jobs.jsonl.lock``) so a ``recover()`` — in this process or another —
can never observe the compaction tmp-rename window or race a concurrent
append out of the rewrite.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import tempfile
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.tools.atomicio import atomic_write_text

logger = logging.getLogger("repro.service.jobs")

#: Bump when the journal line layout changes.
JOURNAL_VERSION = 1

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
    #: spill the recording to a columnar trace store under the service
    #: state dir (required for shards > 1 jobs that want disk replay)
    use_trace_store: bool = False
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


@dataclass(frozen=True)
class JobsGCResult:
    """Outcome of a :meth:`JobStore.gc` retention pass."""

    removed: List[str]        # terminal job ids deleted (or would-be)
    kept: int                 # job records remaining
    unpinned: List[str]       # blob digests no remaining record pins
    freed_bytes: int          # job-dir bytes reclaimed (excludes blobs)
    dry_run: bool = False


class JobStore:
    """Durable, replayable store of every job the service has seen.

    Layout under ``state_dir``::

        jobs.jsonl            append-only lifecycle journal
        jobs/<id>/spec.json   immutable submission
        jobs/<id>/status.json worker progress (phase, trace_path, ...)
        jobs/<id>/result.json terminal outcome (totals, artifacts)
        service.json          listener host/port/pid (written by server)

    The journal is the source of truth for *state*; the job dirs carry
    the payloads.  Appends are flushed per line; ``fsync`` is opt-in for
    the same reason it is in :class:`~repro.tools.resilience.SweepCheckpoint`.
    """

    JOURNAL = "jobs.jsonl"

    #: A journal holding more than ``COMPACT_FACTOR`` times the lines a
    #: compacted rewrite would keep is rewritten in place (see
    #: :meth:`compact`) — the same policy ``SweepCheckpoint`` uses.
    COMPACT_FACTOR = 2

    def __init__(self, state_dir: str, fsync: bool = False) -> None:
        self.state_dir = state_dir
        self.fsync = fsync
        self.jobs: Dict[str, Job] = {}
        #: jobs re-queued by the last recover() call
        self.resumed_ids: List[str] = []
        os.makedirs(os.path.join(state_dir, "jobs"), exist_ok=True)
        self._journal_path = os.path.join(state_dir, self.JOURNAL)
        #: journal occupancy, tracked lazily: event lines on disk and
        #: the subset a compaction would keep.  None until the first
        #: append or recover scans the file.
        self._lines: Optional[int] = None
        self._live_lines: Optional[int] = None
        #: start events per non-terminal job (kept on compaction so a
        #: recover() still counts resumes correctly)
        self._starts: Dict[str, int] = {}
        #: non-terminal jobs with at least one requeue line on disk
        self._requeues: Dict[str, bool] = {}
        #: journal lock: an OS file lock (flock on the sidecar ``.lock``
        #: file) serializes append/compact/recover across processes; the
        #: RLock + depth counter make it reentrant within this store so
        #: an append that triggers auto-compaction doesn't self-deadlock
        self._lock_path = self._journal_path + ".lock"
        self._tlock = threading.RLock()
        self._lock_depth = 0
        self._lock_handle = None

    # -- paths ----------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.state_dir, "jobs", job_id)

    def spec_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "spec.json")

    def status_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "status.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    # -- journal --------------------------------------------------------

    @contextmanager
    def _journal_lock(self) -> Iterator[None]:
        """Exclusive journal access: append, compact, and recover hold it.

        Without the lock a ``recover()`` racing auto-compaction can read
        the journal in the tmp-rename window, and an append racing a
        concurrent store's compaction can be silently dropped by the
        read-fold-replace rewrite.  The flock is taken once at the
        outermost entry (reentrant within the store), so nested
        append → auto-compact calls don't deadlock.
        """
        self._tlock.acquire()
        self._lock_depth += 1
        try:
            if self._lock_depth == 1 and fcntl is not None:
                try:
                    self._lock_handle = open(self._lock_path, "a")
                    fcntl.flock(self._lock_handle, fcntl.LOCK_EX)
                except OSError:  # pragma: no cover - exotic filesystems
                    if self._lock_handle is not None:
                        self._lock_handle.close()
                    self._lock_handle = None
            yield
        finally:
            if self._lock_depth == 1 and self._lock_handle is not None:
                try:
                    fcntl.flock(self._lock_handle, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
                self._lock_handle.close()
                self._lock_handle = None
            self._lock_depth -= 1
            self._tlock.release()

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._journal_lock():
            new = not os.path.exists(self._journal_path)
            with open(self._journal_path, "a", encoding="utf-8") as handle:
                if new:
                    handle.write(json.dumps(
                        {"kind": "job-journal",
                         "version": JOURNAL_VERSION}) + "\n")
                handle.write(line + "\n")
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            self._track(record)
            self._maybe_compact()

    def _track(self, record: Dict[str, Any]) -> None:
        """Update journal occupancy for one appended event."""
        if self._lines is None:
            self._scan_occupancy()
            return
        self._lines += 1
        kind = record.get("event")
        job_id = record.get("job", "")
        if kind == "submit":
            self._live_lines += 1
        elif kind == "start":
            # start events compact to a single counted line per job
            if not self._starts.get(job_id):
                self._live_lines += 1
            self._starts[job_id] = self._starts.get(job_id, 0) + 1
        elif kind == "requeue":
            # requeue events compact to the last one (cumulative crashes)
            if not self._requeues.get(job_id):
                self._live_lines += 1
            self._requeues[job_id] = True
        else:
            # terminal event: its line is live, the job's start/requeue
            # lines are not (recover() ignores them once terminal)
            self._live_lines += 1 - (1 if self._starts.pop(job_id, 0)
                                     else 0) \
                                  - (1 if self._requeues.pop(job_id, False)
                                     else 0)

    def _read_events(self) -> Optional[List[Dict[str, Any]]]:
        """Intact journal events in order; None when missing/unreadable."""
        events: List[Dict[str, Any]] = []
        try:
            with open(self._journal_path, encoding="utf-8") as handle:
                header = handle.readline()
                try:
                    meta = json.loads(header)
                except json.JSONDecodeError:
                    meta = {}
                if (meta.get("kind") != "job-journal"
                        or meta.get("version") != JOURNAL_VERSION):
                    logger.warning("job journal %s has unknown header; "
                                   "starting fresh", self._journal_path)
                    return None
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(json.loads(line))
                    except json.JSONDecodeError:
                        # torn final line from a crash mid-append
                        logger.warning("job journal %s: dropping torn "
                                       "line", self._journal_path)
                        continue
        except FileNotFoundError:
            return None
        return events

    @staticmethod
    def _fold_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """The minimal event list replaying to the same store state.

        Per submitted job, in submit order: the submit line; then — when
        the job is still queued or running — one ``start`` line whose
        ``count`` field carries the resume counter plus the last
        ``requeue`` line (which carries the cumulative crash counter),
        ordered so the job's *final* event kind is preserved (recover
        keys the live state off it); then the final event when it is
        terminal.  Start/requeue lines of finished jobs replay to
        nothing and are dropped.  Events for jobs that were never
        submitted are dropped, as :meth:`recover` ignores them.
        """
        last: Dict[str, Dict[str, Any]] = {}
        submits: Dict[str, Dict[str, Any]] = {}
        starts: Dict[str, int] = {}
        last_start: Dict[str, Dict[str, Any]] = {}
        last_requeue: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        for ev in events:
            job_id, kind = ev.get("job"), ev.get("event")
            if not job_id or not kind:
                continue
            if kind == "submit":
                if job_id not in submits:
                    submits[job_id] = ev
                    order.append(job_id)
            elif kind == "start":
                starts[job_id] = starts.get(job_id, 0) + int(
                    ev.get("count", 1))
                last_start[job_id] = ev
            elif kind == "requeue":
                last_requeue[job_id] = ev
            last[job_id] = ev
        folded: List[Dict[str, Any]] = []
        for job_id in order:
            folded.append(submits[job_id])
            final = last[job_id]
            kind = final.get("event")
            if kind in ("submit", "start", "requeue"):
                merged = None
                if starts.get(job_id):
                    merged = dict(last_start[job_id])
                    merged["count"] = starts[job_id]
                if kind == "requeue":
                    if merged is not None:
                        folded.append(merged)
                    folded.append(last_requeue[job_id])
                else:
                    if job_id in last_requeue:
                        folded.append(last_requeue[job_id])
                    if merged is not None:
                        folded.append(merged)
            else:
                folded.append(final)
        return folded

    def _scan_occupancy(
            self, events: Optional[List[Dict[str, Any]]] = None) -> None:
        if events is None:
            events = self._read_events()
        if events is None:
            self._lines = 0
            self._live_lines = 0
            self._starts = {}
            self._requeues = {}
            return
        folded = self._fold_events(events)
        self._lines = len(events)
        self._live_lines = len(folded)
        self._starts = {ev["job"]: int(ev.get("count", 1))
                        for ev in folded if ev.get("event") == "start"}
        self._requeues = {ev["job"]: True for ev in folded
                          if ev.get("event") == "requeue"}

    def _maybe_compact(self) -> None:
        """Compact when stale lines outnumber the live representation.

        Every lifecycle transition appends a line, so a long-lived
        journal grows without bound even though a finished job replays
        from just two lines (submit + terminal event).  When the line
        count exceeds ``COMPACT_FACTOR`` times what a compacted journal
        would hold, it is rewritten in place.
        """
        if (self._lines is not None and self._live_lines
                and self._lines > self.COMPACT_FACTOR * self._live_lines):
            self.compact()

    def compact(self) -> int:
        """Rewrite the journal dropping replay-dead lines; lines dropped.

        The replacement is built in a temp file in the journal's own
        directory and swapped in with an atomic ``os.replace``, so a
        crash (or a concurrent ``live_trace_refs`` reader) sees either
        the old journal or the new one, never a partial rewrite.  The
        folded lines replay to exactly the same state — same queue
        order, same resume counters, same terminal results — so a
        server restarted off the compacted journal is indistinguishable
        from one restarted off the original.

        Runs under the journal lock: concurrent appends (even from
        another process's store) wait rather than being folded away by
        the read-modify-replace, and a concurrent ``recover()`` never
        sees the rename window.
        """
        with self._journal_lock():
            events = self._read_events()
            if events is None:
                return 0
            folded = self._fold_events(events)
            return self._rewrite(events, folded)

    def _rewrite(self, events: List[Dict[str, Any]],
                 keep: List[Dict[str, Any]]) -> int:
        """Atomically replace the journal with ``keep``; lines dropped.

        Caller must hold the journal lock.
        """
        directory = os.path.dirname(os.path.abspath(self._journal_path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                   suffix=".jsonl")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"kind": "job-journal",
                                         "version": JOURNAL_VERSION})
                             + "\n")
                for ev in keep:
                    handle.write(json.dumps(ev, sort_keys=True) + "\n")
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, self._journal_path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        before = len(events)
        self._scan_occupancy()
        dropped = before - (self._lines or 0)
        if dropped > 0:
            logger.info("job journal %s compacted: %d line(s) -> %d",
                        self._journal_path, before, self._lines)
        return dropped

    # -- lifecycle ------------------------------------------------------

    def submit(self, tenant: str, spec: JobSpec,
               job_id: Optional[str] = None) -> Job:
        job = Job(id=job_id or new_job_id(), tenant=tenant, spec=spec,
                  created=time.time())
        os.makedirs(self.job_dir(job.id), exist_ok=True)
        atomic_write_text(self.spec_path(job.id),
                          json.dumps(spec.to_dict(), indent=2) + "\n")
        self._append({"event": "submit", "job": job.id,
                      "tenant": tenant, "ts": job.created})
        self.jobs[job.id] = job
        return job

    def mark_started(self, job_id: str) -> None:
        job = self.jobs[job_id]
        job.state = "running"
        job.started = time.time()
        self._append({"event": "start", "job": job_id, "ts": job.started})

    def mark_done(self, job_id: str, totals: Dict[str, float],
                  artifacts: List[Dict[str, Any]]) -> None:
        job = self.jobs[job_id]
        job.state = "done"
        job.finished = time.time()
        job.totals = dict(totals)
        job.artifacts = list(artifacts)
        self._append({"event": "done", "job": job_id, "ts": job.finished})

    def mark_failed(self, job_id: str, error: str) -> None:
        job = self.jobs[job_id]
        job.state = "failed"
        job.finished = time.time()
        job.error = error
        self._append({"event": "fail", "job": job_id,
                      "error": error, "ts": job.finished})

    def mark_cancelled(self, job_id: str) -> None:
        job = self.jobs[job_id]
        job.state = "cancelled"
        job.finished = time.time()
        self._append({"event": "cancel", "job": job_id, "ts": job.finished})

    def mark_requeued(self, job_id: str, error: str = "") -> None:
        """The worker died without a result: back on the queue.

        Bumps the durable crash counter — the journal line carries the
        cumulative count, so the poison threshold survives restarts and
        compaction.
        """
        job = self.jobs[job_id]
        job.state = "queued"
        job.crashes += 1
        job.error = error
        self._append({"event": "requeue", "job": job_id,
                      "crashes": job.crashes, "error": error,
                      "ts": time.time()})

    def mark_poisoned(self, job_id: str, error: str) -> None:
        """Quarantine a job whose spec keeps killing workers."""
        job = self.jobs[job_id]
        job.state = "failed_poison"
        job.finished = time.time()
        job.error = error
        self._append({"event": "poison", "job": job_id,
                      "error": error, "ts": job.finished})

    # -- recovery -------------------------------------------------------

    def recover(self) -> List[Job]:
        """Replay the journal; return jobs re-queued for execution.

        Jobs with a terminal event are loaded read-only (result.json
        hydrates totals/artifacts; ``finished`` comes from the event
        timestamp, so retention GC has a clock to age against).  Jobs
        last seen ``queued`` or ``requeue`` go back on the queue — the
        latter with the durable crash counter restored; jobs last seen
        ``running`` are re-queued with ``resumed`` bumped — the previous
        attempt's process died with the server.  Holds the journal lock
        so a concurrent compaction can't slip its tmp-rename under the
        replay.
        """
        with self._journal_lock():
            return self._recover_locked()

    def _recover_locked(self) -> List[Job]:
        self.jobs.clear()
        self.resumed_ids = []
        events = self._read_events()
        if events is None:
            self._lines = 0
            self._live_lines = 0
            self._starts = {}
            self._requeues = {}
            return []
        self._scan_occupancy(events)

        last: Dict[str, Dict[str, Any]] = {}
        tenants: Dict[str, str] = {}
        created: Dict[str, float] = {}
        starts: Dict[str, int] = {}
        crashes: Dict[str, int] = {}
        order: List[str] = []
        for ev in events:
            job_id = ev.get("job")
            kind = ev.get("event")
            if not job_id or not kind:
                continue
            if kind == "submit":
                tenants[job_id] = ev.get("tenant", "default")
                created[job_id] = ev.get("ts", 0.0)
                order.append(job_id)
            elif kind == "start":
                # compacted journals fold repeated starts into one line
                # carrying the resume counter as "count"
                starts[job_id] = starts.get(job_id, 0) + int(
                    ev.get("count", 1))
            elif kind == "requeue":
                # the requeue line carries the cumulative crash count
                crashes[job_id] = max(crashes.get(job_id, 0),
                                      int(ev.get("crashes", 1)))
            last[job_id] = ev

        terminal_map = {"done": "done", "fail": "failed",
                        "cancel": "cancelled", "poison": "failed_poison"}
        requeued: List[Job] = []
        for job_id in order:
            try:
                with open(self.spec_path(job_id), encoding="utf-8") as f:
                    spec = JobSpec.from_dict(json.load(f))
            except (OSError, ValueError) as exc:
                logger.warning("job %s: unreadable spec (%s); dropping",
                               job_id, exc)
                continue
            job = Job(id=job_id, tenant=tenants.get(job_id, "default"),
                      spec=spec, created=created.get(job_id, 0.0))
            job.crashes = crashes.get(job_id, 0)
            final = last.get(job_id, {})
            kind = final.get("event", "submit")
            if kind in terminal_map:
                job.state = terminal_map[kind]
                job.finished = float(final.get("ts", 0.0) or 0.0)
                job.error = final.get("error", "")
                self._hydrate_result(job)
            elif kind == "start":
                # server died mid-run: run it again
                job.resumed = starts.get(job_id, 1)
                self.resumed_ids.append(job_id)
                requeued.append(job)
            else:
                # submit or requeue: back on the queue (the crash
                # counter above already restored the requeue history)
                job.resumed = starts.get(job_id, 0)
                job.error = final.get("error", "")
                requeued.append(job)
            self.jobs[job_id] = job
        if requeued:
            logger.info("job store recovered %d queued job(s) "
                        "(%d resumed mid-run)", len(requeued),
                        len(self.resumed_ids))
        return requeued

    def _hydrate_result(self, job: Job) -> None:
        try:
            with open(self.result_path(job.id), encoding="utf-8") as f:
                result = json.load(f)
        except (OSError, ValueError):
            return
        job.totals = dict(result.get("totals", {}))
        job.artifacts = list(result.get("artifacts", []))
        job.error = result.get("error", job.error)

    # -- retention ------------------------------------------------------

    def pinned_blob_digests(self) -> Set[str]:
        """Artifact blob digests referenced by any job still on record.

        ``repro cache gc --state-dir`` treats these as pinned: a blob a
        job record can still serve must survive blob GC.  Callers want a
        recovered store — run :meth:`recover` first.
        """
        return {a.get("digest") for job in self.jobs.values()
                for a in job.artifacts if a.get("digest")}

    def gc(self, keep_days: float, now: Optional[float] = None,
           dry_run: bool = False) -> "JobsGCResult":
        """Drop terminal jobs finished more than ``keep_days`` ago.

        Removes their job directories and journal events (atomic
        rewrite under the journal lock), and reports the artifact blob
        digests those records were the last to reference — unpinned,
        ready for ``repro cache gc`` to reclaim.  Live (queued/running)
        jobs are never touched.  ``dry_run`` computes the same report
        without deleting anything.
        """
        if self._lines is None:
            self.recover()
        now = time.time() if now is None else now
        cutoff = now - keep_days * 86400.0
        doomed = [job for job in self.jobs.values()
                  if job.terminal
                  and (job.finished or job.created) <= cutoff]
        doomed_ids = {job.id for job in doomed}
        kept_digests = {a.get("digest")
                        for job in self.jobs.values()
                        if job.id not in doomed_ids
                        for a in job.artifacts if a.get("digest")}
        unpinned = sorted({a.get("digest") for job in doomed
                           for a in job.artifacts
                           if a.get("digest")} - kept_digests)
        freed = 0
        for job in doomed:
            job_dir = self.job_dir(job.id)
            for root, _dirs, files in os.walk(job_dir):
                for name in files:
                    try:
                        freed += os.path.getsize(os.path.join(root, name))
                    except OSError:
                        pass
        result = JobsGCResult(
            removed=sorted(doomed_ids),
            kept=sum(1 for j in self.jobs.values()
                     if j.id not in doomed_ids),
            unpinned=unpinned, freed_bytes=freed, dry_run=dry_run)
        if dry_run or not doomed:
            return result
        with self._journal_lock():
            events = self._read_events() or []
            keep = [ev for ev in self._fold_events(events)
                    if ev.get("job") not in doomed_ids]
            self._rewrite(events, keep)
            for job_id in doomed_ids:
                self.jobs.pop(job_id, None)
                shutil.rmtree(self.job_dir(job_id), ignore_errors=True)
        logger.info("jobs gc: removed %d terminal job(s) older than "
                    "%.1f day(s), unpinned %d blob digest(s)",
                    len(doomed_ids), keep_days, len(unpinned))
        return result

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


def live_trace_refs(state_dir: str) -> List[str]:
    """Trace-store paths referenced by non-terminal jobs in ``state_dir``.

    ``repro trace gc`` protects these from eviction: a queued or running
    job may still replay its spilled store.  Reads the journal and each
    live job's ``status.json`` (where the worker records the resolved
    store path); a missing or unreadable state dir yields [].
    """
    refs: List[str] = []
    try:
        store = JobStore(state_dir)
    except OSError:
        return refs
    store.recover()
    for job in store.jobs.values():
        if job.terminal:
            continue
        path = store.read_status(job.id).get("trace_path")
        if path:
            refs.append(path)
    return refs
