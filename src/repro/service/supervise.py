"""Scheduler-side supervision of running job workers.

The job server launches each job as its own OS process; this module is
the part of the scheduler that watches those processes *while they
run*.  Workers report liveness through the per-job status channel
(``status.json``, rewritten atomically by a heartbeat thread — see
:mod:`repro.service.worker`), and every scheduler tick the
:class:`Supervisor` folds those reports into kill decisions:

* **walltime** — a job running longer than ``walltime_s`` is killed
  (``svc.stuck_killed``); a worker stalled in C code or a hung syscall
  keeps heartbeating, so the wall clock is the primary stall catcher;
* **memory** — a heartbeat reporting more than ``max_rss_mb`` resident
  kills the worker before it takes the host down (``svc.rss_killed``);
* **stale heartbeat** — a worker that stops writing status entirely
  (SIGSTOP, uninterruptible sleep, a died-but-unreaped process tree) is
  killed after ``heartbeat_timeout_s`` (``svc.stuck_killed``).

Kills are escalating: SIGTERM first (the worker's term handler unwinds
and its ``finally`` blocks run), SIGKILL once ``kill_grace_s`` passes
without the process exiting.  The server's reaper asks
:meth:`Supervisor.take_kill` whether a death was supervised and routes
it through the :mod:`repro.tools.resilience` taxonomy: supervised and
unexplained worker deaths are *poison-kind* failures — requeued with
capped backoff, quarantined as ``failed_poison`` after
``poison_threshold`` crashes.

The module also owns **orphan reaping**: workers record their identity
(pid + kernel start time) in ``worker.json``; after a server crash the
replacement server calls :func:`reap_orphans` on the jobs recorded as
mid-run, and any still-alive worker whose identity *matches* is killed
before the job is re-launched — a recycled pid fails the start-time
check and is left alone (``svc.orphans_reaped``).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _obs
from repro.tools.resilience import RetryPolicy

logger = logging.getLogger("repro.service.supervise")

#: worker identity file written into each job dir (pid + start ticks)
WORKER_FILE = "worker.json"


# ---------------------------------------------------------------------------
# Process identity and resource probes
# ---------------------------------------------------------------------------

def rss_mb() -> float:
    """Resident set size of the calling process, in MiB.

    Prefers ``/proc/self/statm`` (current RSS, Linux); degrades to
    ``resource.getrusage`` peak RSS elsewhere, and to 0.0 when neither
    exists — a 0 report disables RSS ceilings rather than killing on
    garbage data.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE") / (1024.0 ** 2)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS
        return peak / 1024.0 if os.uname().sysname != "Darwin" \
            else peak / (1024.0 ** 2)
    except Exception:  # pragma: no cover - exotic platforms
        return 0.0


def proc_start_ticks(pid: int) -> Optional[int]:
    """Kernel start time of ``pid`` in clock ticks; None if unknowable.

    Field 22 of ``/proc/<pid>/stat``.  The (pid, start-ticks) pair is a
    unique process identity for the machine's uptime: a recycled pid
    gets a different start time, so comparing both can never kill an
    innocent process that happened to inherit a dead worker's pid.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read().decode("latin-1", "replace")
        # comm (field 2) may contain spaces/parens; fields resume
        # after the *last* ')'
        rest = data.rsplit(")", 1)[1].split()
        return int(rest[19])  # field 22, 1-indexed
    except (OSError, IndexError, ValueError):
        return None


def pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - non-POSIX
        return False
    return True


def write_worker_identity(job_dir: str) -> None:
    """Record this process's identity in ``<job_dir>/worker.json``."""
    from repro.tools.atomicio import atomic_write_text
    pid = os.getpid()
    atomic_write_text(
        os.path.join(job_dir, WORKER_FILE),
        json.dumps({"pid": pid, "start_ticks": proc_start_ticks(pid),
                    "ts": time.time()}, sort_keys=True) + "\n")


def read_worker_identity(job_dir: str) -> Optional[Dict[str, Any]]:
    try:
        with open(os.path.join(job_dir, WORKER_FILE),
                  encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) and data.get("pid") else None


def reap_orphans(store, job_ids, grace_s: float = 5.0) -> List[int]:
    """Kill verified orphan workers of ``job_ids``; returns pids reaped.

    Called on server start for jobs recorded as mid-run when the
    previous server died: a SIGKILLed server cannot terminate its
    children, so their worker processes may still be running (and
    writing into the job dirs the re-run is about to reuse).  A worker
    is killed only when its recorded (pid, start-ticks) identity checks
    out against the live process; an unverifiable identity (no
    ``/proc``) is logged and left alone — the safe failure mode is a
    leaked process, never a stranger shot down.
    """
    reaped: List[int] = []
    for job_id in job_ids:
        job_dir = store.job_dir(job_id)
        ident = read_worker_identity(job_dir)
        if ident is None:
            continue
        pid = int(ident["pid"])
        worker_path = os.path.join(job_dir, WORKER_FILE)
        if not pid_alive(pid):
            _remove_quiet(worker_path)
            continue
        ticks = proc_start_ticks(pid)
        if ticks is None or ident.get("start_ticks") is None:
            logger.warning(
                "job %s: pid %d is alive but its identity cannot be "
                "verified on this platform; not reaping", job_id, pid)
            continue
        if ticks != ident["start_ticks"]:
            # pid recycled by an unrelated process since the crash
            _remove_quiet(worker_path)
            continue
        logger.warning("job %s: reaping orphan worker pid %d left by a "
                       "crashed server", job_id, pid)
        _kill_escalating(pid, grace_s)
        reaped.append(pid)
        _obs.counter("svc.orphans_reaped").inc()
        _remove_quiet(worker_path)
    return reaped


def _remove_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _kill_escalating(pid: int, grace_s: float) -> None:
    """SIGTERM; escalate to SIGKILL if still alive after ``grace_s``."""
    try:
        os.kill(pid, signal.SIGTERM)
    except OSError:
        return
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        if not pid_alive(pid):
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:  # pragma: no cover - exited in the window
        pass


# ---------------------------------------------------------------------------
# Supervision policy + supervisor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisionPolicy:
    """Ceilings and escalation knobs for running job workers.

    ``walltime_s``, ``max_rss_mb`` and ``heartbeat_timeout_s`` are each
    disabled at 0.  ``poison_threshold`` is the number of worker-killing
    crashes (supervised kills included) after which a job stops being
    requeued and is quarantined as ``failed_poison``
    (:attr:`Supervisor.retry` turns it into the retry budget).
    """

    walltime_s: float = 0.0
    max_rss_mb: float = 0.0
    heartbeat_timeout_s: float = 30.0
    kill_grace_s: float = 5.0
    poison_threshold: int = 3

    def __post_init__(self) -> None:
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        for name in ("walltime_s", "max_rss_mb", "heartbeat_timeout_s",
                     "kill_grace_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class KillRecord:
    """One supervised kill in flight (or completed, awaiting the reaper)."""

    reason: str        # "walltime" | "rss" | "heartbeat"
    detail: str
    ts: float
    escalated: bool = False


class Supervisor:
    """Watch running job processes; kill the ones that break policy.

    Owned by the server's scheduler loop: :meth:`check` runs once per
    tick over the live ``{job_id: Process}`` map, and the reaper calls
    :meth:`take_kill` when a process exits to learn whether the death
    was supervised (and why).  The supervisor never writes job records
    itself — state transitions stay the reaper's job, so every kill
    flows through the same requeue/poison bookkeeping as an
    unexplained worker crash.
    """

    def __init__(self, store, policy: SupervisionPolicy) -> None:
        self.store = store
        self.policy = policy
        #: requeue-or-poison rule for worker deaths, the one a sweep
        #: applies to a unit that killed its worker: a job requeues
        #: while ``should_retry(POISON, crashes)`` holds, and waits
        #: ``backoff(k - 1)`` after its k-th crash (0.5 s doubling to 30)
        self.retry = RetryPolicy(retries=policy.poison_threshold - 1,
                                 base_delay=0.5, max_delay=30.0,
                                 jitter=0.0)
        self._kills: Dict[str, KillRecord] = {}
        #: last observed heartbeat ts per running job (svc.heartbeats)
        self._seen_hb: Dict[str, float] = {}

    # -- probes ---------------------------------------------------------

    def inflight_rss_mb(self, procs: Dict[str, Any]) -> float:
        """Sum of the latest heartbeat RSS across running jobs."""
        total = 0.0
        for job_id in procs:
            status = self.store.read_status(job_id)
            try:
                total += float(status.get("rss_mb", 0.0))
            except (TypeError, ValueError):
                pass
        return total

    # -- the per-tick check ---------------------------------------------

    def check(self, procs: Dict[str, Any],
              now: Optional[float] = None) -> List[str]:
        """Evaluate every running job once; returns job ids killed now."""
        now = time.time() if now is None else now
        killed: List[str] = []
        for job_id, proc in list(procs.items()):
            if not proc.is_alive():
                continue
            record = self._kills.get(job_id)
            if record is not None:
                # already told to die: escalate past the grace period
                if (not record.escalated
                        and now - record.ts >= self.policy.kill_grace_s):
                    record.escalated = True
                    logger.warning("job %s ignored SIGTERM for %gs; "
                                   "escalating to SIGKILL", job_id,
                                   self.policy.kill_grace_s)
                    proc.kill()
                continue
            verdict = self._verdict(job_id, now)
            if verdict is None:
                continue
            reason, detail = verdict
            counter = ("svc.rss_killed" if reason == "rss"
                       else "svc.stuck_killed")
            _obs.counter(counter).inc()
            logger.warning("job %s (pid %s): %s; sending SIGTERM",
                           job_id, proc.pid, detail)
            self._kills[job_id] = KillRecord(reason=reason, detail=detail,
                                             ts=now)
            proc.terminate()
            killed.append(job_id)
        return killed

    def _verdict(self, job_id: str, now: float):
        """(reason, detail) when a running job breaks policy, else None."""
        job = self.store.jobs.get(job_id)
        if job is None or not job.started:  # pragma: no cover - defensive
            return None
        status = self.store.read_status(job_id)
        hb_ts = status.get("ts")
        if isinstance(hb_ts, (int, float)) and hb_ts > job.started:
            if hb_ts > self._seen_hb.get(job_id, 0.0):
                self._seen_hb[job_id] = hb_ts
                _obs.counter("svc.heartbeats").inc()
        p = self.policy
        if p.walltime_s and now - job.started > p.walltime_s:
            return ("walltime",
                    f"over walltime ceiling ({now - job.started:.1f}s "
                    f"> {p.walltime_s:g}s)")
        rss = status.get("rss_mb")
        if (p.max_rss_mb and isinstance(rss, (int, float))
                and rss > p.max_rss_mb):
            return ("rss", f"over memory ceiling ({rss:.0f} MiB > "
                           f"{p.max_rss_mb:g} MiB)")
        last_beat = self._seen_hb.get(job_id, job.started)
        if (p.heartbeat_timeout_s
                and now - max(last_beat, job.started)
                > p.heartbeat_timeout_s):
            return ("heartbeat",
                    f"no heartbeat for {now - last_beat:.1f}s "
                    f"(timeout {p.heartbeat_timeout_s:g}s)")
        return None

    # -- reaper interface -----------------------------------------------

    def take_kill(self, job_id: str) -> Optional[KillRecord]:
        """Pop the kill record for a reaped job (None = unsupervised)."""
        self._seen_hb.pop(job_id, None)
        return self._kills.pop(job_id, None)
