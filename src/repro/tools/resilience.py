"""Fault-tolerant execution primitives: retries, deadlines, checkpoints.

Long sharded runs and grid sweeps live in the regime where whole-trace
dynamic analyses always live — hours of wall time across many worker
processes — so a single OOM-killed worker, a hung shard, or a truncated
cache file must cost one retry, not the whole run.  This module is the
shared vocabulary the execution stack speaks:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *seeded* jitter (reproducible schedules), plus an optional per-unit
  wall-clock deadline;
* :class:`FailureKind` — the typed taxonomy: ``transient`` failures are
  worth retrying (I/O hiccups, timeouts, crashed workers), ``fatal``
  ones are deterministic and retrying is waste (a raising builder raises
  identically every time), ``poison`` units keep killing the worker
  process that runs them and are quarantined after bounded retries;
* :class:`WorkerFailure` — the structured outcome that replaces
  tracebacks-as-strings: kind, exception type, message, traceback,
  attempts used, wall seconds burned;
* :func:`deadline` — a SIGALRM-based per-task wall-clock limit raising
  :class:`DeadlineExceeded` (classified transient, so it retries);
* :class:`SweepCheckpoint` — a directory of atomically written record
  files, one per completed sweep task, so a killed sweep restarts from
  where it died with byte-identical results.

Everything here steers *scheduling only*: a retried or resumed unit
re-runs the same deterministic analysis, so pattern databases stay
byte-identical to an undisturbed run — the invariant the equivalence
test matrix enforces.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import random
import signal
import threading
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.obs import metrics as _obs
from repro.tools.atomicio import atomic_write_bytes

logger = logging.getLogger("repro.tools.resilience")

#: The checkpoint record format's tag, hashed into every unit digest:
#: bumping it leaves every record of the old format unread.
CHECKPOINT_VERSION = 2


class DeadlineExceeded(Exception):
    """A unit of work overran its wall-clock deadline."""


class FailureKind(str, Enum):
    """Typed failure taxonomy for retry decisions.

    ``TRANSIENT``
        Environmental: I/O errors, timeouts, interrupted syscalls.  The
        same unit is expected to succeed on retry.
    ``FATAL``
        Deterministic: the unit's own code raised (bad builder, value
        errors, assertion failures).  Retrying replays the failure.
    ``POISON``
        The unit took its worker process down (segfault, OOM kill,
        ``os._exit``).  Worth bounded retries — the kill may have been
        environmental — but a unit that keeps killing workers must stop
        being requeued before it starves the sweep.
    """

    TRANSIENT = "transient"
    FATAL = "fatal"
    POISON = "poison"


#: Exception types that signal an environmental, retry-worthy failure.
#: DeadlineExceeded is deliberately transient: a stalled unit is the
#: canonical retry case.  MemoryError is transient too — on a loaded
#: host the retry typically lands after the pressure has passed.
TRANSIENT_ERRORS: Tuple[type, ...] = (
    OSError, EOFError, DeadlineExceeded, TimeoutError, ConnectionError,
    MemoryError, pickle.UnpicklingError,
)


def classify(exc: BaseException) -> FailureKind:
    """Map an exception to its :class:`FailureKind`."""
    if isinstance(exc, TRANSIENT_ERRORS):
        return FailureKind.TRANSIENT
    return FailureKind.FATAL


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``retries`` counts *additional* attempts after the first (``0``
    disables retrying).  Attempt ``a`` (0-based) backs off for
    ``min(base_delay * 2**a, max_delay)`` seconds plus a uniform jitter
    of up to ``jitter`` times that, drawn from :meth:`rng` — a
    ``random.Random(seed)``, so two runs of the same policy produce the
    same schedule and tests are deterministic.  ``timeout`` is a
    per-unit wall-clock deadline in seconds (enforced worker-side via
    :func:`deadline`); ``None`` disables it.
    """

    retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = 0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    def rng(self) -> random.Random:
        """A fresh jitter source; seeded policies are reproducible."""
        return random.Random(self.seed)

    def backoff(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """Sleep seconds before retry number ``attempt`` (0-based)."""
        base = min(self.base_delay * (2 ** max(0, attempt)), self.max_delay)
        if not self.jitter:
            return base
        rng = rng if rng is not None else self.rng()
        return base * (1.0 + self.jitter * rng.random())

    def should_retry(self, kind: FailureKind, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) warrants another try."""
        if kind is FailureKind.FATAL:
            return False
        return attempt < self.retries


#: What run_sweep uses when no policy is passed: two retries of
#: transient/poison failures, no deadline (opt in per sweep).
DEFAULT_POLICY = RetryPolicy()


@dataclass
class WorkerFailure:
    """Structured record of one failed unit of work (picklable).

    Replaces the flat ``"ExcType: message\\n<traceback>"`` strings the
    sweep layer used to ship around: the kind drives retry decisions,
    ``retries``/``duration`` feed manifests and ``repro stats``, and
    :meth:`render` reproduces the legacy string for humans and for the
    backwards-compatible ``SweepOutcome.error`` field.
    """

    kind: str
    exc_type: str
    message: str
    traceback: str = ""
    retries: int = 0
    duration: float = 0.0

    @classmethod
    def from_exception(cls, exc: BaseException, retries: int = 0,
                       duration: float = 0.0,
                       kind: Optional[FailureKind] = None
                       ) -> "WorkerFailure":
        return cls(kind=(kind or classify(exc)).value,
                   exc_type=type(exc).__name__, message=str(exc),
                   traceback=_traceback.format_exc(), retries=retries,
                   duration=duration)

    @classmethod
    def from_exit(cls, exitcode: Optional[int],
                  reason: str = "") -> "WorkerFailure":
        """Failure record for a worker that died without reporting.

        A process that exits without writing a result — killed by a
        signal, ``os._exit`` from a crash, or the supervisor's
        SIGTERM/SIGKILL — left no exception to classify, so the death
        itself is the evidence: poison-kind, because whatever did this
        will plausibly do it again, and the requeue/poison-threshold
        machinery is what bounds the damage.
        """
        if exitcode is not None and exitcode < 0:
            detail = f"killed by signal {-exitcode}"
        else:
            detail = f"exited with code {exitcode}"
        message = f"{reason} ({detail})" if reason else detail
        return cls(kind=FailureKind.POISON.value,
                   exc_type="WorkerCrash", message=message)

    @property
    def summary(self) -> str:
        """One line: ``ExcType: message``."""
        return f"{self.exc_type}: {self.message}"

    def render(self) -> str:
        """Legacy string form: summary plus full traceback."""
        return f"{self.summary}\n{self.traceback}"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "exc_type": self.exc_type,
                "message": self.message, "retries": self.retries,
                "duration": round(self.duration, 6)}


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

def _deadline_usable() -> bool:
    """SIGALRM deadlines need a POSIX main thread to install handlers."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


#: One warning per process when deadlines degrade, not one per unit.
_deadline_warned = False


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`DeadlineExceeded` if the block outruns ``seconds``.

    Implemented with ``setitimer``/``SIGALRM``, which interrupts pure
    Python, ``time.sleep``, and most blocking syscalls — the worker
    enforces its own deadline, so no parent-side babysitting thread is
    needed and the pool protocol stays untouched.  When SIGALRM is
    unavailable (non-POSIX or a non-main thread) the requested deadline
    cannot be enforced; the block still runs, but the degradation is
    *loud* — one warning per process plus a
    ``resil.deadline_unsupported`` count per affected unit — because an
    operator who set ``--timeout`` must learn hung units won't be
    killed there (the retry layer still covers crashed workers).  The
    previous handler and any outer timer are restored on exit, so
    deadlines nest (the tighter one fires).
    """
    if not seconds:
        yield
        return
    if not _deadline_usable():
        global _deadline_warned
        _obs.counter("resil.deadline_unsupported").inc()
        if not _deadline_warned:
            _deadline_warned = True
            logger.warning(
                "per-unit deadline of %gs cannot be enforced on this "
                "host (no SIGALRM on the current thread); units will "
                "run unbounded", seconds)
        yield
        return

    def _on_alarm(_signum, _frame):
        raise DeadlineExceeded(f"deadline of {seconds:g}s exceeded")

    prev_handler = signal.signal(signal.SIGALRM, _on_alarm)
    prev_delay, _prev_interval = signal.getitimer(signal.ITIMER_REAL)
    t0 = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev_handler)
        if prev_delay:
            remaining = max(1e-6, prev_delay - (time.monotonic() - t0))
            signal.setitimer(signal.ITIMER_REAL, remaining)


def install_term_handler() -> None:
    """Make SIGTERM raise ``SystemExit`` instead of hard-killing.

    Pool workers install this so a terminating sweep (pool teardown,
    operator ``kill``) unwinds the Python stack — ``finally`` blocks
    and context managers run, temp files get cleaned up — rather than
    dying mid-write.  No-op where SIGTERM is unavailable or off the
    main thread (the pool initializer runs on the worker main thread).
    """
    if not hasattr(signal, "SIGTERM"):  # pragma: no cover - non-POSIX
        return
    if threading.current_thread() is not threading.main_thread():
        return  # pragma: no cover - thread-pool style executors

    def _on_term(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _on_term)


def retry_call(fn: Callable[[], Any], policy: RetryPolicy,
               rng: Optional[random.Random] = None,
               on_retry: Optional[Callable[[int, BaseException], None]]
               = None,
               sleep: Callable[[float], None] = time.sleep) -> Any:
    """Run ``fn`` under ``policy``: deadline per attempt, backoff between.

    The building block for inline (jobs=1) execution, where there is no
    pool to resubmit into.  ``on_retry(attempt, exc)`` fires before each
    backoff; the final failure propagates.
    """
    rng = rng if rng is not None else policy.rng()
    attempt = 0
    while True:
        try:
            with deadline(policy.timeout):
                return fn()
        except Exception as exc:
            kind = classify(exc)
            if not policy.should_retry(kind, attempt):
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(policy.backoff(attempt, rng))
            attempt += 1


# ---------------------------------------------------------------------------
# Durable sweep checkpoints
# ---------------------------------------------------------------------------

class SweepCheckpoint:
    """One record file per completed sweep task.

    ``path`` is a directory holding ``<unit_digest>.pkl`` per completed
    task: its pickled outcome, written by
    :func:`~repro.tools.atomicio.atomic_write_bytes` (fsynced first
    when ``fsync``), so a record is whole or absent and a re-recorded
    task replaces its own file.  A task is restored only from the
    record its digest names, so editing the sweep definition leaves
    stale records unread.  A missing record re-runs its task, and so
    does an unreadable one, with a warning.  Restored records are the
    task outcomes themselves, which is what makes a resumed sweep's
    outputs byte-identical to an uninterrupted run.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = os.path.normpath(str(path))
        if os.path.exists(self.path) and not os.path.isdir(self.path):
            raise ValueError(
                f"checkpoint {self.path!r} is not a directory (a journal "
                "written before per-task record files?); remove it or "
                "name a new directory")
        self.fsync = bool(fsync)

    @staticmethod
    def unit_digest(task: Any) -> str:
        """Content address of one sweep task: its record's file name.

        Hashes the *recipe*, not the program (rebuilding the program
        just to hash it would cost as much as the analysis it guards):
        the record format's :data:`CHECKPOINT_VERSION`, builder
        module/qualname, args/kwargs reprs, mode, engine, miss model,
        params, config repr and shard count.  Any edit to the sweep
        definition changes the digest, and the stale record is not read.
        """
        builder = task.builder
        h = hashlib.sha256()
        h.update(repr((
            CHECKPOINT_VERSION,
            getattr(builder, "__module__", "?"),
            getattr(builder, "__qualname__", repr(builder)),
            task.key, task.args, sorted(task.kwargs.items()),
            task.mode, task.engine, task.miss_model,
            sorted(task.params.items()),
            sorted(task.measure_kwargs.items()),
            repr(task.config), task.batch, task.shards,
        )).encode())
        return h.hexdigest()

    def _record_path(self, digest: str) -> str:
        return os.path.join(self.path, digest + ".pkl")

    def record(self, digest: str, outcome: Any) -> None:
        """Atomically write one completed task's outcome."""
        atomic_write_bytes(self._record_path(digest),
                           pickle.dumps(outcome,
                                        protocol=pickle.HIGHEST_PROTOCOL),
                           fsync=self.fsync)

    def restore(self, digest: str) -> Optional[Any]:
        """The recorded outcome, or None when there is no readable one."""
        try:
            with open(self._record_path(digest), "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError) as exc:
            logger.warning("checkpoint record %s unreadable (%s: %s); "
                           "its task will re-run",
                           self._record_path(digest), type(exc).__name__,
                           exc)
            return None

    def __repr__(self) -> str:
        return f"SweepCheckpoint({self.path!r})"
