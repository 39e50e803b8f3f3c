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
* :class:`SweepCheckpoint` — a durable JSONL journal of completed sweep
  units plus a content-addressed payload store, so a killed sweep
  restarts from where it died with byte-identical results.

Everything here steers *scheduling only*: a retried or resumed unit
re-runs the same deterministic analysis, so pattern databases stay
byte-identical to an undisturbed run — the invariant the equivalence
test matrix enforces.
"""

from __future__ import annotations

import hashlib
import json
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
from repro.tools.atomicio import atomic_write_bytes, atomic_write_text

logger = logging.getLogger("repro.tools.resilience")

#: Bump when the checkpoint journal layout changes.
CHECKPOINT_VERSION = 1


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
    """Durable journal of completed sweep units + payload store.

    Layout: the journal at ``path`` is JSONL — a header line
    ``{"kind": "sweep-checkpoint", "version": 1}`` followed by one line
    per completed unit: ``{"unit": <digest>, "spec": <human label>,
    "payload": <ref>}``.  Payloads (pickled unit results) are
    *content-addressed* by the sha256 of their bytes, which bounds
    journal growth: retried or repeated units producing identical bytes
    share one stored payload however many journal lines reference it.
    With a :class:`~repro.tools.cache.AnalysisCache` attached the bytes
    go to the cache's blob store and the ref is ``"cache:<sha256>"``;
    otherwise they land as ``<sha256>.pkl`` in the sidecar directory
    ``path + ".d"``.  Either way the payload is durable *before* the
    journal line is appended, so a crash between the two leaves at
    worst an unreferenced payload — never a journal line pointing at a
    missing or partial result.  A truncated final line (the crash
    landed mid-append) is skipped on load.

    Resume is strict: a unit (one sweep task) is restored only when its
    digest — over the builder's identity, arguments, mode, engine, shard
    count and analysis knobs — matches, so editing the sweep definition
    silently invalidates stale journal entries instead of replaying
    them.  Restored payloads are the pickled task outcomes themselves,
    which is what makes a resumed sweep's outputs byte-identical to an
    uninterrupted run.
    """

    #: A journal holding more than ``COMPACT_FACTOR`` lines per live
    #: unit is rewritten in place (see :meth:`compact`).
    COMPACT_FACTOR = 2

    def __init__(self, path: str, fsync: bool = False,
                 cache=None) -> None:
        self.path = str(path)
        self.payload_dir = self.path + ".d"
        self.fsync = bool(fsync)
        #: optional AnalysisCache whose blob store holds the payloads
        self.cache = cache
        #: journal occupancy, tracked lazily: non-header lines on disk
        #: and distinct unit digests they cover.  None until the first
        #: load()/record() scans the file.
        self._lines: Optional[int] = None
        self._live: Optional[Dict[str, str]] = None

    # -- unit digests ----------------------------------------------------

    @staticmethod
    def unit_digest(task: Any) -> str:
        """Content address of one sweep task.

        Hashes the *recipe*, not the program (rebuilding the program
        just to hash it would cost as much as the analysis it guards):
        builder module/qualname, args/kwargs reprs, mode, engine, miss
        model, params, config repr and shard count.  Any edit to the
        sweep definition changes the digest and the stale journal entry
        is ignored.
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
            # the unit kind and index sweeps hashed when a sharded task
            # ran as one pool unit per shard: a whole task still hashes
            # ("task", 0), so journals written then keep resuming
            "task", 0,
        )).encode())
        return h.hexdigest()

    # -- journal ---------------------------------------------------------

    def load(self) -> Dict[str, str]:
        """Digest -> payload filename for every intact journal line."""
        done: Dict[str, str] = {}
        self._lines = 0
        self._live = done
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return done
        for line in lines:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                # a crash mid-append truncates the final line; anything
                # after it cannot exist, so stop rather than guess
                logger.warning("checkpoint %s: skipping truncated "
                               "journal line", self.path)
                break
            if row.get("kind") == "sweep-checkpoint":
                if row.get("version") != CHECKPOINT_VERSION:
                    logger.warning(
                        "checkpoint %s: version %r != %d; ignoring",
                        self.path, row.get("version"), CHECKPOINT_VERSION)
                    self._lines = None
                    self._live = None
                    return {}
                continue
            unit, payload = row.get("unit"), row.get("payload")
            if unit and payload:
                self._lines += 1
                done[unit] = payload
        # load() aliases the caller's mapping as the live view; keep a
        # private copy so caller mutations cannot skew compaction
        self._live = dict(done)
        return done

    def restore(self, digest: str, payload_name: str) -> Optional[Any]:
        """Unpickle one journalled payload; None when damaged/missing.

        Accepts every ref form the journal has ever used: the
        content-addressed sidecar files, ``"cache:<sha256>"`` blob refs
        (needs the same cache attached; without one the unit is
        recomputed), and the legacy unit-digest-named files older
        journals wrote.
        """
        if payload_name.startswith("cache:"):
            content = payload_name[len("cache:"):]
            data = (self.cache.get_blob(content)
                    if self.cache is not None else None)
            if data is None:
                logger.warning("checkpoint payload %s missing from the "
                               "cache blob store; unit %s will be "
                               "recomputed", payload_name, digest[:12])
                return None
            try:
                return pickle.loads(data)
            except (pickle.UnpicklingError, EOFError, ValueError,
                    AttributeError, ImportError) as exc:
                logger.warning("checkpoint payload %s undecodable "
                               "(%s: %s); unit %s will be recomputed",
                               payload_name, type(exc).__name__, exc,
                               digest[:12])
                return None
        path = os.path.join(self.payload_dir, payload_name)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError) as exc:
            logger.warning("checkpoint payload %s unreadable (%s: %s); "
                           "unit %s will be recomputed", payload_name,
                           type(exc).__name__, exc, digest[:12])
            return None

    def record(self, digest: str, spec: str, payload: Any) -> None:
        """Durably journal one completed unit (payload first, then line).

        The payload's bytes are stored under their own sha256 — to the
        attached cache's blob store when there is one, else to the
        sidecar directory — and an already-present address is not
        rewritten (``resil.checkpoint_dedup`` counts the skips).  The
        journal line is appended with ``O_APPEND`` (atomic for single
        short writes on POSIX) and optionally fsynced, so concurrent
        readers and a post-crash resume always see a prefix of intact
        lines.
        """
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        content = hashlib.sha256(data).hexdigest()
        if self.cache is not None:
            if self.cache.put_blob(content, data):
                _obs.counter("resil.checkpoint_dedup").inc()
            ref = "cache:" + content
        else:
            ref = content + ".pkl"
            final = os.path.join(self.payload_dir, ref)
            if os.path.exists(final):
                _obs.counter("resil.checkpoint_dedup").inc()
            else:
                atomic_write_bytes(final, data, fsync=self.fsync)
        line = json.dumps({"unit": digest, "spec": spec, "payload": ref})
        new = not os.path.exists(self.path)
        with open(self.path, "a", encoding="utf-8") as fh:
            if new:
                fh.write(json.dumps({"kind": "sweep-checkpoint",
                                     "version": CHECKPOINT_VERSION}) + "\n")
            fh.write(line + "\n")
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
        if self._lines is None or self._live is None:
            self.load()
        else:
            self._lines += 1
            self._live[digest] = ref
        self._maybe_compact()

    # -- compaction ------------------------------------------------------

    def _maybe_compact(self) -> None:
        """Compact when stale lines outnumber live units.

        Resumed sweeps, re-runs over overlapping grids, and units whose
        payload refs changed all append fresh lines for digests the
        journal already lists, so a long-lived journal grows without
        bound even though only the *last* line per digest matters.
        When the line count exceeds ``COMPACT_FACTOR`` times the live
        unit count, the journal is rewritten in place.
        """
        if (self._lines is not None and self._live
                and self._lines > self.COMPACT_FACTOR * len(self._live)):
            self.compact()

    def compact(self) -> int:
        """Rewrite the journal keeping one line per unit; lines dropped.

        The replacement is built in a temp file in the journal's own
        directory and swapped in with an atomic ``os.replace``, so a
        reader (or a crash) sees either the old journal or the new one,
        never a partial rewrite.  Only the winning (latest) line per
        digest survives — exactly the mapping :meth:`load` would have
        produced — so a resume from the compacted journal restores the
        same payload bytes and stays byte-identical.  Payload files and
        blobs are untouched: they are content-addressed and may be
        shared with other journals.
        """
        live = self.load()
        before = self._lines or 0
        lines = [json.dumps({"kind": "sweep-checkpoint",
                             "version": CHECKPOINT_VERSION})]
        lines += [json.dumps({"unit": unit, "payload": ref})
                  for unit, ref in live.items()]
        atomic_write_text(self.path, "\n".join(lines) + "\n",
                          fsync=self.fsync)
        self._lines = len(live)
        self._live = dict(live)
        dropped = before - len(live)
        if dropped > 0:
            _obs.counter("resil.checkpoint_compactions").inc()
            logger.info("checkpoint %s compacted: %d line(s) -> %d",
                        self.path, before, len(live))
        return dropped

    def __repr__(self) -> str:
        return f"SweepCheckpoint({self.path!r})"
