"""Parallel sweep driver: run many independent analyses across processes.

Parameter sweeps (Fig 8's mesh scaling, Fig 11's micell scaling, the
ablation grids) are embarrassingly parallel: each point builds its own
program, runs its own analyzer or simulator, and reports totals.  The only
obstacle to ``multiprocessing`` is that :class:`~repro.lang.ast.Program`
objects are not picklable (their compiled address plans are closures), so a
:class:`SweepTask` ships the *recipe* — a module-level builder callable plus
its arguments, both picklable by reference — and each worker rebuilds the
program on its side of the fork.  Results come back as
:class:`SweepOutcome`, which carries only plain data (totals dicts, the
analyzer's :meth:`~repro.core.analyzer.ReuseAnalyzer.dump_state` payload,
run statistics, or a full :class:`~repro.apps.harness.RunResult`).

The driver is fault-tolerant (see :mod:`repro.tools.resilience`): failed
or crashed tasks are retried with exponential backoff under a
:class:`~repro.tools.resilience.RetryPolicy`, per-task wall-clock
deadlines are enforced worker-side, a dead worker process breaks only its
pool — the pool is rebuilt and in-flight tasks requeued — and an optional
checkpoint directory, one record file per completed task, lets
``run_sweep(..., checkpoint=path)`` resume a killed sweep from the last
completed task with byte-identical results.

Combined with the per-task :class:`~repro.tools.cache.AnalysisCache`,
repeated sweeps over overlapping grids run at file-read speed.

    tasks = [SweepTask(key=n, builder=build_original,
                       args=(SweepParams(n=n),)) for n in (6, 8, 10)]
    for out in run_sweep(tasks, jobs=3):
        print(out.key, out.totals)
"""

from __future__ import annotations

import heapq
import json
import logging
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import os

from repro.model.config import MachineConfig
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.testing import faults as _faults
from repro.tools.resilience import (
    DEFAULT_POLICY, FailureKind, RetryPolicy, SweepCheckpoint,
    WorkerFailure, deadline, install_term_handler,
)

logger = logging.getLogger("repro.tools.sweep")


@dataclass(frozen=True)
class SweepTask:
    """One point of a sweep: a program recipe plus how to run it.

    ``builder`` must be a module-level callable (picklable by reference);
    it receives ``*args, **kwargs`` and returns a Program.  ``mode`` selects
    the pipeline: ``"analyze"`` runs an
    :class:`~repro.tools.session.AnalysisSession` (reuse analysis +
    prediction), ``"measure"`` runs the simulator + timing harness.
    """

    key: Any
    builder: Callable
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    mode: str = "analyze"
    config: Optional[MachineConfig] = None
    miss_model: str = "sa"
    engine: str = "numpy"
    #: run-time program parameters forwarded to run()/measure()
    params: Dict[str, int] = field(default_factory=dict)
    #: extra keyword arguments for measure() (name, fused_routines, ...)
    measure_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: cache directory for analyze mode; None disables caching
    cache_dir: Optional[str] = None
    batch: bool = True
    #: time shards for analyze mode (1 = sequential): the task's worker
    #: runs ``AnalysisSession(shards=K)``, which cuts the program's
    #: segment table (or records a program the enumeration rejects)
    #: and analyzes its K shards one after another
    shards: int = 1
    #: directory for the task's spilled columnar trace store (analyze
    #: mode): a session that records writes the store there and its
    #: shards read the mmap'd store; a table-fed session writes none
    trace_dir: Optional[str] = None
    #: in-memory spill buffer bound (MB) for the trace-store recording
    #: (needs ``trace_dir``)
    spill_mb: Optional[float] = None
    #: closed-form spec ``{"workload": name, "params": {...}}`` (optional
    #: ``free``/``samples``) for static analyze tasks.  run_sweep groups
    #: tasks sharing a kernel shape, derives once parent-side (sampling
    #: on the sweep's own sizes), and ships the derivation to each task
    #: under the ``"derivation"`` key of this dict.
    closed_form: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.mode not in ("analyze", "measure"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.mode == "measure" and (self.shards > 1
                                       or self.trace_dir is not None
                                       or self.spill_mb is not None):
            raise ValueError("shards, trace_dir and spill_mb require "
                             "mode='analyze' (the simulator's LRU state "
                             "is order-dependent)")
        # the AnalysisSession guards, checked before any work is queued
        if self.engine == "static" and (self.shards > 1
                                        or self.trace_dir is not None):
            raise ValueError("engine='static' has no trace to shard or "
                             "spill")
        if self.spill_mb is not None and self.trace_dir is None:
            raise ValueError("spill_mb bounds a trace-store recording; "
                             "it needs trace_dir")
        if self.closed_form and (self.mode != "analyze"
                                 or self.engine != "static"):
            raise ValueError("closed_form requires mode='analyze' and "
                             "engine='static'")


@dataclass
class SweepOutcome:
    """Plain-data result of one sweep task (safe to send across processes)."""

    key: Any
    mode: str
    #: reuse engine the task selected (analyze mode)
    engine: str = "numpy"
    #: time shards the analysis ran across (1 = sequential)
    shards: int = 1
    #: predicted (analyze) or simulated (measure) misses per level
    totals: Dict[str, float] = field(default_factory=dict)
    #: analyzer dump_state payload (analyze mode only)
    state: Optional[Dict[str, Any]] = None
    stats: Any = None
    #: full RunResult (measure mode only)
    result: Any = None
    from_cache: bool = False
    #: "ExcType: message\n<traceback>" when the task failed; None on success
    error: Optional[str] = None
    #: failure taxonomy bucket when the task failed (see
    #: :class:`~repro.tools.resilience.FailureKind`): "transient",
    #: "fatal", or "poison"; None on success
    error_kind: Optional[str] = None
    #: retries this task consumed (0 = first attempt sufficed/failed)
    retries: int = 0
    #: wall seconds of the final attempt (worker-side)
    duration: float = 0.0
    #: worker-side metrics snapshot for this task (obs enabled only)
    metrics: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def set_failure(self, failure: WorkerFailure) -> "SweepOutcome":
        self.error = failure.render()
        self.error_kind = failure.kind
        self.retries = failure.retries
        self.duration = failure.duration
        return self

    def analyzer(self):
        """Rehydrate a results-only ReuseAnalyzer from the dumped state."""
        if self.error is not None:
            raise RuntimeError(f"task {self.key!r} failed: {self.error}")
        if self.state is None:
            raise RuntimeError("no analyzer state (measure-mode outcome?)")
        from repro.core.analyzer import ReuseAnalyzer
        return ReuseAnalyzer.from_state(self.state)

    def db(self, granularity: str):
        """Pattern database at one granularity, from the dumped state."""
        return self.analyzer().db(granularity)


def _execute_task(task: SweepTask) -> SweepOutcome:
    """Rebuild the program and run one pipeline point."""
    program = task.builder(*task.args, **task.kwargs)
    if task.mode == "measure":
        from repro.apps.harness import measure
        result = measure(program, config=task.config, batch=task.batch,
                         **task.measure_kwargs, **task.params)
        return SweepOutcome(key=task.key, mode="measure",
                            engine=task.engine,
                            totals=dict(result.misses), stats=result.stats,
                            result=result)
    from repro.tools.cache import AnalysisCache
    from repro.tools.session import AnalysisSession
    cache = AnalysisCache(task.cache_dir) if task.cache_dir else None
    # shard_jobs=1: pool workers are daemonic and may not spawn children,
    # so a sharded task analyzes its shards one after another in its own
    # process; the sweep's parallelism is across tasks.
    cf_spec = dict(task.closed_form or {})
    derivation = cf_spec.pop("derivation", None)
    session = AnalysisSession(program, config=task.config,
                              miss_model=task.miss_model, engine=task.engine,
                              cache=cache, batch=task.batch,
                              shards=task.shards, shard_jobs=1,
                              trace_store=task.trace_dir,
                              spill_mb=task.spill_mb,
                              closed_form=bool(task.closed_form),
                              closed_form_spec=cf_spec or None,
                              derivation=derivation)
    session.run(**task.params)
    return SweepOutcome(key=task.key, mode="analyze",
                        engine=task.engine, shards=task.shards,
                        totals=session.totals(),
                        state=session.analyzer.dump_state(),
                        stats=session.stats,
                        from_cache=session.from_cache)


def _failed_outcome(task: SweepTask, failure: WorkerFailure) -> SweepOutcome:
    """The outcome of a task that failed with ``failure``."""
    return SweepOutcome(key=task.key, mode=task.mode, engine=task.engine,
                        shards=task.shards).set_failure(failure)


def _task_attempt(task: SweepTask, attempt: int,
                  policy: Optional[RetryPolicy]) -> SweepOutcome:
    """One fault-isolated attempt at a whole task.

    A raising builder or pipeline must not poison the pool: the exception
    is captured into a structured :class:`WorkerFailure` (kind, type,
    message, traceback, attempt count, wall seconds) reflected in
    :attr:`SweepOutcome.error`/:attr:`SweepOutcome.error_kind` and
    logged.  Failure *counting* (``sweep.worker_failures``,
    ``resil.timeouts``) happens parent-side in the scheduler so it
    survives even when the failed attempt itself is retried and
    discarded.  The per-task deadline, if the policy sets one, is
    enforced *here*, worker-side, via SIGALRM.
    """
    t0 = time.perf_counter()
    try:
        with deadline(policy.timeout if policy else None):
            _faults.fire("sweep.unit", key=task.key, attempt=attempt)
            outcome = _execute_task(task)
        outcome.retries = attempt
        outcome.duration = time.perf_counter() - t0
        return outcome
    except Exception as exc:
        failure = WorkerFailure.from_exception(
            exc, retries=attempt, duration=time.perf_counter() - t0)
        logger.warning("sweep task %r failed (attempt %d, %s): %s",
                       task.key, attempt, failure.kind, failure.summary)
        return _failed_outcome(task, failure)


def _run_task(task: SweepTask, attempt: int = 0,
              policy: Optional[RetryPolicy] = None) -> SweepOutcome:
    """Worker body: one task attempt, metered when observability is on.

    With observability on, the attempt runs under a scoped registry
    whose snapshot travels back in :attr:`SweepOutcome.metrics` for the
    parent to merge.
    """
    if not _obs.is_enabled():
        return _task_attempt(task, attempt, policy)
    with _obs.scoped() as reg:
        reg.counter("sweep.tasks").inc()
        t0 = time.perf_counter()
        outcome = _task_attempt(task, attempt, policy)
        reg.timer("sweep.task_latency").observe(time.perf_counter() - t0)
        outcome.metrics = reg.snapshot()
    return outcome


def _task_failure(outcome: SweepOutcome) -> Optional[WorkerFailure]:
    """The structured failure of a task outcome, or None on success."""
    if outcome.error is None:
        return None
    return WorkerFailure(kind=outcome.error_kind or "fatal",
                         exc_type=outcome.error.split(":", 1)[0],
                         message=outcome.error.splitlines()[0],
                         traceback=outcome.error,
                         retries=outcome.retries,
                         duration=outcome.duration)


def _init_worker(obs_enabled: bool, log_level: Optional[int],
                 fault_specs: Tuple = ()) -> None:
    """Pool initializer: propagate parent state, arm clean termination.

    Propagates the obs flag, logger level, and active fault-injection
    specs (matters for spawn/forkserver start methods, where module
    globals set after import are not inherited), and installs a SIGTERM
    handler so pool teardown unwinds worker stacks instead of killing
    them mid-write.
    """
    _obs.set_enabled(obs_enabled)
    if log_level is not None:
        logging.getLogger("repro").setLevel(log_level)
    if fault_specs:
        _faults.set_specs(fault_specs)
    install_term_handler()


def default_jobs(limit: int = 8) -> int:
    """A sensible worker count: CPU count capped at ``limit``."""
    return max(1, min(limit, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

class _TaskScheduler:
    """Retry-aware execution of sweep tasks, inline or across processes.

    The pool path replaces the old ``Pool.map`` with an incremental
    submit/complete loop over a ``ProcessPoolExecutor`` so that three
    things become possible:

    * a task whose outcome carries a retryable failure (transient error,
      deadline overrun) is *resubmitted* after a backoff delay instead
      of surfacing the failure — bounded by the policy's retry budget;
    * a worker process that dies abruptly raises ``BrokenProcessPool``
      on every unfinished future: the scheduler rebuilds the pool,
      requeues those tasks (each charged one attempt — the crasher
      cannot be told apart from its innocent poolmates), and keeps
      going; a task that exhausts its budget this way is reported as a
      ``poison`` failure rather than requeued forever;
    * completed tasks stream to an ``on_done`` callback in completion
      order, which is what lets the checkpoint records stay current
      while the sweep is still running.

    Backoff never blocks the loop: delayed tasks sit in a ready-time
    heap and the completion wait uses the nearest ready time as its
    timeout.
    """

    def __init__(self, tasks: Sequence[SweepTask], policy: RetryPolicy,
                 on_done: Optional[Callable[[int, SweepOutcome], None]]
                 = None) -> None:
        self.tasks = list(tasks)
        self.policy = policy
        self.on_done = on_done
        self.rng = policy.rng()
        self.attempts = [0] * len(self.tasks)
        self.results: Dict[int, SweepOutcome] = {}

    def _count_retry(self) -> None:
        _obs.counter("resil.retries").inc()

    @staticmethod
    def _count_failure(failure: WorkerFailure) -> None:
        """Parent-side failure accounting: counted here, not in the
        worker, so the counters survive retried-and-discarded attempts
        and cover worker deaths that never report back."""
        _obs.counter("sweep.worker_failures").inc()
        if failure.exc_type == "DeadlineExceeded":
            _obs.counter("resil.timeouts").inc()

    def _finish(self, i: int, result: SweepOutcome) -> None:
        self.results[i] = result
        if self.on_done is not None and _task_failure(result) is None:
            self.on_done(i, result)

    def _wants_retry(self, i: int, failure: WorkerFailure) -> bool:
        kind = FailureKind(failure.kind)
        if not self.policy.should_retry(kind, self.attempts[i]):
            return False
        self._count_retry()
        logger.info("sweep task %d retrying (attempt %d, %s)", i,
                    self.attempts[i] + 1, failure.kind)
        self.attempts[i] += 1
        return True

    # -- inline ----------------------------------------------------------

    def run_inline(self, todo: Sequence[int]) -> None:
        for i in todo:
            while True:
                result = _run_task(self.tasks[i], self.attempts[i],
                                   self.policy)
                failure = _task_failure(result)
                if failure is not None:
                    self._count_failure(failure)
                if failure is None or not self._wants_retry(i, failure):
                    break
                time.sleep(self.policy.backoff(self.attempts[i] - 1,
                                               self.rng))
            self._finish(i, result)

    # -- pool ------------------------------------------------------------

    def run_pool(self, todo: Sequence[int], jobs: int) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        queue = deque(todo)
        delayed: List[Tuple[float, int]] = []  # (ready monotonic, index)
        inflight: Dict[Any, int] = {}
        nworkers = min(jobs, max(1, len(todo)))
        pool = self._make_pool(nworkers)
        try:
            while queue or delayed or inflight:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    queue.append(heapq.heappop(delayed)[1])
                while queue:
                    i = queue.popleft()
                    inflight[pool.submit(_run_task, self.tasks[i],
                                         self.attempts[i],
                                         self.policy)] = i
                if not inflight:
                    time.sleep(max(0.0, delayed[0][0] - now))
                    continue
                timeout = (max(0.0, delayed[0][0] - now) if delayed
                           else None)
                done, _pending = wait(list(inflight), timeout=timeout,
                                      return_when=FIRST_COMPLETED)
                broken = False
                for fut in done:
                    i = inflight.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        self._broken_task(i, queue)
                        continue
                    except Exception as exc:
                        # result failed to unpickle or similar plumbing
                        failure = WorkerFailure.from_exception(
                            exc, retries=self.attempts[i])
                        self._count_failure(failure)
                        if self._wants_retry(i, failure):
                            self._delay(delayed, i)
                        else:
                            self._finish(i, _failed_outcome(
                                self.tasks[i], failure))
                        continue
                    failure = _task_failure(result)
                    if failure is not None:
                        self._count_failure(failure)
                    if failure is not None and self._wants_retry(
                            i, failure):
                        self._delay(delayed, i)
                    else:
                        self._finish(i, result)
                if broken:
                    # every unfinished future on a broken pool is dead;
                    # requeue the survivors and rebuild the pool
                    _obs.counter("resil.pool_rebuilds").inc()
                    for fut, i in list(inflight.items()):
                        self._broken_task(i, queue)
                    inflight.clear()
                    pool.shutdown(wait=False)
                    logger.warning("sweep worker pool broke; rebuilding "
                                   "(%d task(s) requeued)", len(queue))
                    pool = self._make_pool(nworkers)
        finally:
            pool.shutdown(wait=False)

    def _make_pool(self, nworkers: int):
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(
            max_workers=nworkers, initializer=_init_worker,
            initargs=(_obs.is_enabled(),
                      logging.getLogger("repro").level or None,
                      _faults.active_specs()))

    def _broken_task(self, i: int, queue: deque) -> None:
        """A task lost to a dead worker: requeue or report as poison."""
        _obs.counter("sweep.worker_failures").inc()
        if self.policy.should_retry(FailureKind.POISON, self.attempts[i]):
            self._count_retry()
            self.attempts[i] += 1
            queue.append(i)
        else:
            self._finish(i, _failed_outcome(self.tasks[i], WorkerFailure(
                kind=FailureKind.POISON.value,
                exc_type="BrokenProcessPool",
                message="worker process exited abruptly "
                        "(crash, OOM kill, or hard signal)",
                traceback="BrokenProcessPool: worker process exited "
                          "abruptly\n",
                retries=self.attempts[i])))

    def _delay(self, delayed: List[Tuple[float, int]], i: int) -> None:
        ready = time.monotonic() + self.policy.backoff(
            self.attempts[i] - 1, self.rng)
        heapq.heappush(delayed, (ready, i))


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def build_sweep_manifest(outcomes: Sequence[SweepOutcome],
                         wall_time: Optional[float] = None
                         ) -> Dict[str, Any]:
    """Roll a finished sweep up into one plain-data summary.

    The sweep-level counterpart of :class:`~repro.obs.manifest.RunManifest`:
    totalled event counts across every task, the analysis-cache hit rate,
    per-task one-line summaries (now including the failure kind, retry
    count, and wall seconds of each task), and — when observability was
    enabled during the sweep — the merged worker metric deltas.
    Everything is JSON-serialisable.
    """
    events = {"accesses": 0, "loads": 0, "stores": 0, "ops": 0}
    cacheable = 0
    cache_hits = 0
    failures = 0
    retries = 0
    failure_kinds: Dict[str, int] = {}
    task_rows: List[Dict[str, Any]] = []
    merged = _obs.MetricsRegistry()
    have_metrics = False
    for out in outcomes:
        row: Dict[str, Any] = {"key": out.key, "mode": out.mode,
                               "engine": out.engine, "shards": out.shards,
                               "from_cache": out.from_cache,
                               "retries": out.retries,
                               "duration_s": round(out.duration, 6)}
        retries += out.retries
        if out.error is not None:
            failures += 1
            row["error"] = out.error.splitlines()[0]
            row["error_kind"] = out.error_kind or "fatal"
            failure_kinds[row["error_kind"]] = (
                failure_kinds.get(row["error_kind"], 0) + 1)
        stats = out.stats
        if stats is not None:
            row["accesses"] = stats.accesses
            events["accesses"] += stats.accesses
            events["loads"] += stats.loads
            events["stores"] += stats.stores
            events["ops"] += stats.ops
        if out.mode == "analyze" and out.error is None:
            cacheable += 1
            cache_hits += bool(out.from_cache)
        if out.metrics:
            merged.merge(out.metrics)
            have_metrics = True
        task_rows.append(row)
    manifest: Dict[str, Any] = {
        "kind": "sweep",
        "created": time.time(),
        "tasks": len(task_rows),
        "failures": failures,
        "events": events,
        "cache": {
            "eligible": cacheable,
            "hits": cache_hits,
            "hit_rate": (cache_hits / cacheable) if cacheable else 0.0,
        },
        "resilience": {
            "retries": retries,
            "failure_kinds": failure_kinds,
        },
        "task_summaries": task_rows,
    }
    if wall_time is not None:
        manifest["wall_time_s"] = wall_time
    if have_metrics:
        manifest["metrics"] = merged.snapshot()
    return manifest


def render_sweep_manifest(manifest: Dict[str, Any]) -> str:
    """Human-readable sweep roll-up (the ``repro stats`` view)."""
    cache = manifest.get("cache", {})
    resil = manifest.get("resilience", {})
    lines = [
        f"sweep manifest: {manifest.get('tasks', 0)} task(s), "
        f"{manifest.get('failures', 0)} failed",
    ]
    if "wall_time_s" in manifest:
        lines.append(f"  wall time: {manifest['wall_time_s']:.2f}s")
    if cache.get("eligible"):
        lines.append(f"  cache: {cache.get('hits', 0)}/"
                     f"{cache['eligible']} hits "
                     f"({100.0 * cache.get('hit_rate', 0.0):.0f}%)")
    if resil.get("retries"):
        lines.append(f"  retries: {resil['retries']}")
    kinds = resil.get("failure_kinds") or {}
    if kinds:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        lines.append(f"  failure kinds: {pairs}")
    events = manifest.get("events", {})
    if events.get("accesses"):
        lines.append("  events: " + ", ".join(
            f"{k}={v}" for k, v in events.items()))
    rows = manifest.get("task_summaries", [])
    if rows:
        lines.append("")
        lines.append(f"  {'key':<16}{'mode':<9}{'engine':<9}"
                     f"{'retries':>8}{'wall':>10}  status")
        for row in rows:
            status = "cache hit" if row.get("from_cache") else "ok"
            if "error" in row:
                status = (f"FAILED [{row.get('error_kind', 'fatal')}] "
                          f"{row['error']}")
            lines.append(
                f"  {str(row.get('key'))[:15]:<16}"
                f"{str(row.get('mode', '?')):<9}"
                f"{str(row.get('engine', '?')):<9}"
                f"{row.get('retries', 0):>8}"
                f"{row.get('duration_s', 0.0) * 1e3:>8.1f}ms"
                f"  {status}")
    counters = manifest.get("metrics", {}).get("counters", {})
    resil_counters = {n: v for n, v in counters.items()
                      if n.startswith(("resil.", "cache.quarantined"))}
    if resil_counters:
        lines.append("")
        lines.append(f"  {'resilience counter':<34}{'value':>10}")
        for name in sorted(resil_counters):
            lines.append(f"  {name:<34}{resil_counters[name]:>10}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_sweep(tasks: Sequence[SweepTask],
              jobs: Optional[int] = None,
              manifest_out: Optional[str] = None,
              retry: Optional[RetryPolicy] = None,
              checkpoint: Optional[str] = None,
              checkpoint_fsync: bool = False) -> List[SweepOutcome]:
    """Run every task, in order, across ``jobs`` worker processes.

    ``jobs=None`` or ``jobs=1`` (or a single task) runs inline — no
    processes, easiest to debug, and what the test suite exercises by
    default.  Outcomes are returned in task order regardless of worker
    scheduling.  A failing task never aborts the sweep: its outcome
    carries :attr:`SweepOutcome.error` (plus the structured
    ``error_kind``/``retries``/``duration`` fields) and empty results.
    With observability enabled, per-task worker metrics are merged back
    into the parent's registry before returning.

    The pool spreads tasks, not shards: a task with ``shards=K`` runs
    one :class:`~repro.tools.session.AnalysisSession` with ``shards=K``
    in its worker, which records the trace once, analyzes the K shards
    in turn, caches their partials and merges them.

    ``retry`` is the :class:`~repro.tools.resilience.RetryPolicy`
    applied per task (default: two retries of transient/poison failures,
    no deadline); retried tasks re-run the same deterministic analysis,
    so results are byte-identical however many attempts they took.

    ``checkpoint`` names a directory of record files (see
    :class:`~repro.tools.resilience.SweepCheckpoint`): each completed
    task's outcome is written to ``<unit_digest>.pkl`` as soon as it
    finishes, and a later ``run_sweep(..., checkpoint=same_dir)``
    restores those tasks from disk instead of recomputing them — a
    sweep killed mid-run resumes from where it died with byte-identical
    results.  A path that exists and is not a directory raises
    ``ValueError`` before any task runs.  ``checkpoint_fsync``
    additionally fsyncs each record before it is renamed into place.

    ``manifest_out`` writes a sweep-level roll-up JSON (see
    :func:`build_sweep_manifest`) after the sweep completes; with
    observability enabled its metrics are the sweep's whole delta, the
    parent-side ``resil.*`` counts included.
    """
    t_start = time.perf_counter()
    tasks = list(tasks)
    if jobs is None:
        jobs = 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    policy = retry if retry is not None else DEFAULT_POLICY
    obs_before = (_obs.snapshot() if manifest_out and _obs.is_enabled()
                  else None)
    ckpt = (SweepCheckpoint(checkpoint, fsync=checkpoint_fsync)
            if checkpoint else None)
    digests: List[str] = []
    restored: Dict[int, SweepOutcome] = {}
    if ckpt is not None:
        digests = [SweepCheckpoint.unit_digest(task) for task in tasks]
        for i, digest in enumerate(digests):
            outcome = ckpt.restore(digest)
            if outcome is not None:
                restored[i] = outcome
        if restored:
            _obs.counter("resil.checkpoint_restored").inc(len(restored))
            logger.info("sweep checkpoint %s: restored %d/%d task(s)",
                        checkpoint, len(restored), len(tasks))

    # Parent-side closed-form derivation: static tasks that request
    # closed_form and share one kernel shape derive ONCE here — sampled
    # on the sweep's own sizes, so every task's bound is a verified hull
    # member — and the derivation ships to each task.  This patches
    # tasks after digests were taken, so checkpoints stay valid.  A
    # failed derivation leaves its group untouched: tasks derive (or
    # enumerate) on their own side.
    cf_groups: Dict[Tuple, List[int]] = {}
    for ti, task in enumerate(tasks):
        spec = task.closed_form
        if not spec or "derivation" in spec or "workload" not in spec:
            continue
        from repro.static.closedform import PRIMARY_FREE
        free = spec.get("free") or PRIMARY_FREE.get(spec["workload"])
        if free is None or free not in (spec.get("params") or {}):
            continue
        fixed = tuple(sorted((k, v) for k, v in spec["params"].items()
                             if k != free))
        cf_groups.setdefault((spec["workload"], free, fixed),
                             []).append(ti)
    for (workload, free, fixed), tis in cf_groups.items():
        from repro.static.closedform import default_samples, get_derivation
        values = sorted({int(tasks[ti].closed_form["params"][free])
                         for ti in tis})
        try:
            samples = tasks[tis[0]].closed_form.get("samples")
            if samples is None:
                samples = default_samples(workload, free, values)
            cache = None
            cache_dirs = {tasks[ti].cache_dir for ti in tis
                          if tasks[ti].cache_dir}
            if len(cache_dirs) == 1:
                from repro.tools.cache import AnalysisCache
                cache = AnalysisCache(cache_dirs.pop())
            cfg = tasks[tis[0]].config
            with _trace.span("closedform.derive", workload=workload,
                             tasks=len(tis)):
                deriv = get_derivation(
                    workload, {**dict(fixed), free: values[-1]},
                    free=free,
                    granularities=(cfg.granularities()
                                   if cfg is not None else None),
                    samples=samples, cache=cache)
        except Exception as exc:
            logger.warning("sweep closed-form derivation failed for "
                           "%s/%s (%s: %s); %d task(s) evaluate on "
                           "their own", workload, free,
                           type(exc).__name__, exc, len(tis))
            continue
        for ti in tis:
            tasks[ti] = replace(tasks[ti], closed_form={
                **tasks[ti].closed_form, "samples": list(samples),
                "derivation": deriv})

    def on_done(i: int, result: SweepOutcome) -> None:
        # a record holds the task's answer, not its work: restored
        # tasks count no sweep.* or analyzer.* work a second time
        if ckpt is not None and i not in restored:
            ckpt.record(digests[i], replace(result, metrics=None))

    scheduler = _TaskScheduler(tasks, policy, on_done=on_done)
    scheduler.results.update(restored)
    todo = [i for i in range(len(tasks)) if i not in restored]
    if jobs == 1 or len(todo) <= 1:
        scheduler.run_inline(todo)
    else:
        scheduler.run_pool(todo, jobs)
    outcomes = [scheduler.results[i] for i in range(len(tasks))]
    if _obs.is_enabled():
        registry = _obs.registry()
        for out in outcomes:
            if out.metrics:
                registry.merge(out.metrics)
    failures = sum(1 for out in outcomes if out.error is not None)
    if failures:
        logger.warning("sweep finished with %d/%d failed tasks",
                       failures, len(outcomes))
    if manifest_out:
        manifest = build_sweep_manifest(
            outcomes, wall_time=time.perf_counter() - t_start)
        if obs_before is not None:
            # the workers' merged snapshots plus the parent-side counts
            # (resil.*, sweep.worker_failures) of this sweep
            manifest["metrics"] = _obs.delta(obs_before, _obs.snapshot())
        with open(manifest_out, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, default=str)
        logger.info("sweep manifest written to %s", manifest_out)
    return outcomes
