"""The asyncio HTTP front end and job scheduler of ``repro serve``.

One process, two concerns:

* an :mod:`asyncio` listener speaking just enough HTTP/1.1 (stdlib
  only) to serve the JSON API below — persistent connections included:
  a connection serves requests until the client sends ``Connection:
  close``, goes idle past ``keepalive_idle_s``, or hits the
  ``keepalive_max_requests`` per-connection cap (submit→poll loops
  reuse one socket instead of reconnecting per request), and
* a scheduler task that starts queued jobs as ``multiprocessing``
  children of :func:`repro.service.worker.job_process_main`, bounded by
  ``workers`` overall and by each tenant's ``max_concurrent``.

API (all JSON unless noted)::

    GET  /v1/healthz                    liveness + queue gauges
    GET  /v1/metrics                    svc.* (and merged worker) metrics
    POST /v1/jobs                       submit; body = JobSpec fields
                                        (+ optional "tenant"); 201 -> id
    GET  /v1/jobs[?tenant=T]            list jobs
    GET  /v1/jobs/<id>                  lifecycle state + worker phase
    GET  /v1/jobs/<id>/artifacts        artifact names/digests/sizes
    GET  /v1/jobs/<id>/artifacts/<name> artifact bytes (octet-stream)
    POST /v1/jobs/<id>/cancel           cancel queued or running job

Durability: every lifecycle transition rewrites the job's record
through :class:`~repro.service.jobs.JobStore` *before* it is acted on,
so a SIGKILL at any point leaves every record whole — on restart, queued
jobs are still queued and mid-run jobs re-run (their content-addressed
artifacts dedup against any the killed attempt already published).

Admission: tenant queue depth over quota, or an oversized request body,
returns ``429`` with a ``Retry-After`` header.  A tenant at its
*concurrency* cap is not rejected — its jobs queue and start when a
slot frees, without blocking other tenants.

Robustness: a :class:`~repro.service.supervise.Supervisor` runs inside
the scheduler tick, killing workers that blow their walltime, memory
ceiling, or heartbeat timeout (SIGTERM, escalating to SIGKILL); worker
deaths without a result requeue with capped backoff until the poison
threshold quarantines the job (``failed_poison``).  Server-wide
overload sheds submissions with ``503`` + ``Retry-After`` (distinct
from the per-tenant ``429``: 503 means *the server* is saturated, 429
means *this tenant* is over its share), and SIGTERM drains gracefully:
stop accepting, let running jobs finish up to ``drain_timeout_s``,
leave the rest on record for the next server.  ``healthz`` degrades to
503 while draining so load balancers stop routing here first.
"""

from __future__ import annotations

import asyncio
import json
import logging
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _obs
from repro.service.jobs import (
    ARTIFACT_KINDS, JobStore, JobSpec, SpecError,
)
from repro.service.quota import (
    AdmissionController, OverloadPolicy, TenantQuota,
)
from repro.service.supervise import (
    SupervisionPolicy, Supervisor, reap_orphans,
)
from repro.service.worker import preload
from repro.tools.atomicio import atomic_write_text

logger = logging.getLogger("repro.service.server")

_REASONS = {200: "OK", 201: "Created", 202: "Accepted",
            400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: name of the discovery file written into the state dir on startup
SERVICE_FILE = "service.json"

#: the scheduler's idle tick: with nothing waking it, the loop still
#: supervises, refreshes gauges and launches backed-off jobs this often
SCHEDULE_TICK_S = 0.25
#: re-check delay for a child whose sentinel fired before it could be
#: waited on
REAP_RETRY_S = 0.002


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to run."""

    state_dir: str
    host: str = "127.0.0.1"
    #: 0 = pick a free port; the resolved one lands in service.json
    port: int = 0
    #: bound on concurrently running job processes (all tenants)
    workers: int = 2
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    tenant_quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: submissions larger than this are rejected with 429
    max_request_bytes: int = 256 * 1024
    #: Retry-After hint (seconds) on 429 responses
    retry_after_s: float = 2.0
    #: fsync every job-record write
    fsync: bool = False
    #: requests served per connection before the server closes it
    #: (1 = the old one-request-per-connection behaviour)
    keepalive_max_requests: int = 100
    #: close a kept-alive connection after this long with no request
    keepalive_idle_s: float = 5.0
    # -- supervision (0 disables each ceiling) --------------------------
    #: kill a job running longer than this
    walltime_s: float = 0.0
    #: kill a worker whose heartbeat reports more resident MiB than this
    max_rss_mb: float = 0.0
    #: worker heartbeat period (status.json re-stamp)
    heartbeat_s: float = 0.5
    #: kill a worker silent for this long (0 disables)
    heartbeat_timeout_s: float = 30.0
    #: SIGTERM → SIGKILL escalation grace
    kill_grace_s: float = 5.0
    #: worker-killing crashes before a job quarantines as failed_poison
    poison_threshold: int = 3
    # -- overload shedding ----------------------------------------------
    #: total queued jobs (all tenants) before submissions shed with 503
    queue_max: int = 0
    #: summed worker heartbeat RSS (MiB) before submissions shed
    max_inflight_rss_mb: float = 0.0
    #: Retry-After hint on 503 shed responses
    shed_retry_after_s: float = 5.0
    #: on stop, let running jobs finish for up to this long before
    #: SIGTERM (0 = legacy immediate interrupt; ``repro serve`` passes
    #: its own operator-facing default)
    drain_timeout_s: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.keepalive_max_requests < 1:
            raise ValueError("keepalive_max_requests must be >= 1")
        if self.keepalive_idle_s <= 0:
            raise ValueError("keepalive_idle_s must be > 0")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        # SupervisionPolicy/OverloadPolicy validate their own fields at
        # construction in AnalysisService.__init__

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.state_dir, "cache")

    @property
    def trace_dir(self) -> str:
        return os.path.join(self.state_dir, "traces")


class AnalysisService:
    """The server: listener + scheduler over a durable :class:`JobStore`."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.store = JobStore(config.state_dir, fsync=config.fsync)
        self.admission = AdmissionController(
            default=config.default_quota,
            per_tenant=config.tenant_quotas,
            retry_after_s=config.retry_after_s)
        self.supervisor = Supervisor(self.store, SupervisionPolicy(
            walltime_s=config.walltime_s,
            max_rss_mb=config.max_rss_mb,
            heartbeat_timeout_s=config.heartbeat_timeout_s,
            kill_grace_s=config.kill_grace_s,
            poison_threshold=config.poison_threshold))
        self.overload = OverloadPolicy(
            queue_max=config.queue_max,
            max_inflight_rss_mb=config.max_inflight_rss_mb,
            retry_after_s=config.shed_retry_after_s)
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._stopping = False
        #: draining: still serving polls, not accepting or launching
        self._draining = False
        self._stopped = False
        self._procs: Dict[str, multiprocessing.Process] = {}
        #: jobs whose worker's sentinel fired and that are not yet reaped
        self._exited: set = set()
        self._cancel_requested: set = set()
        #: live connection handlers, closed/awaited by stop() — a
        #: kept-alive connection may otherwise sit parked on its idle
        #: timeout long after the listener is gone
        self._conn_writers: set = set()
        self._conn_tasks: set = set()
        # fork is markedly faster and inherits the warm import state;
        # fall back to the platform default elsewhere
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._prev_obs: Optional[bool] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Recover the job records, bind the listener, start scheduling."""
        # the service's own telemetry should exist even if the operator
        # didn't export REPRO_OBS; restored on stop()
        self._prev_obs = _obs.is_enabled()
        _obs.set_enabled(True)
        # forked jobs inherit these instead of importing them per job
        preload()
        requeued = self.store.recover()
        if self.store.resumed_ids:
            _obs.counter("svc.resumed").inc(len(self.store.resumed_ids))
            # a SIGKILLed server can't have terminated its children;
            # verify-and-kill any still running before re-launching
            reap_orphans(self.store, self.store.resumed_ids,
                         grace_s=self.config.kill_grace_s)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        atomic_write_text(
            os.path.join(self.config.state_dir, SERVICE_FILE),
            json.dumps({"host": self.config.host, "port": self.port,
                        "pid": os.getpid()}) + "\n")
        self._scheduler = asyncio.ensure_future(self._schedule_loop())
        logger.info("analysis service listening on %s:%d (%d queued, "
                    "%d resumed)", self.config.host, self.port,
                    len(requeued), len(self.store.resumed_ids))

    async def stop(self) -> None:
        """Graceful stop: drain, close the listener, SIGTERM leftovers.

        With ``drain_timeout_s > 0`` the service first *drains*: new
        submissions bounce with 503, nothing new launches, ``healthz``
        reports degraded — but running jobs keep running (and clients
        keep polling over live connections) until they finish or the
        deadline passes.  Whatever is still running then is SIGTERMed;
        their records still read ``running``, so the next start
        re-queues them (``resumed``) and their content-addressed
        artifacts dedup whatever this attempt already published.
        Queued jobs simply stay recorded as queued.
        """
        if self._stopped:  # idempotent: drain tests stop() explicitly
            return
        self._stopped = True
        self._draining = True
        self._wake.set()
        if self.config.drain_timeout_s > 0 and self._procs:
            logger.info("draining: waiting up to %gs for %d running "
                        "job(s)", self.config.drain_timeout_s,
                        len(self._procs))
            deadline = time.monotonic() + self.config.drain_timeout_s
            # the scheduler keeps ticking (and reaping) while we wait
            while self._procs and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
        self._stopping = True
        self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn_writer in list(self._conn_writers):
            conn_writer.close()
        for task in list(self._conn_tasks):
            try:
                await task
            except (ConnectionError, OSError,
                    asyncio.CancelledError):  # pragma: no cover
                pass
        if self._scheduler is not None:
            await self._scheduler
        for job_id, proc in list(self._procs.items()):
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - wedged child
                proc.kill()
                proc.join(timeout=5.0)
            logger.info("job %s interrupted by shutdown (will resume)",
                        job_id)
        self._procs.clear()
        self._exited.clear()
        if self._prev_obs is not None:
            _obs.set_enabled(self._prev_obs)

    # -- scheduler ------------------------------------------------------

    def _queued_fifo(self) -> List[str]:
        return [j.id for j in sorted(self.store.jobs.values(),
                                     key=lambda j: (j.created, j.id))
                if j.state == "queued"]

    async def _schedule_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            try:
                await asyncio.wait_for(self._wake.wait(),
                                       timeout=SCHEDULE_TICK_S)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            self._reap(loop)
            if self._stopping:
                return
            # ceilings stay enforced while draining — a wedged job must
            # not be able to hold the drain to its full deadline
            self.supervisor.check(self._procs)
            if not self._draining:
                self._launch(loop)
            _obs.gauge("svc.queue_depth").set(
                sum(1 for j in self.store.jobs.values()
                    if j.state == "queued"))
            _obs.gauge("svc.running").set(len(self._procs))
            _obs.gauge("svc.inflight_rss_mb").set(
                round(self.supervisor.inflight_rss_mb(self._procs), 1))

    def _launch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start queued jobs while worker slots and tenant quota allow."""
        now = time.time()
        for job_id in self._queued_fifo():
            if len(self._procs) >= self.config.workers:
                return
            job = self.store.jobs[job_id]
            if job.not_before > now:
                # crash-requeued: still inside its backoff window
                continue
            if not self.admission.may_start(
                    job.tenant, self.store.running_count(job.tenant)):
                continue
            from repro.service.worker import job_process_main
            from repro.testing import faults as _faults
            self.store.mark_started(job_id)
            proc = self._mp.Process(
                target=job_process_main,
                args=(self.store.job_dir(job_id), self.config.cache_dir,
                      self.config.trace_dir, _obs.is_enabled(),
                      logging.getLogger("repro").level or None,
                      _faults.active_specs(), self.config.heartbeat_s),
                daemon=False)
            proc.start()
            self._procs[job_id] = proc
            _obs.counter("svc.started").inc()
            # wake the scheduler the instant the child exits
            loop.add_reader(proc.sentinel, self._on_child_exit,
                            loop, proc.sentinel, job_id)
            logger.info("job %s started (tenant %s, pid %d)",
                        job_id, job.tenant, proc.pid)

    def _on_child_exit(self, loop: asyncio.AbstractEventLoop,
                       sentinel: int, job_id: str) -> None:
        try:
            loop.remove_reader(sentinel)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self._exited.add(job_id)
        self._wake.set()

    def _reap(self, loop: asyncio.AbstractEventLoop) -> None:
        """Record the outcome of exited job processes.

        A child closes its sentinel a moment before the kernel lets the
        parent wait on it, so a fired sentinel can still read as alive.
        Such a child is looked at again a few ms later, not at the next
        idle tick, and nothing here blocks the loop.
        """
        for job_id, proc in list(self._procs.items()):
            if proc.is_alive():
                if job_id in self._exited:
                    loop.call_later(REAP_RETRY_S, self._wake.set)
                continue
            self._exited.discard(job_id)
            proc.join()
            try:
                loop.remove_reader(proc.sentinel)
            except (OSError, ValueError):
                pass
            del self._procs[job_id]
            job = self.store.jobs.get(job_id)
            if job is None:  # pragma: no cover - defensive
                continue
            result = self._read_result(job_id)
            kill = self.supervisor.take_kill(job_id)
            if job_id in self._cancel_requested:
                self._cancel_requested.discard(job_id)
                self.store.mark_cancelled(job_id)
                _obs.counter("svc.cancelled").inc()
                logger.info("job %s cancelled mid-run", job_id)
            elif (proc.exitcode == 0
                    and result.get("status") == "done"):
                # a kill record can linger if the worker finished in the
                # same tick it was condemned; the result wins
                self.store.mark_done(job_id, result.get("totals", {}),
                                     result.get("artifacts", []))
                _obs.counter("svc.completed").inc()
                if job.started:
                    _obs.timer("svc.job_latency").observe(
                        time.time() - job.started)
            elif (kill is None and proc.exitcode == 1
                    and result.get("status") == "failed"):
                # the worker caught the exception itself and reported:
                # a deterministic job failure, not a worker death —
                # re-running would fail identically, so fail terminally
                self.store.mark_failed(job_id, result.get("error", ""))
                _obs.counter("svc.failed").inc()
            else:
                # supervised kill, or the worker died without writing a
                # result (signal, os._exit, OOM): requeue toward poison
                self._crashed(job_id, proc, kill)
            metrics = result.get("metrics")
            if metrics:
                _obs.registry().merge(metrics)

    def _crashed(self, job_id: str, proc, kill) -> None:
        """Route a worker death through the requeue/poison machinery."""
        from repro.tools.resilience import FailureKind, WorkerFailure
        job = self.store.jobs[job_id]
        failure = WorkerFailure.from_exit(
            proc.exitcode, kill.detail if kill is not None else "")
        retry = self.supervisor.retry
        if not retry.should_retry(FailureKind.POISON, job.crashes):
            self.store.mark_poisoned(
                job_id, f"{failure.summary}; quarantined after "
                        f"{job.crashes + 1} worker-killing crash(es)")
            _obs.counter("svc.poisoned").inc()
            _obs.counter("svc.failed").inc()
            logger.warning("job %s poisoned: %s", job_id, job.error)
        else:
            self.store.mark_requeued(job_id, failure.summary)
            job.not_before = time.time() + retry.backoff(job.crashes - 1)
            _obs.counter("svc.requeued").inc()
            logger.warning("job %s crashed (%s); requeued "
                           "(crash %d/%d, next attempt in %.1fs)",
                           job_id, failure.summary, job.crashes,
                           self.supervisor.policy.poison_threshold,
                           max(0.0, job.not_before - time.time()))

    def _read_result(self, job_id: str) -> Dict[str, Any]:
        try:
            with open(self.store.result_path(job_id),
                      encoding="utf-8") as f:
                return json.load(f)
        except (OSError, ValueError):
            return {}

    # -- HTTP plumbing --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection: possibly many requests (keep-alive).

        The loop ends when the client closes or asks to (``Connection:
        close``), when no request arrives within ``keepalive_idle_s``,
        or after ``keepalive_max_requests`` responses; the final
        response carries ``Connection: close`` so well-behaved clients
        reconnect instead of waiting on a dead socket.
        """
        served = 0
        close = False
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while not close and not self._stopping:
                try:
                    request = await asyncio.wait_for(
                        reader.readline(),
                        timeout=self.config.keepalive_idle_s)
                except asyncio.TimeoutError:
                    break
                if not request:  # client closed between requests
                    break
                _obs.counter("svc.requests").inc()
                served += 1
                try:
                    (status, payload, ctype, extra), close = \
                        await self._dispatch(request, reader)
                except Exception:  # pragma: no cover - last-resort guard
                    logger.exception("request handling failed")
                    status, payload, ctype, extra = 500, json.dumps(
                        {"error": "internal error"}).encode(), \
                        "application/json", {}
                    close = True
                if served >= self.config.keepalive_max_requests:
                    close = True
                token = "close" if close else "keep-alive"
                head = (f"HTTP/1.1 {status} "
                        f"{_REASONS.get(status, 'Unknown')}\r\n"
                        f"Content-Type: {ctype}\r\n"
                        f"Content-Length: {len(payload)}\r\n"
                        f"Connection: {token}\r\n")
                for name, value in extra.items():
                    head += f"{name}: {value}\r\n"
                writer.write(head.encode("latin-1") + b"\r\n" + payload)
                await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: bytes,
                        reader: asyncio.StreamReader,
                        ) -> Tuple[Tuple[int, bytes, str, Dict[str, str]],
                                   bool]:
        parts = request.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return self._json(400, {"error": "malformed request line"}), \
                True
        method, path = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        # HTTP/1.1 defaults to keep-alive; 1.0 must opt in
        conn_header = headers.get("connection", "").lower()
        close = (conn_header == "close"
                 or (version != "HTTP/1.1"
                     and conn_header != "keep-alive"))
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return self._json(400, {"error": "bad Content-Length"}), True
        if length > self.config.max_request_bytes:
            decision = self.admission.reject_oversize(
                headers.get("x-repro-tenant", "default"), length,
                self.config.max_request_bytes)
            # the oversized body was never read, so the connection
            # cannot be reused
            return self._json(
                429, {"error": decision.reason},
                {"Retry-After": f"{decision.retry_after:g}"}), True
        body = await reader.readexactly(length) if length else b""
        return self._route(method, path, headers, body), close

    @staticmethod
    def _json(status: int, obj: Any,
              extra: Optional[Dict[str, str]] = None,
              ) -> Tuple[int, bytes, str, Dict[str, str]]:
        return (status, (json.dumps(obj, sort_keys=True) + "\n").encode(),
                "application/json", extra or {})

    # -- routes ---------------------------------------------------------

    def _route(self, method: str, path: str, headers: Dict[str, str],
               body: bytes) -> Tuple[int, bytes, str, Dict[str, str]]:
        path, _, query = path.partition("?")
        segments = [s for s in path.split("/") if s]
        if segments[:1] != ["v1"]:
            return self._json(404, {"error": f"no such path {path!r}"})
        rest = segments[1:]
        if rest == ["healthz"] and method == "GET":
            draining = self._draining
            payload = {
                "ok": not draining,
                "draining": draining,
                "queued": sum(1 for j in self.store.jobs.values()
                              if j.state == "queued"),
                "running": len(self._procs),
                "inflight_rss_mb": round(
                    self.supervisor.inflight_rss_mb(self._procs), 1)}
            if draining:
                # load balancers read 503 as "stop routing here"
                return self._json(503, payload, {
                    "Retry-After":
                        f"{self.overload.retry_after_s:g}"})
            return self._json(200, payload)
        if rest == ["metrics"] and method == "GET":
            return self._json(200, _obs.snapshot())
        if rest == ["jobs"] and method == "POST":
            return self._submit(headers, body)
        if rest == ["jobs"] and method == "GET":
            tenant = None
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key == "tenant":
                    tenant = value
            jobs = [j.to_dict() for j in
                    sorted(self.store.jobs.values(),
                           key=lambda j: (j.created, j.id))
                    if tenant is None or j.tenant == tenant]
            return self._json(200, {"jobs": jobs})
        if len(rest) >= 2 and rest[0] == "jobs":
            job = self.store.jobs.get(rest[1])
            if job is None:
                return self._json(404, {"error": f"no job {rest[1]!r}"})
            if len(rest) == 2 and method == "GET":
                info = job.to_dict()
                info["progress"] = self.store.read_status(job.id)
                return self._json(200, info)
            if rest[2:] == ["cancel"] and method == "POST":
                return self._cancel(job.id)
            if rest[2:] == ["artifacts"] and method == "GET":
                return self._json(200, {"artifacts": job.artifacts})
            if (len(rest) == 4 and rest[2] == "artifacts"
                    and method == "GET"):
                return self._artifact(job, rest[3])
        return self._json(404, {"error": f"no route {method} {path!r}"})

    def _submit(self, headers: Dict[str, str], body: bytes,
                ) -> Tuple[int, bytes, str, Dict[str, str]]:
        try:
            data = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return self._json(400, {"error": "body is not valid JSON"})
        if not isinstance(data, dict):
            return self._json(400, {"error": "body must be an object"})
        tenant = (data.pop("tenant", None)
                  or headers.get("x-repro-tenant") or "default")
        if self._draining:
            return self._json(
                503, {"error": "service is draining; not accepting "
                               "new jobs"},
                {"Retry-After": f"{self.overload.retry_after_s:g}"})
        # server-wide overload first: a saturated server sheds (503)
        # before any per-tenant arithmetic (429) applies
        shed = self.overload.check(
            sum(1 for j in self.store.jobs.values()
                if j.state == "queued"),
            self.supervisor.inflight_rss_mb(self._procs))
        if not shed.admitted:
            return self._json(
                503, {"error": shed.reason},
                {"Retry-After": f"{shed.retry_after:g}"})
        decision = self.admission.admit(
            tenant, self.store.queued_count(tenant))
        if not decision.admitted:
            return self._json(
                429, {"error": decision.reason},
                {"Retry-After": f"{decision.retry_after:g}"})
        try:
            spec = JobSpec.from_dict(data)
        except SpecError as exc:
            return self._json(400, {"error": str(exc)})
        job = self.store.submit(tenant, spec)
        _obs.counter("svc.submitted").inc()
        self._wake.set()
        logger.info("job %s submitted (tenant %s, workload %s)",
                    job.id, tenant, spec.workload)
        return self._json(201, {"id": job.id, "state": job.state})

    def _cancel(self, job_id: str,
                ) -> Tuple[int, bytes, str, Dict[str, str]]:
        job = self.store.jobs[job_id]
        if job.terminal:
            return self._json(409, {"error": f"job {job_id} already "
                                             f"{job.state}"})
        if job.state == "queued":
            self.store.mark_cancelled(job_id)
            _obs.counter("svc.cancelled").inc()
            return self._json(200, {"id": job_id, "state": "cancelled"})
        # running: SIGTERM the child; the reaper records the outcome
        self._cancel_requested.add(job_id)
        proc = self._procs.get(job_id)
        if proc is not None and proc.is_alive():
            proc.terminate()
        self._wake.set()
        return self._json(202, {"id": job_id, "state": "cancelling"})

    def _artifact(self, job, name: str,
                  ) -> Tuple[int, bytes, str, Dict[str, str]]:
        from repro.tools.cache import AnalysisCache
        entry = next((a for a in job.artifacts
                      if a.get("name") == name
                      or a.get("file") == name), None)
        if entry is None:
            return self._json(404, {"error": f"job {job.id} has no "
                                             f"artifact {name!r}"})
        cache = AnalysisCache(self.config.cache_dir, shared=True)
        data = cache.get_blob(entry["digest"])
        if data is None:
            return self._json(404, {"error": f"artifact {name!r} blob "
                                             "missing or corrupt"})
        _obs.counter("svc.artifacts_served").inc()
        fname = entry.get("file", ARTIFACT_KINDS.get(name, name))
        return (200, data, "application/octet-stream",
                {"Content-Disposition": f'attachment; filename="{fname}"',
                 "X-Repro-Digest": entry["digest"]})


async def serve_forever(config: ServiceConfig,
                        shutdown: asyncio.Event) -> None:
    """Run a service until ``shutdown`` is set (used by ``repro serve``)."""
    service = AnalysisService(config)
    await service.start()
    try:
        await shutdown.wait()
    finally:
        await service.stop()


class ServiceThread:
    """Run an :class:`AnalysisService` in a background thread.

    Context manager used by the tests and embedders::

        with ServiceThread(ServiceConfig(state_dir=d)) as svc:
            client = ServiceClient("127.0.0.1", svc.port)
            ...

    The thread owns its own event loop; ``__exit__`` requests a
    graceful stop and joins.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: Optional[AnalysisService] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._shutdown: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-service", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._shutdown = asyncio.Event()

        async def _main() -> None:
            self.service = AnalysisService(self.config)
            try:
                await self.service.start()
                self.port = self.service.port
            finally:
                self._started.set()
            await self._shutdown.wait()
            await self.service.stop()

        try:
            loop.run_until_complete(_main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._started.set()
        finally:
            loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
