"""Analysis-as-a-service: an async job server over the toolkit.

The :mod:`repro.service` package turns the one-shot ``repro analyze``
pipeline into a long-lived server (``repro serve``) that accepts
kernel-analysis jobs over HTTP/JSON, runs them on a bounded worker pool
of OS processes, and stores their artifacts content-addressed in the
analysis cache's blob store.  Everything is stdlib: ``asyncio`` for the
listener, ``multiprocessing`` for job isolation, ``http.client`` for
the bundled blocking client.

Layers
------

``jobs``
    Durable job records: :class:`~repro.service.jobs.JobSpec` (what to
    run), :class:`~repro.service.jobs.Job` (lifecycle state), and
    :class:`~repro.service.jobs.JobStore` — one directory per job
    holding its spec and its lifecycle record, scanned on startup so a
    killed server resumes its queue.
``quota``
    Multi-tenant admission control: per-tenant concurrent/queued caps
    and request-size limits; violations surface as HTTP 429 with a
    ``Retry-After`` header.  Server-wide overload watermarks
    (:class:`~repro.service.quota.OverloadPolicy`) shed with 503
    instead — the server's problem, not the tenant's.
``supervise``
    Scheduler-side supervision of running workers: heartbeat liveness,
    walltime/RSS ceilings with SIGTERM→SIGKILL escalation, orphan
    reaping after a server crash, and the requeue/poison-quarantine
    bookkeeping for worker-killing specs.
``worker``
    The child-process entry point: builds the workload from
    :mod:`repro.apps.registry`, runs an
    :class:`~repro.tools.session.AnalysisSession`, and publishes
    artifacts (pattern DB, manifest, HTML report, XML) into the blob
    store by sha256 digest.
``server``
    The asyncio HTTP front end and scheduler
    (:class:`~repro.service.server.AnalysisService`).
``client``
    :class:`~repro.service.client.ServiceClient`, a small blocking
    client used by the tests and the CI smoke job.

Metrics live under the ``svc.*`` namespace (see
:mod:`repro.obs.metrics`).
"""

from repro.service.jobs import Job, JobSpec, JobStore
from repro.service.quota import (
    AdmissionController, OverloadPolicy, QuotaDecision, TenantQuota,
)
from repro.service.server import AnalysisService, ServiceConfig, ServiceThread
from repro.service.supervise import SupervisionPolicy, Supervisor
from repro.service.client import (
    JobFailed, QuotaExceeded, ServiceClient, ServiceError,
    ServiceUnavailable,
)

__all__ = [
    "AdmissionController",
    "JobFailed",
    "AnalysisService",
    "Job",
    "JobSpec",
    "JobStore",
    "OverloadPolicy",
    "QuotaDecision",
    "QuotaExceeded",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "ServiceUnavailable",
    "SupervisionPolicy",
    "Supervisor",
    "TenantQuota",
]
