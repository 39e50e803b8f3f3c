"""Blocking HTTP client for the analysis service (stdlib ``http.client``).

Thin by design — every method maps 1:1 onto a server route, raises
:class:`QuotaExceeded` on 429, :class:`ServiceUnavailable` on 503
(both with the server's ``Retry-After`` hint) and
:class:`ServiceError` on any other non-2xx.  Used by the test suite
and the CI smoke job; scripts can use it too::

    client = ServiceClient.from_state_dir("/var/lib/repro-svc")
    job = client.submit({"workload": "sweep3d", "params": {"mesh": 6}})
    client.wait(job["id"])
    data = client.fetch_artifact(job["id"], "patterns")
"""

from __future__ import annotations

import http.client
import json
import os
import time
from typing import Any, Dict, Optional, Tuple


class ServiceError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class QuotaExceeded(ServiceError):
    """429: admission control rejected the request."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """503: the server is shedding load or draining for shutdown."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(503, message)
        self.retry_after = retry_after


class JobFailed(ServiceError):
    """A waited-on job reached a terminal state other than done."""

    def __init__(self, job: Dict[str, Any]) -> None:
        super().__init__(500, f"job {job.get('id')} ended "
                              f"{job.get('state')}: {job.get('error')}")
        self.job = job


class ServiceClient:
    """One client per server address, holding one persistent connection.

    The server keeps connections alive, so submit→poll loops reuse a
    single socket.  When a **GET** dies on a stale or dropped socket
    (the server's idle timeout, its per-connection request cap, a
    restart, ECONNRESET mid-response) the client reconnects and retries
    exactly once — GETs here are reads (status/list/artifacts/health)
    and safe to repeat.  **POSTs are never retried**: a submit whose
    response was lost may already be recorded server-side, and
    retrying would enqueue the job twice; callers that see a
    connection error on :meth:`submit` should list jobs to find out
    what happened rather than resubmit blindly.  Call :meth:`close`
    (or use the client as a context manager) to drop the socket early;
    constructing per-call still works.
    """

    def __init__(self, host: str, port: int, tenant: str = "default",
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Drop the persistent connection (reopened on next request)."""
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def from_state_dir(cls, state_dir: str, tenant: str = "default",
                       timeout: float = 60.0) -> "ServiceClient":
        """Connect via the ``service.json`` the server wrote on startup."""
        from repro.service.server import SERVICE_FILE
        with open(os.path.join(state_dir, SERVICE_FILE),
                  encoding="utf-8") as handle:
            info = json.load(handle)
        return cls(info["host"], info["port"], tenant=tenant,
                   timeout=timeout)

    # -- plumbing -------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 raw: bool = False,
                 tolerate: Tuple[int, ...] = ()) -> Any:
        """One request, reconnect-and-retry-once for idempotent GETs.

        POST is never retried (see the class docstring: a lost submit
        response does not mean a lost submit).  ``tolerate`` lists
        non-2xx statuses to return as parsed bodies instead of raising
        — ``health()`` uses it so a draining server's 503 still yields
        the degraded payload.
        """
        payload = (json.dumps(body).encode()
                   if body is not None else None)
        headers = {"X-Repro-Tenant": self.tenant}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        retryable = method == "GET"
        response = data = None
        for attempt in (1, 2):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
            try:
                self._conn.request(method, path, body=payload,
                                   headers=headers)
                response = self._conn.getresponse()
                data = response.read()
            except (ConnectionError, OSError,
                    http.client.HTTPException):
                # a kept-alive socket the server has since dropped
                # (idle timeout, request cap, restart) or a connection
                # reset mid-response
                self.close()
                if not retryable or attempt == 2:
                    raise
                continue
            break
        if response.will_close:
            self.close()
        if response.status in tolerate:
            return data if raw else json.loads(data.decode())
        if response.status in (429, 503):
            try:
                retry_after = float(
                    response.getheader("Retry-After", "1"))
            except ValueError:
                retry_after = 1.0
            exc = (QuotaExceeded if response.status == 429
                   else ServiceUnavailable)
            raise exc(self._error_text(data), retry_after)
        if response.status >= 300:
            raise ServiceError(response.status,
                               self._error_text(data))
        if raw:
            return data
        return json.loads(data.decode())

    @staticmethod
    def _error_text(data: bytes) -> str:
        try:
            return json.loads(data.decode()).get("error", data.decode())
        except (ValueError, UnicodeDecodeError):
            return data.decode("latin-1", "replace")

    # -- API ------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness + queue gauges; a draining server answers 503 but
        still returns its (degraded, ``ok: false``) payload."""
        return self._request("GET", "/v1/healthz", tolerate=(503,))

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def submit(self, spec: Dict[str, Any],
               tenant: Optional[str] = None) -> Dict[str, Any]:
        """POST a job; returns ``{"id", "state"}``.  429 raises
        :class:`QuotaExceeded` with the server's retry hint."""
        body = dict(spec)
        body["tenant"] = tenant or self.tenant
        return self._request("POST", "/v1/jobs", body=body)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, tenant: Optional[str] = None) -> Any:
        path = "/v1/jobs"
        if tenant:
            path += f"?tenant={tenant}"
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def artifacts(self, job_id: str) -> Any:
        return self._request("GET",
                             f"/v1/jobs/{job_id}/artifacts")["artifacts"]

    def fetch_artifact(self, job_id: str, name: str) -> bytes:
        return self._request(
            "GET", f"/v1/jobs/{job_id}/artifacts/{name}", raw=True)

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_s: float = 0.1) -> Dict[str, Any]:
        """Poll until the job is terminal; raise :class:`JobFailed`
        unless it ended ``done``."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed", "cancelled",
                                "failed_poison"):
                if job["state"] != "done":
                    raise JobFailed(job)
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after "
                    f"{timeout:g}s")
            time.sleep(poll_s)
