"""ServiceClient connection-failure semantics against a scripted server.

The client's contract (see its docstring): a GET that dies on a broken
socket is reconnected and retried exactly once — GETs are reads and
safe to repeat; a POST is **never** retried, because a submit whose
response was lost may already be recorded server-side and a blind
resubmit would enqueue the job twice.  A real ``AnalysisService`` can't
exercise this deterministically, so these tests run the client against
a raw-socket server scripted to serve, truncate, or reset on cue —
and, crucially, to *count* what actually arrived.
"""

import http.client
import socket
import struct
import threading

import pytest

from repro.service.client import ServiceClient


class ScriptedServer:
    """One scripted behavior per accepted connection, in order.

    ``"ok"``        full 200 JSON response, then close.
    ``"partial"``   headers claiming 100 body bytes, 2 sent, then close
                    (the client's ``read()`` dies mid-response).
    ``"reset"``     read the request, then RST the socket (SO_LINGER 0).

    Behaviors past the end of the script serve ``"ok"``.  Every request
    that *reaches* the server is recorded in ``requests`` — the
    never-retry-POST assertion is about this list, not about what the
    client observed.
    """

    def __init__(self, behaviors):
        self.behaviors = list(behaviors)
        self.requests = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.2)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()

    def _run(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                with conn:
                    self._handle(conn)
            except OSError:
                pass

    def _handle(self, conn):
        conn.settimeout(5.0)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        method, path, _ = lines[0].split(" ", 2)
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        while len(body) < length:
            chunk = conn.recv(65536)
            if not chunk:
                break
            body += chunk
        behavior = self.behaviors.pop(0) if self.behaviors else "ok"
        self.requests.append((method, path))
        if behavior == "ok":
            payload = b'{"ok": true}'
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %d\r\n"
                         b"Connection: close\r\n\r\n%s"
                         % (len(payload), payload))
        elif behavior == "partial":
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Length: 100\r\n\r\n{}")
        elif behavior == "reset":
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        else:  # pragma: no cover - script typo
            raise AssertionError(f"unknown behavior {behavior!r}")


def _client(server):
    return ServiceClient("127.0.0.1", server.port, timeout=5.0)


class TestGetRetry:
    def test_get_retries_once_after_truncated_response(self):
        with ScriptedServer(["partial", "ok"]) as server:
            with _client(server) as client:
                assert client._request("GET", "/v1/metrics") == \
                    {"ok": True}
            assert server.requests == [("GET", "/v1/metrics")] * 2

    def test_get_retries_once_after_connection_reset(self):
        with ScriptedServer(["reset", "ok"]) as server:
            with _client(server) as client:
                assert client._request("GET", "/v1/metrics") == \
                    {"ok": True}
            assert server.requests == [("GET", "/v1/metrics")] * 2

    def test_get_fails_after_second_broken_response(self):
        """Exactly one retry: two broken sockets in a row surface the
        error instead of looping."""
        with ScriptedServer(["partial", "partial", "ok"]) as server:
            with _client(server) as client:
                with pytest.raises((http.client.HTTPException, OSError)):
                    client._request("GET", "/v1/metrics")
            assert server.requests == [("GET", "/v1/metrics")] * 2


class TestPostNeverRetries:
    def test_submit_not_resent_after_truncated_response(self):
        """The lost-response submit: the server got (and may have
        recorded) the job, so the client must surface the error after
        ONE delivery, never silently double-submit."""
        with ScriptedServer(["partial", "ok"]) as server:
            with _client(server) as client:
                with pytest.raises((http.client.HTTPException, OSError)):
                    client.submit({"workload": "fig1"})
            posts = [r for r in server.requests if r[0] == "POST"]
            assert posts == [("POST", "/v1/jobs")]

    def test_post_not_resent_after_reset(self):
        with ScriptedServer(["reset"]) as server:
            with _client(server) as client:
                with pytest.raises((http.client.HTTPException, OSError)):
                    client.cancel("deadbeef")
            assert len(server.requests) == 1

    def test_post_still_works_on_healthy_socket(self):
        with ScriptedServer(["ok"]) as server:
            with _client(server) as client:
                assert client._request("POST", "/v1/jobs",
                                       body={"workload": "fig1"}) == \
                    {"ok": True}
            assert server.requests == [("POST", "/v1/jobs")]
