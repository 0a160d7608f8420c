"""Blocking stdlib client for the serve API (``http.client`` only).

Used by ``repro submit``, the CI smoke leg, and the tests; runs in a
different process (or host) from the server, so it is also the living
documentation of the wire protocol.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Iterator, Optional
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """Non-2xx response; carries the HTTP status and server message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """One server endpoint.

    Each thread keeps one persistent HTTP/1.1 connection and sends its
    calls over it; :meth:`events` streams on a connection of its own.
    The server closes a connection only at a request boundary (idle
    timeout, shutdown, an error answer), so a call on a kept connection
    that fails before any response byte arrives was never read: it is
    retried once on a fresh connection.  :meth:`close` closes the
    calling thread's connection.
    """

    def __init__(self, url: str = "http://127.0.0.1:8321",
                 timeout: float = 300.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 8321
        self.timeout = timeout
        self._local = threading.local()

    # -- transport ---------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> Any:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
            except ConnectionError:   # RemoteDisconnected among them
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
            doc = json.loads(resp.read().decode("utf-8"))
        except BaseException:
            conn.close()   # a half-used connection carries no next call
            raise
        if resp.status >= 400:
            raise ServeError(resp.status, doc.get("error", "unknown"))
        return doc

    def close(self) -> None:
        """Close the calling thread's kept connection, if any."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    # -- API ---------------------------------------------------------------

    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (OSError, ValueError):
            return False

    def wait_healthy(self, timeout: float = 10.0,
                     poll: float = 0.1) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthy():
                return
            time.sleep(poll)
        raise TimeoutError(
            f"server at {self.host}:{self.port} not healthy "
            f"after {timeout}s"
        )

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def kinds(self) -> list[str]:
        return self._request("GET", "/kinds")["kinds"]

    def submit(self, tenant: str, kind: str,
               params: Optional[dict] = None, priority: int = 0) -> dict:
        return self._request("POST", "/jobs", {
            "tenant": tenant, "kind": kind,
            "params": params or {}, "priority": priority,
        })

    def jobs(self, tenant: Optional[str] = None) -> list[dict]:
        path = "/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._request("GET", path)["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def preempt(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/preempt")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    # -- event streaming ---------------------------------------------------

    def events(self, job_id: str, after: int = 0) -> Iterator[dict]:
        """Yield the job's events as they arrive; the stream ends when
        the job reaches a terminal state."""
        conn = self._connect()
        try:
            conn.request("GET", f"/jobs/{job_id}/events?from={after}")
            resp = conn.getresponse()
            if resp.status >= 400:
                doc = json.loads(resp.read().decode("utf-8"))
                raise ServeError(resp.status, doc.get("error", "unknown"))
            while True:
                line = resp.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Follow the event stream until the job is terminal; return
        the final status document (result payload NOT included — call
        :meth:`result`)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        cursor = 0
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {status['state']}")
            for event in self.events(job_id, after=cursor):
                cursor = event["seq"] + 1
                if event.get("type") == "state" and \
                        event.get("state") in ("done", "failed", "cancelled"):
                    return self.status(job_id)
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"job {job_id} still running at timeout"
                    )
