"""Asyncio HTTP+JSON front end for the job scheduler (stdlib only).

One request per connection (``Connection: close``), JSON bodies, and a
streamed newline-delimited-JSON event feed — deliberately the plainest
HTTP/1.1 subset that ``http.client`` on the other end understands,
with no framework dependency.

Endpoints
---------
``GET  /healthz``                liveness probe
``GET  /stats``                  scheduler + cache counters
``GET  /kinds``                  registered job kinds
``POST /jobs``                   submit ``{tenant, kind, params, priority}``
``GET  /jobs[?tenant=T]``        list jobs
``GET  /jobs/<id>``              job status document
``GET  /jobs/<id>/result``       payload (409 until the job is done)
``GET  /jobs/<id>/events[?from=N]``  NDJSON stream; closes after the
                                 job reaches a terminal state
``POST /jobs/<id>/cancel``       cancel (queued: immediate; running:
                                 at the next shard boundary)
``POST /jobs/<id>/preempt``      yield at the next shard boundary and
                                 requeue (operator-driven migration)
``POST /shutdown``               clean shutdown (drains running shards)

Error statuses: 400 bad request/unknown kind (including a negative
Content-Length and a request or header line over the stream's 64 KiB
line limit), 404 unknown job or route, 408 request not received within
``_READ_TIMEOUT_S``, 409 result not ready, 429 quota exceeded, 503
shutting down.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .kinds import kind_names
from .scheduler import Scheduler, UnknownJobError
from .tenants import QuotaExceeded

__all__ = ["ServeServer"]

_MAX_BODY = 4 * 1024 * 1024
_MAX_HEADER_LINES = 100
#: a request (line, headers and body) must arrive within this many
#: seconds, so a stalled client cannot hold its connection forever
_READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not "
    "Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeServer:
    """Binds the scheduler to a TCP port; ``await start()`` then
    ``await wait_closed()`` (or drive requests and ``await stop()``)."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 8321) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]   # resolve port=0 for tests
        self.scheduler.start()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def wait_closed(self) -> None:
        """Run until a shutdown is requested, then drain and stop."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    # -- plumbing ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await asyncio.wait_for(
                    self._read_request(reader), _READ_TIMEOUT_S)
            except _HTTPError as err:
                await self._respond(writer, err.status,
                                    {"error": str(err)})
                return
            except asyncio.TimeoutError:
                await self._respond(writer, 408, {
                    "error": f"request not received within "
                             f"{_READ_TIMEOUT_S}s",
                })
                return
            try:
                await self._route(writer, method, path, query, body)
            except _HTTPError as err:
                await self._respond(writer, err.status, {"error": str(err)})
            except Exception as exc:  # noqa: BLE001 - keep the server up
                await self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass   # client went away mid-request/response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> str:
        try:
            return (await reader.readline()).decode("latin-1")
        except ValueError:   # the line outran the stream's limit
            raise _HTTPError(400, "request or header line too long") from None

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await self._read_line(reader)).strip()
        if not request_line:
            raise _HTTPError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        split = urlsplit(target)
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await self._read_line(reader)
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HTTPError(400, "too many header lines")
        body = b""
        length = headers.get("content-length")
        if length:
            try:
                n = int(length)
            except ValueError:
                n = -1
            if n < 0:
                raise _HTTPError(400, "bad Content-Length")
            if n > _MAX_BODY:
                raise _HTTPError(413, "request body too large")
            body = await reader.readexactly(n)
        return method.upper(), split.path, parse_qs(split.query), body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       doc) -> None:
        payload = json.dumps(doc, sort_keys=True).encode() + b"\n"
        text = _STATUS_TEXT.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {text}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise _HTTPError(400, f"bad JSON body: {err}") from None
        if not isinstance(doc, dict):
            raise _HTTPError(400, "JSON body must be an object")
        return doc

    def _job(self, job_id: str):
        try:
            return self.scheduler.get(job_id)
        except UnknownJobError:
            raise _HTTPError(404, f"unknown job {job_id!r}") from None

    async def _route(self, writer, method: str, path: str, query: dict,
                     body: bytes) -> None:
        sched = self.scheduler
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
            return
        if path == "/stats" and method == "GET":
            await self._respond(writer, 200, sched.stats())
            return
        if path == "/kinds" and method == "GET":
            await self._respond(writer, 200, {"kinds": kind_names()})
            return
        if path == "/shutdown" and method == "POST":
            await self._respond(writer, 200, {"shutting_down": True})
            self.request_shutdown()
            return
        if path == "/jobs" and method == "POST":
            doc = self._json_body(body)
            tenant = doc.get("tenant", "")
            kind = doc.get("kind", "")
            params = doc.get("params") or {}
            priority = int(doc.get("priority", 0))
            if not isinstance(params, dict):
                raise _HTTPError(400, "params must be an object")
            try:
                job = sched.submit(tenant, kind, params, priority)
            except QuotaExceeded as err:
                raise _HTTPError(429, str(err)) from None
            except (ValueError, RuntimeError) as err:
                status = 503 if sched._closing else 400
                raise _HTTPError(status, str(err)) from None
            await self._respond(writer, 200, job.describe())
            return
        if path == "/jobs" and method == "GET":
            tenant = (query.get("tenant") or [None])[0]
            await self._respond(writer, 200, {
                "jobs": [j.describe() for j in sched.list_jobs(tenant)],
            })
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):].rstrip("/")
            job_id, _, action = rest.partition("/")
            if not job_id:
                raise _HTTPError(404, "missing job id")
            job = self._job(job_id)
            if not action and method == "GET":
                await self._respond(writer, 200, job.describe())
                return
            if action == "result" and method == "GET":
                if job.state != "done":
                    raise _HTTPError(
                        409, f"job {job.id} is {job.state}, not done"
                    )
                await self._respond(writer, 200, {
                    "id": job.id,
                    "dedup_of": job.dedup_of,
                    "cache_hits": job.cache_hits,
                    "executed_points": job.executed_points,
                    "payload": job.payload,
                })
                return
            if action == "events" and method == "GET":
                after = int((query.get("from") or ["0"])[0])
                await self._stream_events(writer, job, after)
                return
            if action == "cancel" and method == "POST":
                sched.cancel(job.id)
                await self._respond(writer, 200, job.describe())
                return
            if action == "preempt" and method == "POST":
                sched.preempt(job.id)
                await self._respond(writer, 200, job.describe())
                return
        raise _HTTPError(404, f"no route for {method} {path}")

    async def _stream_events(self, writer: asyncio.StreamWriter, job,
                             after: int) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n"
            "Cache-Control: no-store\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        cursor = after
        while True:
            events = await job.next_events(cursor)
            for event in events:
                writer.write(
                    json.dumps(event.as_dict(), sort_keys=True).encode()
                    + b"\n"
                )
                cursor = event.seq + 1
            await writer.drain()
            if job.terminal and cursor >= len(job.events):
                return
