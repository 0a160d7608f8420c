"""Asyncio HTTP+JSON front end for the job scheduler (stdlib only).

Persistent HTTP/1.1 connections, JSON bodies, and a streamed
newline-delimited-JSON event feed — deliberately the plainest HTTP/1.1
subset that ``http.client`` on the other end understands, with no
framework dependency.

Connections
-----------
A connection carries requests one after another, each answered in
order.  The server closes it only at a request boundary:

* after answering a request that said ``Connection: close`` or was
  not HTTP/1.1;
* after an error answer (4xx/5xx);
* after an ``/events`` stream (which says ``Connection: close``) and
  after ``/shutdown``;
* quietly, with no answer, when no byte of a next request arrived
  within ``_READ_TIMEOUT_S`` or the client closed its end.

On shutdown the server closes every idle connection at once; a request
already arriving on a connection answers 503 and closes.  A body is
framed by ``Content-Length`` alone, so that body bytes can never be
read as the next request: ``Transfer-Encoding`` and two disagreeing
``Content-Length`` headers are 400.

Endpoints
---------
``GET  /healthz``                liveness probe
``GET  /stats``                  scheduler + cache counters, and the
                                 connections accepted and requests
                                 answered
``GET  /kinds``                  the runnable experiments
                                 (:func:`repro.experiment.names`)
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

Error statuses: 400 bad request/unknown kind (including a malformed
value such as a non-integer ``priority`` or ``from``, a malformed
request or header line, a bad Content-Length, a request cut short by
the client's end of stream, and a request or header line over the
stream's 64 KiB line limit), 404 unknown job or route, 408 request
started but not received whole within ``_READ_TIMEOUT_S``, 409 result
not ready, 413 body too large, 429 quota exceeded, 503 shutting down.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .. import experiment
from .scheduler import Scheduler, UnknownJobError
from .tenants import QuotaExceeded

__all__ = ["ServeServer"]

_MAX_BODY = 4 * 1024 * 1024
_MAX_HEADER_LINES = 100
#: a request (line, headers and body) must arrive within this many
#: seconds of the connection's previous answer (or of its opening), so
#: a stalled client cannot hold its connection forever: 408 if it had
#: started, a quiet close if not a byte of it had arrived
_READ_TIMEOUT_S = 30.0
#: an RFC 9110 header field name
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
#: a count on the wire (Content-Length, ``?from=``); 18 digits keep
#: ``int()`` clear of its digit limit
_COUNT = re.compile(r"[0-9]{1,18}")

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


def _count(text: str, what: str) -> int:
    """*text* as a non-negative decimal integer, else 400 naming *what*."""
    if not _COUNT.fullmatch(text):
        raise _HTTPError(400, f"bad {what} {text[:40]!r}")
    return int(text)


class _Connection:
    """One client connection; ``idle`` while it waits for the first
    byte of a next request, the one state in which it may be closed
    without an answer."""

    __slots__ = ("reader", "writer", "idle")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.idle = True


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
        self._open: set[_Connection] = set()
        #: connections accepted and requests answered, for ``/stats``
        self.connections = 0
        self.requests = 0

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
        self._shutdown.set()   # busy connections close after their answer
        if self._server is not None:
            self._server.close()
            # Server.wait_closed() waits for open connections (3.12+)
            for conn in self._open:
                if conn.idle:
                    conn.writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    # -- plumbing ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self.connections += 1
        self._open.add(conn)
        try:
            while not self._shutdown.is_set() and await self._serve_one(conn):
                pass
        except ConnectionError:
            pass   # the client went away
        finally:
            self._open.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, conn: _Connection) -> bool:
        """Read and answer one request; whether to keep the connection."""
        writer = conn.writer
        conn.idle = True
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(conn), _READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                if conn.idle:
                    return False   # no next request: close, no answer
                raise _HTTPError(408, f"request not received within "
                                      f"{_READ_TIMEOUT_S}s") from None
            if request is None:
                return False   # the client closed at a request boundary
            method, path, query, body, keep = request
            if self._shutdown.is_set():
                raise _HTTPError(503, "shutting down")
            doc = await self._route(writer, method, path, query, body)
        except _HTTPError as err:
            await self._respond(writer, err.status, {"error": str(err)})
            return False
        except ConnectionError:
            raise   # the client went away: nobody to answer
        except Exception as exc:  # noqa: BLE001 - keep the server up
            await self._respond(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"},
            )
            return False
        if doc is None:
            return False   # an event stream, which ends with the connection
        keep = keep and not self._shutdown.is_set()
        await self._respond(writer, 200, doc, keep)
        return keep

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> str:
        try:
            line = await reader.readline()
        except ValueError:   # the line outran the stream's limit
            raise _HTTPError(400, "request or header line too long") from None
        if not line.endswith(b"\n"):
            raise _HTTPError(400, "incomplete request")
        return line.decode("latin-1")

    async def _read_request(self, conn: _Connection):
        """``(method, path, query, body, keep_alive)`` of the next
        request on *conn*, or None if its stream ends first."""
        reader = conn.reader
        first = await reader.read(1)
        if not first:
            return None
        conn.idle = False
        line = first.decode("latin-1")
        if first != b"\n":
            line += await self._read_line(reader)
        request_line = line.strip()
        if not request_line:
            raise _HTTPError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HTTPError(400, f"malformed request line {request_line!r}")
        method, target, version = parts
        try:
            split = urlsplit(target)
        except ValueError as err:
            raise _HTTPError(400, f"bad request target: {err}") from None
        headers: dict[str, str] = {}
        lengths: set[str] = set()
        for _ in range(_MAX_HEADER_LINES):
            line = await self._read_line(reader)
            if line in ("\r\n", "\n"):
                break
            name, colon, value = line.partition(":")
            if not colon or not _TOKEN.fullmatch(name):
                raise _HTTPError(400, f"malformed header line {line[:40]!r}")
            name = name.lower()
            value = value.strip()
            if name == "content-length":
                lengths.add(value)
            headers[name] = value
        else:
            raise _HTTPError(400, "too many header lines")
        if "transfer-encoding" in headers:
            raise _HTTPError(400, "Transfer-Encoding is not supported")
        if len(lengths) > 1:
            raise _HTTPError(400, "conflicting Content-Length headers")
        body = b""
        if lengths:
            n = _count(lengths.pop(), "Content-Length")
            if n > _MAX_BODY:
                raise _HTTPError(413, "request body too large")
            try:
                body = await reader.readexactly(n)
            except asyncio.IncompleteReadError:
                raise _HTTPError(400, "incomplete request") from None
        options = {t.strip().lower()
                   for t in headers.get("connection", "").split(",")}
        keep = version == "HTTP/1.1" and "close" not in options
        return method.upper(), split.path, parse_qs(split.query), body, keep

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       doc, keep: bool = False) -> None:
        payload = json.dumps(doc, sort_keys=True).encode() + b"\n"
        text = _STATUS_TEXT.get(status, "OK")
        close = "" if keep else "Connection: close\r\n"
        head = (
            f"HTTP/1.1 {status} {text}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n{close}\r\n"
        ).encode("latin-1")
        self.requests += 1
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
                     body: bytes) -> Optional[dict]:
        """The 200 answer's document, or None once an event stream has
        been served on *writer*; errors raise :class:`_HTTPError`."""
        sched = self.scheduler
        if path == "/healthz" and method == "GET":
            return {"ok": True}
        if path == "/stats" and method == "GET":
            return {**sched.stats(), "connections": self.connections,
                    "requests": self.requests}
        if path == "/kinds" and method == "GET":
            return {"kinds": experiment.names()}
        if path == "/shutdown" and method == "POST":
            self.request_shutdown()
            return {"shutting_down": True}
        if path == "/jobs" and method == "POST":
            doc = self._json_body(body)
            tenant = doc.get("tenant", "")
            kind = doc.get("kind", "")
            params = doc.get("params") or {}
            if not isinstance(tenant, str) or not isinstance(kind, str):
                raise _HTTPError(400, "tenant and kind must be strings")
            if not isinstance(params, dict):
                raise _HTTPError(400, "params must be an object")
            try:
                priority = int(doc.get("priority", 0))
            except (TypeError, ValueError):
                raise _HTTPError(400, "priority must be an integer") from None
            try:
                job = sched.submit(tenant, kind, params, priority)
            except QuotaExceeded as err:
                raise _HTTPError(429, str(err)) from None
            except (ValueError, RuntimeError) as err:
                status = 503 if sched._closing else 400
                raise _HTTPError(status, str(err)) from None
            return job.describe()
        if path == "/jobs" and method == "GET":
            tenant = (query.get("tenant") or [None])[0]
            return {"jobs": [j.describe() for j in sched.list_jobs(tenant)]}
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):].rstrip("/")
            job_id, _, action = rest.partition("/")
            if not job_id:
                raise _HTTPError(404, "missing job id")
            job = self._job(job_id)
            if not action and method == "GET":
                return job.describe()
            if action == "result" and method == "GET":
                if job.state != "done":
                    raise _HTTPError(
                        409, f"job {job.id} is {job.state}, not done"
                    )
                return {
                    "id": job.id,
                    "dedup_of": job.dedup_of,
                    "cache_hits": job.cache_hits,
                    "executed_points": job.executed_points,
                    "payload": job.payload,
                }
            if action == "events" and method == "GET":
                after = _count((query.get("from") or ["0"])[0], "from")
                await self._stream_events(writer, job, after)
                return None
            if action == "cancel" and method == "POST":
                sched.cancel(job.id)
                return job.describe()
            if action == "preempt" and method == "POST":
                sched.preempt(job.id)
                return job.describe()
        raise _HTTPError(404, f"no route for {method} {path}")

    async def _stream_events(self, writer: asyncio.StreamWriter, job,
                             after: int) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n"
            "Cache-Control: no-store\r\n\r\n"
        ).encode("latin-1")
        self.requests += 1
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
