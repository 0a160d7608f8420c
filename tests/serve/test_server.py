"""HTTP end-to-end tests for the serve layer.

The server runs in a background thread on its own event loop (port 0,
address handed back through an Event), and the tests drive it with the
blocking :class:`ServeClient` — the same split a real deployment has.
A final test exercises the installed CLI (``repro serve`` /
``repro submit``) as subprocesses over the real ``pmu_fig5`` kind.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.parallel import ResultCache
from repro.serve import (
    Scheduler,
    ServeClient,
    ServeError,
    ServeServer,
    TenantQuota,
    TenantRegistry,
)

from tests.serve import kindutil

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture
def serve(tmp_path):
    """Factory: start a server thread with custom scheduler kwargs,
    yield connected clients, always shut down cleanly."""
    started: list[tuple[ServeClient, threading.Thread]] = []

    def boot(**kwargs) -> ServeClient:
        kwargs.setdefault("worker_jobs", 2)
        if "cache" not in kwargs:
            kwargs["cache"] = ResultCache(root=tmp_path / "cache")
        kwargs.setdefault("maintenance_interval", 3600.0)
        info: dict = {}
        ready = threading.Event()

        def run() -> None:
            async def main() -> None:
                server = ServeServer(Scheduler(**kwargs), port=0)
                await server.start()
                info["url"] = server.address
                ready.set()
                await server.wait_closed()

            try:
                asyncio.run(main())
            except BaseException as exc:  # surfaced via ready timeout
                info["error"] = exc
                ready.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(15), "server thread never came up"
        if "error" in info:
            raise AssertionError(f"server failed to start: {info['error']}")
        client = ServeClient(info["url"], timeout=60.0)
        client.wait_healthy(timeout=15.0)
        started.append((client, thread))
        return client

    yield boot
    for client, thread in started:
        try:
            client.shutdown()
        except (ServeError, OSError):
            pass
        thread.join(timeout=30)
        assert not thread.is_alive(), "server thread failed to shut down"


@pytest.fixture
def kind_name(request, tmp_path):
    name = f"t_{request.node.name[:40]}"
    kindutil.register_test_kind(name, tmp_path)
    yield name
    kindutil.unregister(name)


class TestProtocol:
    def test_health_kinds_stats(self, serve, kind_name):
        client = serve()
        assert client.healthy()
        kinds = client.kinds()
        assert "pmu_fig5" in kinds and kind_name in kinds
        stats = client.stats()
        assert stats["running"] == 0
        assert stats["dedup_hits"] == 0
        assert "cache" in stats

    def test_error_statuses(self, serve, tmp_path, request):
        slow = f"s_{request.node.name[:36]}"
        kindutil.register_test_kind(slow, tmp_path, delay=0.3)
        try:
            client = serve()
            with pytest.raises(ServeError) as err:
                client.submit("alice", "definitely_not_a_kind", {})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.status("j999999")
            assert err.value.status == 404
            job = client.submit("alice", slow, {"values": [1, 2, 3, 4]})
            with pytest.raises(ServeError) as err:
                client.result(job["id"])   # still running
            assert err.value.status == 409
            client.cancel(job["id"])
            client.wait(job["id"], timeout=30)
        finally:
            kindutil.unregister(slow)

    def test_quota_maps_to_429(self, serve, kind_name):
        client = serve(
            tenants=TenantRegistry(TenantQuota(max_points_per_job=2)),
        )
        with pytest.raises(ServeError) as err:
            client.submit("alice", kind_name, {"values": [1, 2, 3]})
        assert err.value.status == 429
        assert "max_points_per_job" in str(err.value)

    def test_clean_shutdown(self, serve, kind_name):
        client = serve()
        job = client.submit("alice", kind_name, {"values": [1]})
        client.wait(job["id"], timeout=30)
        doc = client.shutdown()
        assert doc == {"shutting_down": True}
        deadline = time.monotonic() + 15
        while client.healthy():
            assert time.monotonic() < deadline, "server ignored shutdown"
            time.sleep(0.1)


def _read_all(sock: socket.socket) -> bytes:
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
    return reply


def _raw_exchange(client: ServeClient, request: bytes,
                  timeout: float = 10.0, half_close: bool = False) -> bytes:
    """Send *request* bytes on a fresh socket to *client*'s server and
    read the whole reply.  With *half_close* the sending side ends after
    the request, so a connection the server would keep alive closes as
    soon as every request in it is answered."""
    address = (client.host, client.port)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return _read_all(sock)


def _status(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


class TestHostileInput:
    """Malformed or stalled requests get an HTTP answer, and the server
    keeps serving afterwards."""

    def test_negative_content_length_is_400(self, serve):
        client = serve()
        reply = _raw_exchange(
            client,
            b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        assert _status(reply) == 400
        assert b"Content-Length" in reply
        assert client.healthy()

    def test_overlong_request_line_is_400(self, serve):
        client = serve()
        path = b"/" + b"a" * (70 * 1024)
        reply = _raw_exchange(client,
                              b"GET " + path + b" HTTP/1.1\r\n\r\n")
        assert _status(reply) == 400
        assert client.healthy()

    def test_overlong_header_line_is_400(self, serve):
        client = serve()
        reply = _raw_exchange(
            client,
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * (70 * 1024)
            + b"\r\n\r\n",
        )
        assert _status(reply) == 400
        assert client.healthy()

    def test_stalled_request_times_out_with_408(self, serve, monkeypatch):
        from repro.serve import server as server_mod

        monkeypatch.setattr(server_mod, "_READ_TIMEOUT_S", 0.2)
        client = serve()
        t0 = time.monotonic()
        reply = _raw_exchange(client, b"GET /healthz HT")
        assert _status(reply) == 408
        assert time.monotonic() - t0 < 5.0
        assert client.healthy()


def _responses(data: bytes) -> list[tuple[int, dict, dict]]:
    """Split a byte stream into ``(status, headers, document)`` answers;
    fails unless every byte belongs to one well-formed JSON answer."""
    out = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head {data[:80]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _text = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        out.append((int(status), headers, json.loads(rest[:length])))
        data = rest[length:]
    return out


_HEALTHZ = b"GET /healthz HTTP/1.1\r\n\r\n"


class TestKeepAlive:
    """One connection carries many requests; the server closes it only
    at a request boundary."""

    def test_pipelined_requests_answer_in_order(self, serve):
        client = serve()
        replies = _responses(_raw_exchange(
            client, _HEALTHZ + b"GET /kinds HTTP/1.1\r\n\r\n" + _HEALTHZ,
            half_close=True))
        assert [status for status, _, _ in replies] == [200, 200, 200]
        assert replies[0][2] == replies[2][2] == {"ok": True}
        assert "pmu_fig5" in replies[1][2]["kinds"]
        assert all("connection" not in headers for _, headers, _ in replies)

    @pytest.mark.parametrize("first", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: Keep-Alive, close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["close", "close-token", "http10"])
    def test_close_and_http10_are_honoured(self, serve, first):
        client = serve()
        # the connection stays open for a second request only if the
        # server ignores the first one's close: then _raw_exchange
        # would see two answers
        replies = _responses(_raw_exchange(client, first + _HEALTHZ))
        assert len(replies) == 1
        status, headers, doc = replies[0]
        assert (status, doc) == (200, {"ok": True})
        assert headers["connection"] == "close"

    def test_error_answer_closes(self, serve):
        client = serve()
        replies = _responses(_raw_exchange(
            client, b"GET /nowhere HTTP/1.1\r\n\r\n" + _HEALTHZ))
        assert [(s, h["connection"]) for s, h, _ in replies] == \
            [(404, "close")]

    def test_idle_connection_closes_quietly(self, serve, monkeypatch):
        from repro.serve import server as server_mod

        monkeypatch.setattr(server_mod, "_READ_TIMEOUT_S", 0.2)
        client = serve()
        t0 = time.monotonic()
        # nothing sent at all, then one answered request: both idle
        # connections end in a close with no unsolicited 408
        assert _raw_exchange(client, b"") == b""
        replies = _responses(_raw_exchange(client, _HEALTHZ))
        assert [status for status, _, _ in replies] == [200]
        assert time.monotonic() - t0 < 5.0
        assert client.healthy()

    def test_stale_connection_is_retried_transparently(self, serve,
                                                       monkeypatch):
        from repro.serve import server as server_mod

        monkeypatch.setattr(server_mod, "_READ_TIMEOUT_S", 0.2)
        client = serve()
        before = client.stats()
        time.sleep(0.6)   # the server drops the idle kept connection
        after = client.stats()
        assert after["connections"] == before["connections"] + 1

    def test_stats_count_connections_and_requests(self, serve):
        observer = serve()
        before = observer.stats()
        client = ServeClient(f"http://{observer.host}:{observer.port}")
        try:
            for _ in range(20):
                assert client.healthy()
        finally:
            client.close()
        after = observer.stats()
        assert after["connections"] - before["connections"] == 1
        # the 20 calls, and the observer's first /stats once answered
        assert after["requests"] - before["requests"] == 21

    def test_shutdown_closes_idle_connections(self, serve):
        client = serve()
        idle = ServeClient(f"http://{client.host}:{client.port}")
        address = (client.host, client.port)
        try:
            assert idle.healthy()   # a kept connection, left open
            with socket.create_connection(address, timeout=10.0) as sock:
                sock.sendall(_HEALTHZ)
                head = sock.recv(65536)
                assert _status(head) == 200
                client.shutdown()
                # the server closes the idle connection itself, with no
                # answer; the fixture then sees its thread end
                assert _read_all(sock) == b""
        finally:
            idle.close()

    def test_request_arriving_during_drain_is_503(self, serve, tmp_path,
                                                  request):
        slow = f"w_{request.node.name[:36]}"
        kindutil.register_test_kind(slow, tmp_path, delay=1.0)
        try:
            client = serve(shard_points=1)
            job = client.submit("alice", slow, {"values": [1, 2]})
            address = (client.host, client.port)
            with socket.create_connection(address, timeout=10.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                # a running shard keeps the drain open for ~1 s
                deadline = time.monotonic() + 15
                while client.status(job["id"])["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                client.shutdown()
                sock.sendall(b"\r\n")
                replies = _responses(_read_all(sock))
            assert [(s, h["connection"]) for s, h, _ in replies] == \
                [(503, "close")]
        finally:
            kindutil.unregister(slow)


class TestFraming:
    """A body is framed by one Content-Length, so its bytes are never
    read as a next request."""

    def test_transfer_encoding_is_400_and_closes(self, serve):
        client = serve()
        replies = _responses(_raw_exchange(
            client,
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"18\r\nGET /kinds HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
        ))
        assert len(replies) == 1
        status, headers, doc = replies[0]
        assert (status, headers["connection"]) == (400, "close")
        assert "Transfer-Encoding" in doc["error"]

    def test_disagreeing_content_lengths_are_400_and_close(self, serve):
        client = serve()
        smuggled = b"GET /kinds HTTP/1.1\r\n\r\n"
        replies = _responses(_raw_exchange(
            client,
            b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n"
            b"Content-Length: %d\r\n\r\n" % len(smuggled) + smuggled,
        ))
        assert len(replies) == 1
        status, headers, doc = replies[0]
        assert (status, headers["connection"]) == (400, "close")
        assert "Content-Length" in doc["error"]

    def test_agreeing_content_lengths_frame_one_body(self, serve):
        client = serve()
        smuggled = b"GET /kinds HTTP/1.1\r\n\r\n"
        head = b"Content-Length: %d\r\n" % len(smuggled)
        replies = _responses(_raw_exchange(
            client, b"GET /healthz HTTP/1.1\r\n" + head + head + b"\r\n"
            + smuggled, half_close=True))
        assert [(s, d) for s, _, d in replies] == [(200, {"ok": True})]


class TestMalformedValues:
    def test_non_integer_priority_is_400(self, serve, kind_name):
        client = serve()
        for priority in ("x", [1], None):
            with pytest.raises(ServeError) as err:
                client.submit("alice", kind_name, {"values": [1]},
                              priority=priority)
            assert err.value.status == 400
            assert "priority" in str(err.value)
        assert client.healthy()

    def test_non_string_tenant_is_400(self, serve, kind_name):
        client = serve()
        with pytest.raises(ServeError) as err:
            client.submit(["alice"], kind_name, {"values": [1]})
        assert err.value.status == 400

    @pytest.mark.parametrize("cursor", ["x", "-1", "1.5", "%C2%B2"])
    def test_bad_event_cursor_is_400(self, serve, kind_name, cursor):
        client = serve()
        job = client.submit("alice", kind_name, {"values": [1]})
        with pytest.raises(ServeError) as err:
            list(client.events(job["id"], after=cursor))
        assert err.value.status == 400
        assert "from" in str(err.value)
        client.wait(job["id"], timeout=30)


class TestRequestFuzz:
    """Seeded hostile requests: each is sent on a fresh connection and
    again behind an answered request on a kept-alive one.  Every case
    ends in exactly one well-formed answer that is not 500 (an empty
    case in a quiet close), no answer is for bytes of a body, and the
    server answers ``/healthz`` afterwards."""

    CASES = 200
    #: the body of every case: a request the server must never answer
    SMUGGLED = b"GET /kinds HTTP/1.1\r\n\r\n"

    # bytes that may appear anywhere but a line end: no "\n", so a
    # mutation cannot end the header block early and turn the rest of
    # the case into a request of its own
    ALPHABET = b"aZ09 \t\r\x00\x7f\xff:;/?%#&=,\"'()<>@[]{}\\"

    LINE_TOKENS = {
        "method": [b"", b"get", b"POST", b"G ET", b"\x00", b"\xffGET",
                   b"GET /healthz"],
        "target": [b"", b"*", b"//[", b"/%zz", b"/healthz?from=\xff",
                   b"http://x/healthz", b"/a\nb", b"/" + b"x" * 5000,
                   b"/healthz HTTP/1.1"],
        "version": [b"", b"HTTP/1.0", b"HTTP/2", b"HTTP/1.1 x", b"http/1.1",
                    b"HTTP/1.1\x00", b"HTTP/1.1\nX-A: b"],
    }
    LENGTH_VALUES = [b"", b"-1", b"+24", b" 24 ", b"0x18", b"24.0", b"2e1",
                     b"24, 24", b"\xb2\xb3", b"9" * 40, b"4194305", b"25",
                     b"1000"]
    CONNECTION_VALUES = [b"close", b"keep-alive", b"CLOSE", b"", b"\x00",
                         b"upgrade, close", b"keep-alive,,"]

    def _case(self, rng) -> bytes:
        line = {"method": b"GET", "target": b"/healthz",
                "version": b"HTTP/1.1"}
        headers = [[b"Host", b"fuzz"], [b"X-Fuzz", b"abc"],
                   [b"Connection", b"keep-alive"],
                   [b"Content-Length", b"%d" % len(self.SMUGGLED)]]
        body = self.SMUGGLED

        def noise(n: int) -> bytes:
            return bytes(rng.choice(self.ALPHABET) for _ in range(n))

        kind = rng.choice(["line", "name", "value", "length", "framing",
                           "truncate", "many"])
        if kind == "line":
            part = rng.choice(sorted(line))
            line[part] = rng.choice(self.LINE_TOKENS[part] + [noise(6)])
        elif kind == "name":   # never the framing headers' names
            header = rng.choice(headers[:2])
            header[0] = rng.choice([b"", b" X-Fuzz", b"X Fuzz", b"X-Fuzz ",
                                    noise(rng.randint(1, 8))])
        elif kind == "value":
            header = rng.choice(headers[:3])
            header[1] = rng.choice(self.CONNECTION_VALUES + [noise(12)])
        elif kind == "length":
            headers[3][1] = rng.choice(self.LENGTH_VALUES)
        elif kind == "framing":
            headers.insert(rng.randint(0, len(headers)), rng.choice([
                [b"Transfer-Encoding", b"chunked"],
                [b"transfer-encoding", b"identity"],
                [b"Content-Length", b"0"],
                [b"Content-Length", b"%d" % len(body)],
            ]))
        elif kind == "many":   # 100 header lines are allowed, 101 not
            headers += [[b"X-%d" % i, b"v"] for i in range(rng.choice(
                [95, 96, 97, 150]))]
        data = b" ".join([line["method"], line["target"], line["version"]])
        data += b"\r\n" + b"".join(
            name + b": " + value + b"\r\n" for name, value in headers)
        data += b"\r\n" + body
        if kind == "truncate":
            data = data[:rng.randrange(len(data))]
        return data

    def _check(self, replies, case: bytes) -> None:
        assert len(replies) == (1 if case else 0), (case, replies)
        for status, _headers, doc in replies:
            assert status != 500, (case, doc)
            assert "kinds" not in doc, ("answered a body", case)

    def test_fuzzed_requests(self, serve):
        import random

        client = serve()
        rng = random.Random(20261017)
        for _ in range(self.CASES):
            case = self._case(rng)
            replies = _responses(_raw_exchange(client, case,
                                               half_close=True))
            self._check(replies, case)
            replies = _responses(_raw_exchange(client, _HEALTHZ + case,
                                               half_close=True))
            assert replies[0][::2] == (200, {"ok": True}), (case, replies)
            self._check(replies[1:], case)
            assert client.healthy(), case


class TestEndToEnd:
    def test_two_tenants_dedup_identical_payloads(
            self, serve, tmp_path, request):
        slow = f"d_{request.node.name[:36]}"
        kindutil.register_test_kind(slow, tmp_path, delay=0.2)
        try:
            client = serve(shard_points=2)
            a = client.submit("alice", slow, {"values": [3, 1, 4, 5, 9]})
            b = client.submit("bob", slow, {"values": [3, 1, 4, 5, 9]})
            assert b["dedup_of"] == a["id"]
            done_a = client.wait(a["id"], timeout=60)
            done_b = client.wait(b["id"], timeout=60)
            assert done_a["state"] == done_b["state"] == "done"
            res_a = client.result(a["id"])
            res_b = client.result(b["id"])
            assert res_a["payload"] == res_b["payload"]
            assert json.dumps(res_a["payload"], sort_keys=True) == \
                json.dumps(res_b["payload"], sort_keys=True)
            assert res_a["payload"] == {"values": [6, 2, 8, 10, 18]}
            stats = client.stats()
            # identical request: one cache-miss execution fleet-wide
            assert stats["dedup_hits"] == 1
            assert stats["executed_points"] == 5
            listing = client.jobs(tenant="bob")
            assert [j["id"] for j in listing] == [b["id"]]
        finally:
            kindutil.unregister(slow)

    def test_event_stream_over_http(self, serve, kind_name):
        client = serve()
        job = client.submit("alice", kind_name, {"values": [1, 2, 3]})
        events = list(client.events(job["id"]))
        types = [e["type"] for e in events]
        assert types[0] == "state" and "progress" in types
        assert events[-1]["type"] == "state"
        assert events[-1]["state"] == "done"
        assert [e["seq"] for e in events] == list(range(len(events)))
        # resume the stream from a cursor: no duplicates, same tail
        tail = list(client.events(job["id"], after=2))
        assert [e["seq"] for e in tail] == list(range(2, len(events)))


@pytest.mark.slow
class TestCLI:
    def test_repro_serve_and_submit_subprocesses(self, tmp_path):
        """The shipped commands end to end: `repro serve` in one
        process, two `repro submit --wait` tenants in others, real
        pmu_fig5 simulations, dedup asserted over /stats."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        port_file_args = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--jobs", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        server = subprocess.Popen(
            port_file_args, env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # the CLI prints "repro serve listening on http://..." once up
            line = server.stderr.readline()
            match = re.search(r"listening on (http://\S+)", line)
            assert match, line
            url = match.group(1)

            params = json.dumps(
                {"n": 60, "intervals": [4000], "sleep_cycles": 8000}
            )
            submit = [
                sys.executable, "-m", "repro.cli", "submit",
                "--url", url, "--kind", "pmu_fig5",
                "--params-json", params, "--wait",
            ]
            out_a = subprocess.run(
                submit + ["--tenant", "alice"], env=env, cwd=str(tmp_path),
                capture_output=True, text=True, timeout=600,
            )
            assert out_a.returncode == 0, out_a.stderr
            out_b = subprocess.run(
                submit + ["--tenant", "bob"], env=env, cwd=str(tmp_path),
                capture_output=True, text=True, timeout=600,
            )
            assert out_b.returncode == 0, out_b.stderr
            res_a = json.loads(out_a.stdout)
            res_b = json.loads(out_b.stdout)
            assert res_a["payload"] == res_b["payload"]
            series = res_a["payload"]["series"]["4000"]
            assert series["total_committed"] > 0
            # sequential identical request: served from the point cache
            assert res_b["cache_hits"] == 1
            assert res_b["executed_points"] == 0

            client = ServeClient(url, timeout=30.0)
            client.shutdown()
            stdout, stderr = server.communicate(timeout=60)
            assert server.returncode == 0, stderr
            assert "clean shutdown" in stderr
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
