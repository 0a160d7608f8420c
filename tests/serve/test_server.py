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


def _raw_exchange(client: ServeClient, request: bytes,
                  timeout: float = 10.0) -> bytes:
    """Send *request* bytes on a fresh socket to *client*'s server and
    read the whole reply."""
    address = (client.host, client.port)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


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
