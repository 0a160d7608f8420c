"""Timing ports: binding, the three-call retry protocol, functional path,
and the queue a refused packet waits in."""

import pytest

from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort, ResponsePort


def _pkt() -> Packet:
    return Packet(MemCmd.ReadReq, 0x40, 8)


class TestBinding:
    def test_connect_pairs_ports(self):
        req = RequestPort("req")
        resp = ResponsePort("resp")
        req.connect(resp)
        assert req.peer is resp and resp.peer is req
        assert req.connected and resp.connected

    def test_connect_from_response_side(self):
        req = RequestPort("req")
        resp = ResponsePort("resp")
        resp.connect(req)
        assert req.peer is resp

    def test_double_connect_rejected(self):
        req = RequestPort("r1")
        resp = ResponsePort("s1")
        req.connect(resp)
        with pytest.raises(RuntimeError):
            RequestPort("r2").connect(resp)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            RequestPort("a").connect(RequestPort("b"))  # type: ignore[arg-type]

    def test_send_unbound_rejected(self):
        with pytest.raises(RuntimeError):
            RequestPort("r").send_timing_req(_pkt())


class TestProtocol:
    def _pair(self, accept_req=True, accept_resp=True):
        log = []
        resp = ResponsePort(
            "resp",
            recv_timing_req=lambda pkt: (log.append(("req", pkt)), accept_req)[1],
            recv_resp_retry=lambda: log.append(("resp_retry", None)),
            recv_functional=lambda pkt: log.append(("func", pkt)),
        )
        req = RequestPort(
            "req",
            recv_timing_resp=lambda pkt: (log.append(("resp", pkt)), accept_resp)[1],
            recv_req_retry=lambda: log.append(("req_retry", None)),
        )
        req.connect(resp)
        return req, resp, log

    def test_accepted_request_reaches_handler(self):
        req, resp, log = self._pair()
        pkt = _pkt()
        assert req.send_timing_req(pkt)
        assert log == [("req", pkt)]

    def test_rejected_request_marks_waiting(self):
        req, resp, log = self._pair(accept_req=False)
        assert not req.send_timing_req(_pkt())
        assert req.waiting_retry

    def test_retry_notification(self):
        req, resp, log = self._pair(accept_req=False)
        req.send_timing_req(_pkt())
        resp.send_retry_req()
        assert ("req_retry", None) in log
        assert not req.waiting_retry

    def test_response_path(self):
        req, resp, log = self._pair()
        pkt = _pkt().make_response(b"\0" * 8)
        assert resp.send_timing_resp(pkt)
        assert ("resp", pkt) in log

    def test_rejected_response_and_retry(self):
        req, resp, log = self._pair(accept_resp=False)
        assert not resp.send_timing_resp(_pkt())
        assert resp.resp_waiting_retry
        req.send_retry_resp()
        assert ("resp_retry", None) in log
        assert not resp.resp_waiting_retry

    def test_functional_bypasses_timing(self):
        req, resp, log = self._pair()
        pkt = _pkt()
        req.send_functional(pkt)
        assert log == [("func", pkt)]


class _Gate:
    """The far end of a port pair: accepts while ``budget`` lasts,
    logs every delivery attempt and runs ``on_accept`` inside the
    accepting call (where a real peer would act on the packet)."""

    def __init__(self, budget: int = 0) -> None:
        self.budget = budget
        self.attempts: list[Packet] = []
        self.accepted: list[Packet] = []
        self.on_accept = lambda pkt: None

    def recv(self, pkt: Packet) -> bool:
        self.attempts.append(pkt)
        if self.budget <= 0:
            return False
        self.budget -= 1
        self.accepted.append(pkt)
        self.on_accept(pkt)
        return True


def _request_side(gate, retry=None):
    """(sending port, the peer's retry) with *gate* receiving requests."""
    port = RequestPort("sender", recv_req_retry=retry)
    peer = ResponsePort("gate", recv_timing_req=gate.recv)
    port.connect(peer)
    return port, peer.send_retry_req


def _response_side(gate, retry=None):
    """(sending port, the peer's retry) with *gate* receiving responses."""
    port = ResponsePort("sender", recv_resp_retry=retry)
    peer = RequestPort("gate", recv_timing_resp=gate.recv)
    port.connect(peer)
    return port, peer.send_retry_resp


@pytest.mark.parametrize("side", [_request_side, _response_side],
                         ids=["requests", "responses"])
class TestQueuedSend:
    def test_accepted_at_once_queues_nothing(self, side):
        gate = _Gate(budget=1)
        port, _ = side(gate)
        pkt = _pkt()
        assert port.send(pkt) is True
        assert gate.accepted == [pkt] and not port.queue

    def test_no_overtaking_and_order_survives_the_drain(self, side):
        gate = _Gate(budget=0)
        port, retry = side(gate)
        a, b, c = _pkt(), _pkt(), _pkt()
        assert port.send(a) is False
        gate.budget = 10   # the peer could take b now: it must not be asked
        assert port.send(b) is False and port.send(c) is False
        assert gate.attempts == [a]
        assert list(port.queue) == [a, b, c]
        retry()
        assert gate.accepted == [a, b, c] and not port.queue

    def test_drain_stops_at_a_re_rejection(self, side):
        gate = _Gate(budget=0)
        port, retry = side(gate)
        a, b, c = _pkt(), _pkt(), _pkt()
        for pkt in (a, b, c):
            port.send(pkt)
        gate.budget = 1
        retry()
        assert gate.accepted == [a]
        assert gate.attempts == [a, a, b]   # c was not offered
        assert list(port.queue) == [b, c]
        gate.budget = 5
        retry()
        assert gate.accepted == [a, b, c]

    def test_owner_hears_the_retry_only_once_the_queue_is_empty(self, side):
        gate = _Gate(budget=0)
        heard = []
        port, retry = side(gate, retry=lambda: heard.append(len(port.queue)))
        port.send(_pkt())
        port.send(_pkt())
        gate.budget = 1
        retry()
        assert heard == []          # one still waits: not yet
        gate.budget = 1
        retry()
        assert heard == [0]         # after the queue emptied, once
        retry()                     # nothing queued: straight through
        assert heard == [0, 0]

    def test_send_from_inside_a_drain_lands_behind_the_queue(self, side):
        gate = _Gate(budget=0)
        port, retry = side(gate)
        a, b, late = _pkt(), _pkt(), _pkt()
        port.send(a)
        port.send(b)
        # while the peer is taking ``a`` it provokes another send on the
        # same port (a fill answering a request makes the owner send)
        gate.on_accept = lambda pkt: pkt is a and port.send(late)
        gate.budget = 10
        retry()
        assert gate.accepted == [a, b, late]
        assert not port.queue

    def test_retry_with_nothing_queued_and_no_handler_raises(self, side):
        port, retry = side(_Gate())
        with pytest.raises(RuntimeError, match="retry handler"):
            retry()

    def test_drained_queue_needs_no_handler(self, side):
        gate = _Gate(budget=0)
        port, retry = side(gate)
        port.send(_pkt())
        gate.budget = 1
        retry()                     # no handler, but it had work: fine
        assert not port.queue
