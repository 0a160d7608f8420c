"""Timing ports with gem5's retry-based flow control.

A :class:`RequestPort` (gem5 "master"/mem-side port) pairs with a
:class:`ResponsePort` (gem5 "slave"/cpu-side port).  The protocol is the
classic three-call handshake:

* ``req.send_timing_req(pkt)`` → peer's owner ``recv_timing_req(pkt)``;
  returning ``False`` means *busy*: the responder promises to call
  ``send_retry_req()`` later, upon which the requester's owner gets
  ``recv_req_retry()`` and may resend.
* Symmetrically for responses via ``send_timing_resp``/``recv_resp_retry``.
* ``send_functional(pkt)`` performs an immediate, timing-free access
  (used for loading NVDLA traces into memory, debugging, etc.).

A packet the peer refused waits in the port, not in each owner (gem5's
``QueuedPort``): ``port.send(pkt)`` delivers now or appends to
``port.queue``; the peer's retry drains the queue in order before the
owner hears of it, and the owner's checkpoint carries ``queue_state``.

Owners implement the ``recv_*`` hooks by passing callbacks or by
subclassing :class:`PortOwner`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Protocol

from ..trace.flags import debug_flag, tracepoint
from .packet import Packet

FLAG_PORTS = debug_flag("Ports", "timing-port handshake (send/reject/retry)")


class PortOwner(Protocol):  # pragma: no cover - structural typing only
    def recv_timing_req(self, pkt: Packet) -> bool: ...
    def recv_timing_resp(self, pkt: Packet) -> bool: ...
    def recv_req_retry(self) -> None: ...
    def recv_resp_retry(self) -> None: ...
    def recv_functional(self, pkt: Packet) -> None: ...


class _Port:
    """Binding and the refused-packet queue, common to both directions."""

    def __init__(self, name: str, owner=None) -> None:
        self.name = name
        self.owner = owner
        self.peer: Optional[_Port] = None
        #: packets the peer refused, or that arrived behind one; oldest
        #: first.  Part of the owner's checkpoint.
        self.queue: deque[Packet] = deque()

    @property
    def connected(self) -> bool:
        return self.peer is not None

    def _require_peer(self) -> "_Port":
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        return self.peer

    def send(self, pkt: Packet) -> bool:
        """Deliver *pkt* now, or queue it behind what already waits for
        the peer's retry.  ``True`` iff it went out at once."""
        if self.queue or not self._deliver(pkt):
            self.queue.append(pkt)
            return False
        return True

    def _retried(self, handler: Optional[Callable[[], None]]) -> None:
        """The peer takes packets again: resend :attr:`queue` in order,
        stopping if it refuses once more; only when nothing waits does
        the owner's *handler*, if it has one, hear the retry.  The head
        is peeked, not popped: while it is being delivered the queue is
        not empty, so a handler that sends on this port from inside the
        delivery lines up behind what waits instead of overtaking it."""
        queue = self.queue
        queued = bool(queue)
        while queue:
            if not self._deliver(queue[0]):
                return
            queue.popleft()
        if handler is not None:
            handler()
        elif not queued:
            raise RuntimeError(f"port {self.name} has no retry handler")

    def queue_state(self, ctx) -> list:
        return [ctx.pack(pkt) for pkt in self.queue]

    def load_queue(self, state: list, ctx) -> None:
        self.queue = deque(ctx.unpack(pkt) for pkt in state)

    def __repr__(self) -> str:  # pragma: no cover
        peer = self.peer.name if self.peer else "unbound"
        return f"<{type(self).__name__} {self.name} <-> {peer}>"


class RequestPort(_Port):
    """Sends requests downstream; receives responses and request-retries."""

    def __init__(
        self,
        name: str,
        owner=None,
        recv_timing_resp: Optional[Callable[[Packet], bool]] = None,
        recv_req_retry: Optional[Callable[[], None]] = None,
        recv_snoop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        super().__init__(name, owner)
        self._recv_timing_resp = recv_timing_resp
        self._recv_req_retry = recv_req_retry
        self._recv_snoop = recv_snoop
        self._waiting_retry = False

    def connect(self, peer: "ResponsePort") -> None:
        if not isinstance(peer, ResponsePort):
            raise TypeError(
                f"RequestPort {self.name} must connect to a ResponsePort, "
                f"got {type(peer).__name__}"
            )
        if self.connected or peer.connected:
            raise RuntimeError(f"port already connected: {self.name} or {peer.name}")
        self.peer = peer
        peer.peer = self

    # requester-side API ----------------------------------------------------

    def send_timing_req(self, pkt: Packet) -> bool:
        peer = self._require_peer()
        assert isinstance(peer, ResponsePort)
        accepted = peer.handle_req(pkt)
        if not accepted:
            self._waiting_retry = True
        if FLAG_PORTS.enabled:
            tracepoint(
                FLAG_PORTS, self.name, "req %s #%d addr=%#x -> %s",
                pkt.cmd.name, pkt.pkt_id, pkt.addr,
                "accepted" if accepted else "REJECTED",
            )
        return accepted

    _deliver = send_timing_req

    def send_functional(self, pkt: Packet) -> None:
        peer = self._require_peer()
        assert isinstance(peer, ResponsePort)
        peer.handle_functional(pkt)

    def send_retry_resp(self) -> None:
        """Tell the responder a previously-rejected response may be resent."""
        peer = self._require_peer()
        assert isinstance(peer, ResponsePort)
        peer.handle_resp_retry()

    # called by the peer ------------------------------------------------------

    def handle_resp(self, pkt: Packet) -> bool:
        if self._recv_timing_resp is not None:
            return self._recv_timing_resp(pkt)
        if self.owner is not None:
            return self.owner.recv_timing_resp(pkt)
        raise RuntimeError(f"port {self.name} has no response handler")

    def handle_req_retry(self) -> None:
        self._waiting_retry = False
        handler = self._recv_req_retry
        if handler is None and self.owner is not None:
            handler = self.owner.recv_req_retry
        self._retried(handler)

    def handle_snoop(self, pkt: Packet) -> None:
        """Deliver a coherence probe travelling *against* the request flow.

        Snoops are *express* (gem5's atomic snoop): the call runs to
        completion inside the sender's event, bypassing the timing
        queues, so the directory's serialization point also serializes
        every coherence side effect.  Responders aggregate their answers
        by mutating ``pkt.meta`` rather than turning the packet around.
        """
        if self._recv_snoop is not None:
            self._recv_snoop(pkt)
            return
        recv = getattr(self.owner, "recv_snoop", None)
        if recv is not None:
            recv(pkt)
            return
        raise RuntimeError(f"port {self.name} has no snoop handler")

    @property
    def waiting_retry(self) -> bool:
        return self._waiting_retry


class ResponsePort(_Port):
    """Receives requests; sends responses upstream and request-retries."""

    def __init__(
        self,
        name: str,
        owner=None,
        recv_timing_req: Optional[Callable[[Packet], bool]] = None,
        recv_resp_retry: Optional[Callable[[], None]] = None,
        recv_functional: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        super().__init__(name, owner)
        self._recv_timing_req = recv_timing_req
        self._recv_resp_retry = recv_resp_retry
        self._recv_functional = recv_functional
        self._resp_waiting_retry = False

    def connect(self, peer: RequestPort) -> None:
        peer.connect(self)

    # responder-side API ------------------------------------------------------

    def send_timing_resp(self, pkt: Packet) -> bool:
        peer = self._require_peer()
        assert isinstance(peer, RequestPort)
        accepted = peer.handle_resp(pkt)
        if not accepted:
            self._resp_waiting_retry = True
        if FLAG_PORTS.enabled:
            tracepoint(
                FLAG_PORTS, self.name, "resp %s #%d addr=%#x -> %s",
                pkt.cmd.name, pkt.pkt_id, pkt.addr,
                "accepted" if accepted else "REJECTED",
            )
        return accepted

    _deliver = send_timing_resp

    def send_retry_req(self) -> None:
        """Tell the requester a previously-rejected request may be resent."""
        peer = self._require_peer()
        assert isinstance(peer, RequestPort)
        peer.handle_req_retry()

    def send_snoop(self, pkt: Packet) -> None:
        """Push an express coherence probe up toward the requester."""
        peer = self._require_peer()
        assert isinstance(peer, RequestPort)
        peer.handle_snoop(pkt)

    # called by the peer -------------------------------------------------------

    def handle_req(self, pkt: Packet) -> bool:
        if self._recv_timing_req is not None:
            return self._recv_timing_req(pkt)
        if self.owner is not None:
            return self.owner.recv_timing_req(pkt)
        raise RuntimeError(f"port {self.name} has no request handler")

    def handle_resp_retry(self) -> None:
        self._resp_waiting_retry = False
        handler = self._recv_resp_retry
        if handler is None and self.owner is not None:
            handler = self.owner.recv_resp_retry
        self._retried(handler)

    def handle_functional(self, pkt: Packet) -> None:
        if self._recv_functional is not None:
            self._recv_functional(pkt)
        elif self.owner is not None:
            self.owner.recv_functional(pkt)
        else:
            raise RuntimeError(f"port {self.name} has no functional handler")

    @property
    def resp_waiting_retry(self) -> bool:
        return self._resp_waiting_retry
