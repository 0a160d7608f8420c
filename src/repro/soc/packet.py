"""Memory-system packets.

The analogue of gem5's ``Packet``/``MemCmd``.  A packet is created for a
request, travels request-side through the hierarchy, is turned around at
the responder (``make_response``) and routes back using the sender-state
stack that intermediate components push onto it — the same discipline gem5
uses so that crossbars/caches can restore routing info on the way back.
"""

from __future__ import annotations

import enum
from typing import Any, Optional


class MemCmd(enum.Enum):
    ReadReq = enum.auto()
    ReadResp = enum.auto()
    WriteReq = enum.auto()
    WriteResp = enum.auto()
    WritebackDirty = enum.auto()   # cache eviction traffic; no response
    PrefetchReq = enum.auto()      # prefetcher-generated read
    PrefetchResp = enum.auto()
    # -- coherence (repro.coherence) ------------------------------------
    ReadExReq = enum.auto()        # read-for-ownership: miss + intent to write
    ReadExResp = enum.auto()       # line data granted in M
    UpgradeReq = enum.auto()       # S -> M in place; no data transfer
    UpgradeResp = enum.auto()
    SnoopReq = enum.auto()         # directory-originated probe (inv/share)
    SnoopResp = enum.auto()

    # Classification: plain per-member attributes, filled from the
    # table below the class (an Enum body cannot name its own members).
    is_read: bool
    is_write: bool
    is_request: bool
    is_response: bool
    needs_response: bool
    #: the command that answers this one; None if it takes no response
    response: Optional["MemCmd"]

    def response_for(self) -> "MemCmd":
        if self.response is None:
            raise ValueError(f"{self} does not take a response")
        return self.response


# One row per command: (is_read, is_write, is_request, needs_response,
# response).  Every command is a request or a response.  A snoop names
# its response but needs none routed back: probes are express, answered
# in place while the directory's send_snoop call is still on the stack.
for _cmd, _row in {
    MemCmd.ReadReq:        (True,  False, True,  True,  MemCmd.ReadResp),
    MemCmd.ReadResp:       (True,  False, False, False, None),
    MemCmd.WriteReq:       (False, True,  True,  True,  MemCmd.WriteResp),
    MemCmd.WriteResp:      (False, True,  False, False, None),
    MemCmd.WritebackDirty: (False, True,  True,  False, None),
    MemCmd.PrefetchReq:    (True,  False, True,  True,  MemCmd.PrefetchResp),
    MemCmd.PrefetchResp:   (True,  False, False, False, None),
    MemCmd.ReadExReq:      (True,  False, True,  True,  MemCmd.ReadExResp),
    MemCmd.ReadExResp:     (True,  False, False, False, None),
    MemCmd.UpgradeReq:     (False, False, True,  True,  MemCmd.UpgradeResp),
    MemCmd.UpgradeResp:    (False, False, False, False, None),
    MemCmd.SnoopReq:       (False, False, True,  False, MemCmd.SnoopResp),
    MemCmd.SnoopResp:      (False, False, False, False, None),
}.items():
    (_cmd.is_read, _cmd.is_write, _cmd.is_request,
     _cmd.needs_response, _cmd.response) = _row
    _cmd.is_response = not _cmd.is_request
del _cmd, _row


# Process-wide packet id counter.  A plain int (not itertools.count) so
# checkpoint restore can re-seed it and post-restore packets get the same
# ids the uninterrupted run would have handed out.
_next_pkt_id = 0


def take_packet_id() -> int:
    global _next_pkt_id
    pkt_id = _next_pkt_id
    _next_pkt_id += 1
    return pkt_id


def peek_packet_id() -> int:
    """The id the next packet will receive (checkpointing)."""
    return _next_pkt_id


def set_next_packet_id(value: int) -> None:
    """Re-seed the id counter (checkpoint restore)."""
    global _next_pkt_id
    _next_pkt_id = value


class Packet:
    """One memory transaction (request or its in-place response)."""

    __slots__ = (
        "cmd", "addr", "size", "data", "pkt_id", "req_tick", "resp_tick",
        "requestor", "sender_states", "dest_port", "vaddr", "meta",
        "birth_tick", "hops",
    )

    def __init__(
        self,
        cmd: MemCmd,
        addr: int,
        size: int,
        data: Optional[bytes] = None,
        requestor: str = "?",
        vaddr: Optional[int] = None,
    ) -> None:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.cmd = cmd
        self.addr = addr
        self.size = size
        self.data = data
        self.pkt_id = take_packet_id()
        self.req_tick: Optional[int] = None
        self.resp_tick: Optional[int] = None
        self.requestor = requestor
        # Stack of opaque per-hop state (gem5 SenderState).
        self.sender_states: list[Any] = []
        self.dest_port: Optional[Any] = None
        self.vaddr = vaddr
        # Free-form metadata (e.g. NVDLA stream tags, PMU register ids).
        self.meta: dict[str, Any] = {}
        # Lifetime tracking (repro.trace, "Packet" debug flag): birth
        # tick and (component, tick) hop stamps.  None until the first
        # record_hop so untraced runs pay no per-packet allocation.
        self.birth_tick: Optional[int] = None
        self.hops: Optional[list[tuple[str, int]]] = None

    # -- classification ----------------------------------------------------

    @property
    def is_read(self) -> bool:
        return self.cmd.is_read

    @property
    def is_write(self) -> bool:
        return self.cmd.is_write

    @property
    def is_request(self) -> bool:
        return self.cmd.is_request

    @property
    def is_response(self) -> bool:
        return self.cmd.is_response

    @property
    def needs_response(self) -> bool:
        return self.cmd.needs_response

    def block_addr(self, block_size: int = 64) -> int:
        return self.addr & ~(block_size - 1)

    # -- lifetime tracking -------------------------------------------------

    def record_hop(self, where: str, tick: int) -> None:
        """Stamp this packet's arrival at *where*.

        Callers guard with the ``Packet`` debug flag, so untraced runs
        never reach this.  The first hop fixes the birth tick.
        """
        if self.hops is None:
            self.hops = []
            self.birth_tick = tick
        self.hops.append((where, tick))

    # -- sender state ------------------------------------------------------

    def push_state(self, state: Any) -> None:
        self.sender_states.append(state)

    def pop_state(self) -> Any:
        if not self.sender_states:
            raise RuntimeError(f"packet {self.pkt_id}: sender-state underflow")
        return self.sender_states.pop()

    # -- request/response turnaround ----------------------------------------

    def make_response(self, data: Optional[bytes] = None) -> "Packet":
        """Convert this request in place into its response (gem5 style)."""
        self.cmd = self.cmd.response_for()
        if data is not None:
            if len(data) != self.size:
                raise ValueError(
                    f"response data length {len(data)} != packet size {self.size}"
                )
            self.data = data
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet #{self.pkt_id} {self.cmd.name} "
            f"addr={self.addr:#x} size={self.size} from={self.requestor}>"
        )
