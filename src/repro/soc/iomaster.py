"""IOMaster: a software-driven timing requestor for MMIO traffic.

Models the core-side of memory-mapped device accesses (PMU counter
reads/writes, NVDLA CSB doorbells) without threading them through the
µop pipeline: host software enqueues reads/writes with completion
callbacks, and the IOMaster issues them over a timing port, one at a
time, in order — the behaviour of strongly-ordered device memory.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..trace import packets as pkttrace
from ..trace.flags import debug_flag, tracepoint
from .packet import MemCmd, Packet
from .ports import RequestPort
from .simobject import SimObject, Simulation

FLAG_IO = debug_flag("IO", "IOMaster MMIO issue/completion")


class IOMaster(SimObject):
    """Issues ordered timing requests on behalf of host software."""

    def __init__(
        self, sim: Simulation, name: str, parent: Optional[SimObject] = None
    ) -> None:
        super().__init__(sim, name, parent)
        self.port = RequestPort(
            f"{name}.port",
            recv_timing_resp=self._recv_resp,
            recv_req_retry=self._retry,
        )
        self._queue: deque[tuple[Packet, Optional[Callable]]] = deque()
        self._outstanding: Optional[tuple[Packet, Optional[Callable]]] = None
        self._drain_handlers: list[Callable[[], None]] = []
        self.st_reads = self.stats.scalar("reads", "MMIO reads issued")
        self.st_writes = self.stats.scalar("writes", "MMIO writes issued")

    def read(
        self, addr: int, size: int = 4,
        callback: Optional[Callable[[Packet], None]] = None, **meta,
    ) -> None:
        pkt = Packet(MemCmd.ReadReq, addr, size, requestor=self.name)
        pkt.meta.update(meta)
        self.st_reads.inc()
        self._enqueue(pkt, callback)

    def write(
        self, addr: int, data: bytes,
        callback: Optional[Callable[[Packet], None]] = None, **meta,
    ) -> None:
        pkt = Packet(MemCmd.WriteReq, addr, len(data), data=data,
                     requestor=self.name)
        pkt.meta.update(meta)
        self.st_writes.inc()
        self._enqueue(pkt, callback)

    def write_word(self, addr: int, value: int, size: int = 4, **kw) -> None:
        self.write(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"), **kw)

    @property
    def busy(self) -> bool:
        return self._outstanding is not None or bool(self._queue)

    def on_drain(self, handler: Callable[[], None]) -> None:
        """Call *handler* whenever the last pending request completes.

        Part of the system's structure, like an interrupt handler:
        register it when the system is built.  It is not per-request
        state, so it neither vetoes a checkpoint nor is saved in one.
        """
        self._drain_handlers.append(handler)

    # -- internals --------------------------------------------------------

    def _enqueue(self, pkt: Packet, callback: Optional[Callable]) -> None:
        self._queue.append((pkt, callback))
        self._try_issue()

    def _try_issue(self) -> None:
        if self._outstanding is not None or not self._queue:
            return
        pkt, callback = self._queue[0]
        pkt.req_tick = self.now
        if FLAG_IO.enabled:
            tracepoint(
                FLAG_IO, self.name, "issue %s #%d addr=%#x",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        if self.port.send_timing_req(pkt):
            self._queue.popleft()
            self._outstanding = (pkt, callback)

    def _retry(self) -> None:
        self._try_issue()

    def _recv_resp(self, pkt: Packet) -> bool:
        assert self._outstanding is not None
        out_pkt, callback = self._outstanding
        assert out_pkt.pkt_id == pkt.pkt_id, "MMIO responses must be in order"
        self._outstanding = None
        if FLAG_IO.enabled:
            tracepoint(
                FLAG_IO, self.name, "complete %s #%d addr=%#x",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled and pkt.hops:
            pkttrace.finish(pkt, self.sim, self.now, self.name)
        if callback is not None:
            callback(pkt)
        self._try_issue()
        if not self.busy:
            for handler in self._drain_handlers:
                handler()
        return True

    # -- checkpointing ----------------------------------------------------

    def ckpt_veto(self):
        # A Python completion callback cannot be serialized; wait until
        # the response lands.  Callback-free traffic (write_word streams)
        # checkpoints fine mid-flight.
        if any(cb is not None for _pkt, cb in self._queue):
            return "queued MMIO request carries a host callback"
        if self._outstanding is not None and self._outstanding[1] is not None:
            return "outstanding MMIO request carries a host callback"
        return None

    def serialize(self, ctx) -> dict:
        return {
            "queue": [ctx.pack(pkt) for pkt, _cb in self._queue],
            "outstanding": (None if self._outstanding is None
                            else ctx.pack(self._outstanding[0])),
        }

    def unserialize(self, state: dict, ctx) -> None:
        self._queue = deque(
            (ctx.unpack(p), None) for p in state["queue"]
        )
        out = state["outstanding"]
        self._outstanding = None if out is None else (ctx.unpack(out), None)
