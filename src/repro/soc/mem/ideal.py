"""Ideal (1-cycle, infinite-bandwidth) main memory.

The normalisation baseline of the paper's Figures 6/7 ("normalized to an
ideal 1-cycle main memory") and the ``gem5+NVDLA+perfect-memory``
configuration of Table 3.
"""

from __future__ import annotations

from typing import Optional

from ..packet import Packet
from ..ports import ResponsePort
from ..simobject import SimObject, Simulation
from .physmem import PhysicalMemory


class IdealMemory(SimObject):
    """Responds to every request after a fixed (default 1) cycle count.

    Exposes ``channels`` interleaved ports so that, as a normalisation
    baseline, it is never itself a port-bandwidth bottleneck (each
    crossbar layer still costs what it costs; the *memory* is ideal).
    """

    ckpt_kinds = {"resp": "_respond"}

    def __init__(
        self,
        sim: Simulation,
        name: str,
        physmem: Optional[PhysicalMemory] = None,
        latency_cycles: int = 1,
        channels: int = 1,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.physmem = physmem or PhysicalMemory()
        self.latency_cycles = latency_cycles
        self.channels = channels
        self.ports = [
            ResponsePort(
                f"{name}.port{i}",
                recv_timing_req=self._recv_req,
                recv_functional=self.functional_access,
            )
            for i in range(channels)
        ]
        self.st_reads = self.stats.scalar("reads", "read requests served")
        self.st_writes = self.stats.scalar("writes", "write requests served")
        self.st_bytes = self.stats.scalar("bytes", "bytes transferred")

    @property
    def port(self) -> ResponsePort:
        return self.ports[0]

    def connect_xbar(self, xbar) -> None:
        from ..interconnect.xbar import AddrRange

        for i, port in enumerate(self.ports):
            rng = AddrRange(0, 1 << 64, intlv_count=self.channels,
                            intlv_match=i)
            xbar.new_mem_port(rng).connect(port)

    # -- timing ----------------------------------------------------------

    def _recv_req(self, pkt: Packet) -> bool:
        if pkt.cmd.is_read:
            self.st_reads.inc()
        else:
            self.st_writes.inc()
        self.st_bytes.inc(pkt.size)
        self.sched_ckpt(
            "resp", pkt,
            self.sim.eventq.cur_tick + self.latency_cycles * self.clock.period,
        )
        return True

    def _port_of(self, pkt: Packet) -> int:
        return (pkt.addr // 64) % self.channels

    def _respond(self, pkt: Packet) -> None:
        self.functional_access(pkt)
        if not pkt.cmd.needs_response:
            return
        pkt.make_response()
        self.ports[self._port_of(pkt)].send_timing_resp(pkt)

    # -- functional --------------------------------------------------------

    def functional_access(self, pkt: Packet) -> None:
        if pkt.cmd.is_read:
            pkt.data = self.physmem.read(pkt.addr, pkt.size)
        elif pkt.data is not None:
            self.physmem.write(pkt.addr, pkt.data)
