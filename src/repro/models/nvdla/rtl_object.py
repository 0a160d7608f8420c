"""NVDLA RTLObject: gem5-side integration (paper §4.2).

Port usage follows Fig. 4:

* ``cpu_side[0]`` — CSB: low-bandwidth configuration interface;
* ``mem_side[0]`` — DBBIF: high-bandwidth AXI toward main memory;
* ``mem_side[1]`` — SRAMIF: secondary interface (connected to main
  memory by default, exactly as the paper chose; the scratchpad hookup
  is the ablation study).

The paper's DSE knob — *maximum in-flight memory requests per NVDLA* —
is the RTLObject's ``max_inflight``; each tick the remaining budget is
passed to the engine as a credit so no request is ever generated that
the bridge cannot issue.

The accelerator is timing-accurate but compute-abstract: output write
payloads are a deterministic function of address (see DESIGN.md).
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from ...bridge.rtl_object import RTLObject
from ...soc.event import ClockDomain
from ...soc.packet import MemCmd, Packet
from ...soc.simobject import PACKED, SimObject, Simulation
from ...soc.tlb import TLB
from .wrapper import MAX_WR_ACKS, NVDLA_OUTPUT, NVDLASharedLibrary, RESP_LANES

DBBIF_PORT = 0
SRAMIF_PORT = 1

#: the output masks of a tag and an address (from 64-bit registers)
_SEQ, _ADDR = (NVDLA_OUTPUT.fields[i].mask for i in (3, 4))
_NO_SEQS = (0,) * RESP_LANES
_M64 = (1 << 64) - 1
_PATTERN = struct.Struct("<8Q").pack


def output_pattern(addr: int) -> bytes:
    """Deterministic 64-byte output payload for a write at *addr*: eight
    little-endian words of a 64-bit LCG seeded from the address."""
    word = addr * 0x9E3779B97F4A7C15 & _M64
    words = []
    for _ in range(8):
        word = word * 6364136223846793005 + 1442695040888963407 & _M64
        words.append(word)
    return _PATTERN(*words)


class NVDLARTLObject(RTLObject):
    """Bridges one NVDLA instance into the SoC."""

    ckpt_state = (("_pending_csb_read", PACKED),)

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: Optional[NVDLASharedLibrary] = None,
        max_inflight: int = 240,
        mmio_base: int = 0x2000_0000,
        clock: Optional[ClockDomain] = None,
        tlb: Optional[TLB] = None,
        translate: bool = False,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(
            sim, name, library or NVDLASharedLibrary(),
            clock=clock or ClockDomain(1e9, f"{name}_clk"),
            tlb=tlb, max_inflight=max_inflight, parent=parent,
        )
        self.mmio_base = mmio_base
        self.translate = translate
        self._pending_csb_read: Optional[Packet] = None
        self._irq_handlers: list[Callable[[int], None]] = []
        self.st_irqs = self.stats.scalar("irqs", "completion interrupts")
        self.st_credit_stalls = self.stats.scalar(
            "credit_stalls", "cycles with zero in-flight budget"
        )

    def on_interrupt(self, handler: Callable[[int], None]) -> None:
        self._irq_handlers.append(handler)

    @property
    def core(self):
        return self.library.core  # type: ignore[attr-defined]

    # -- struct exchange ------------------------------------------------------

    def build_input(self) -> tuple:
        # in-flight budget
        credit = (
            self.max_inflight - self.inflight
            if self.max_inflight is not None
            else 255
        )
        if credit <= 0:
            self.st_credit_stalls.inc()
            credit = 0
        elif credit > 255:
            credit = 255
        if not self.cpu_req_queue and not self.mem_resp_queue:
            return (0, 0, 0, 0, credit, 0, _NO_SEQS, 0)

        # CSB: one operation per tick.
        csb_valid = csb_write = csb_addr = csb_wdata = 0
        if self._pending_csb_read is None and self.cpu_req_queue:
            pkt = self.cpu_req_queue.popleft()
            csb_valid = 1
            csb_addr = pkt.addr - self.mmio_base
            if pkt.is_write:
                csb_write = 1
                csb_wdata = int.from_bytes(
                    (pkt.data or b"\0\0\0\0")[:4], "little"
                )
                self.respond_cpu(pkt)
            else:
                self._pending_csb_read = pkt

        # deliver up to RESP_LANES read responses + count write acks;
        # what finds its lanes full stays at the head, in order
        seqs: list[int] = []
        wr_acks = 0
        remaining: list[Packet] = []
        queue = self.mem_resp_queue
        while queue and (len(seqs) < RESP_LANES or wr_acks < MAX_WR_ACKS):
            pkt = queue.popleft()
            is_read = pkt.cmd.is_read
            if is_read and len(seqs) < RESP_LANES:
                seqs.append(pkt.meta["seq"])
            elif not is_read and wr_acks < MAX_WR_ACKS:
                wr_acks += 1
            else:
                remaining.append(pkt)
        queue.extendleft(reversed(remaining))
        count = len(seqs)
        return (csb_valid, csb_write, csb_addr, csb_wdata, credit,
                count, (*seqs, *_NO_SEQS[count:]), wr_acks)

    def consume_output(self, outputs: tuple) -> None:
        if outputs == self.library.quiet:
            return
        (csb_rvalid, csb_rdata, rd_count, seqs, addrs, ports,
         wr_count, wr_addrs, irq) = outputs
        if csb_rvalid:
            pkt = self._pending_csb_read
            if pkt is None:
                raise RuntimeError(f"{self.name}: CSB read data with no reader")
            self._pending_csb_read = None
            data = csb_rdata.to_bytes(4, "little")[: pkt.size]
            self.respond_cpu(pkt, data.ljust(pkt.size, b"\0"))

        # one struct's burst: lanes to packets, tags and addresses masked
        for i in range(rd_count):
            pkt = Packet(MemCmd.ReadReq, addrs[i] & _ADDR, 64,
                         requestor=self.name)
            pkt.meta["seq"] = seqs[i] & _SEQ
            if not self._issue_mem(pkt, ports[i], self.translate):
                raise RuntimeError(
                    f"{self.name}: engine exceeded its credit (read)"
                )
        for addr in wr_addrs[:wr_count]:
            addr &= _ADDR
            pkt = Packet(MemCmd.WriteReq, addr, 64,
                         data=output_pattern(addr), requestor=self.name)
            if not self._issue_mem(pkt, DBBIF_PORT, self.translate):
                raise RuntimeError(
                    f"{self.name}: engine exceeded its credit (write)"
                )

        if irq:
            self.st_irqs.inc()
            for handler in self._irq_handlers:
                handler(self.now)

    # -- checkpointing ----------------------------------------------------
