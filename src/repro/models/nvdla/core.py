"""Cycle-level NVDLA-class accelerator core.

The real NVDLA (nv_full: 2048 int8 MACs, 512 KiB convolution buffer) is
far too large to re-implement gate-by-gate here; per DESIGN.md we model
it at the cycle level with the *memory behaviour* the paper's DSE
depends on:

* layers are configured over CSB and started with a doorbell;
* weight + activation data streams in as 64-byte read bursts over the
  DBBIF (optionally SRAMIF) interface — the engine issues reads as fast
  as its credit inputs allow, which is where the paper's "maximum
  in-flight requests" knob bites;
* the MAC pipeline consumes arrived blocks *in order* at a per-workload
  arithmetic-intensity rate (cycles per 64 B block, in 1/16 cycle
  units — sanity3 is memory-intensive, GoogleNet's 3×3 conv does more
  compute per byte);
* every N consumed blocks one 64-byte output burst is written back;
* when all blocks are consumed and all writes acknowledged, the layer
  completes and the interrupt line pulses.

The engine is deliberately *backpressure-faithful*: it never generates
a request when the bridge reports no credit, so the in-flight cap set
on the RTLObject shapes the traffic exactly as the paper describes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Sequence

from ...soc.simobject import DEQUE, SORTED_SET, VALUE, Checkpointed, Codec

# -- CSB register map (byte offsets) ----------------------------------------

REG_ID = 0x00          # RO: identification
REG_STATUS = 0x04      # RO: bit0 = busy, bit1 = irq pending
REG_IRQ_CLEAR = 0x08   # WO: write 1 to clear irq pending
REG_IN_ADDR_LO = 0x10
REG_IN_ADDR_HI = 0x14
REG_W_ADDR_LO = 0x18
REG_W_ADDR_HI = 0x1C
REG_OUT_ADDR_LO = 0x20
REG_OUT_ADDR_HI = 0x24
REG_IN_BLOCKS = 0x28
REG_W_BLOCKS = 0x2C
REG_COMPUTE_X16 = 0x30   # compute cycles per 64B block, in 1/16 cycles
REG_BLOCKS_PER_OUT = 0x34
REG_SRAM_MODE = 0x38     # 1: fetch activations via SRAMIF
REG_OP_ENABLE = 0x3C     # WO: doorbell
REG_PERF_CYCLES = 0x40   # RO: busy cycles of last layer
REG_PERF_STALLS = 0x44   # RO: cycles stalled waiting for memory

NVDLA_ID_VALUE = 0x44_4C_41  # "DLA"

BLOCK = 64

#: hardware parameters of the modelled configuration (nv_full)
NV_FULL_MACS = 2048
NV_FULL_BUFFER_BYTES = 512 * 1024

#: request lanes per direction of the AXI-side struct: the most reads,
#: and the most writes, the engine may emit in one cycle
REQ_LANES = 4

#: one cycle's requests: reads as (seq, addr, port), write addresses, irq
StepResult = tuple[Sequence[tuple[int, int, int]], Sequence[int], int]

#: what :meth:`NVDLACore.step` returns while the engine is idle
_QUIET: StepResult = ((), (), 0)


@dataclass
class LayerConfig:
    """A layer as configured over CSB."""

    in_addr: int = 0
    w_addr: int = 0
    out_addr: int = 0
    in_blocks: int = 0
    w_blocks: int = 0
    compute_x16: int = 16        # 1.0 cycles per block
    blocks_per_out: int = 4
    sram_mode: int = 0

    @property
    def total_blocks(self) -> int:
        return self.in_blocks + self.w_blocks


#: a layer's configuration, as its fields
_LAYER = Codec(lambda v, ctx: asdict(v), lambda d, ctx, old: LayerConfig(**d))


class NVDLACore(Checkpointed):
    """The accelerator engine; stepped once per accelerator clock."""

    # _arrived is only tested and updated, never iterated
    ckpt_state = (
        ("cfg", _LAYER), ("busy", VALUE), ("irq_pending", VALUE),
        ("_next_read_seq", VALUE), ("_arrived", SORTED_SET),
        ("_consumed", VALUE), ("_compute_credit", VALUE),
        ("_compute_debt", VALUE), ("_writes_pending", DEQUE),
        ("_writes_issued", VALUE), ("_writes_acked", VALUE),
        ("_outputs_total", VALUE), ("_blocks_since_out", VALUE),
        ("perf_cycles", VALUE), ("perf_stalls", VALUE),
    )

    # internal write-queue depth before compute stalls on writes
    WRITE_QUEUE_DEPTH = 8
    # maximum read descriptors the engine exposes per cycle
    READS_PER_CYCLE = 2

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.cfg = LayerConfig()
        self.busy = False
        self.irq_pending = False
        # read stream state
        self._next_read_seq = 0       # next block index to request
        self._arrived: set[int] = set()
        self._consumed = 0            # blocks consumed so far
        self._compute_credit = 0      # accumulated 1/16-cycle credits
        self._compute_debt = 0        # credits needed for next block
        # write stream
        self._writes_pending: deque[int] = deque()  # output block indices
        self._writes_issued = 0
        self._writes_acked = 0
        self._outputs_total = 0
        self._blocks_since_out = 0
        # perf counters
        self.perf_cycles = 0
        self.perf_stalls = 0

    # -- CSB ---------------------------------------------------------------

    def csb_read(self, addr: int) -> int:
        cfg = self.cfg
        table = {
            REG_ID: NVDLA_ID_VALUE,
            REG_STATUS: (1 if self.busy else 0) | (2 if self.irq_pending else 0),
            REG_IN_ADDR_LO: cfg.in_addr & 0xFFFF_FFFF,
            REG_IN_ADDR_HI: cfg.in_addr >> 32,
            REG_W_ADDR_LO: cfg.w_addr & 0xFFFF_FFFF,
            REG_W_ADDR_HI: cfg.w_addr >> 32,
            REG_OUT_ADDR_LO: cfg.out_addr & 0xFFFF_FFFF,
            REG_OUT_ADDR_HI: cfg.out_addr >> 32,
            REG_IN_BLOCKS: cfg.in_blocks,
            REG_W_BLOCKS: cfg.w_blocks,
            REG_COMPUTE_X16: cfg.compute_x16,
            REG_BLOCKS_PER_OUT: cfg.blocks_per_out,
            REG_SRAM_MODE: cfg.sram_mode,
            REG_PERF_CYCLES: self.perf_cycles & 0xFFFF_FFFF,
            REG_PERF_STALLS: self.perf_stalls & 0xFFFF_FFFF,
        }
        return table.get(addr, 0)

    def csb_write(self, addr: int, value: int) -> None:
        cfg = self.cfg
        if addr == REG_IN_ADDR_LO:
            cfg.in_addr = (cfg.in_addr & ~0xFFFF_FFFF) | value
        elif addr == REG_IN_ADDR_HI:
            cfg.in_addr = (value << 32) | (cfg.in_addr & 0xFFFF_FFFF)
        elif addr == REG_W_ADDR_LO:
            cfg.w_addr = (cfg.w_addr & ~0xFFFF_FFFF) | value
        elif addr == REG_W_ADDR_HI:
            cfg.w_addr = (value << 32) | (cfg.w_addr & 0xFFFF_FFFF)
        elif addr == REG_OUT_ADDR_LO:
            cfg.out_addr = (cfg.out_addr & ~0xFFFF_FFFF) | value
        elif addr == REG_OUT_ADDR_HI:
            cfg.out_addr = (value << 32) | (cfg.out_addr & 0xFFFF_FFFF)
        elif addr == REG_IN_BLOCKS:
            cfg.in_blocks = value
        elif addr == REG_W_BLOCKS:
            cfg.w_blocks = value
        elif addr == REG_COMPUTE_X16:
            cfg.compute_x16 = max(1, value)
        elif addr == REG_BLOCKS_PER_OUT:
            cfg.blocks_per_out = max(1, value)
        elif addr == REG_SRAM_MODE:
            cfg.sram_mode = value & 1
        elif addr == REG_IRQ_CLEAR:
            if value & 1:
                self.irq_pending = False
        elif addr == REG_OP_ENABLE:
            if value & 1:
                self._start_layer()

    def _start_layer(self) -> None:
        if self.cfg.total_blocks == 0:
            raise ValueError("doorbell with zero blocks configured")
        self.busy = True
        self._next_read_seq = 0
        self._arrived.clear()
        self._consumed = 0
        self._compute_credit = 0
        self._compute_debt = self.cfg.compute_x16
        self._writes_pending.clear()
        self._writes_issued = 0
        self._writes_acked = 0
        self._outputs_total = 0
        self._blocks_since_out = 0
        self.perf_cycles = 0
        self.perf_stalls = 0

    @property
    def consumed(self) -> int:
        """Blocks of the current layer the MAC pipeline has consumed."""
        return self._consumed

    # -- address generation -----------------------------------------------------

    def _block_addr(self, seq: int) -> tuple[int, int]:
        """Map stream position to (address, port): weights first, then
        activations; activations may ride the SRAMIF (port 1)."""
        cfg = self.cfg
        if seq < cfg.w_blocks:
            return cfg.w_addr + seq * BLOCK, 0
        in_seq = seq - cfg.w_blocks
        port = 1 if cfg.sram_mode else 0
        return cfg.in_addr + in_seq * BLOCK, port

    # -- the cycle -------------------------------------------------------------------

    def step(
        self,
        credit: int,
        rd_resp_seqs: Sequence[int],
        wr_acks: int,
    ) -> StepResult:
        """Advance one accelerator cycle.

        Parameters mirror the input struct: how many new memory requests
        (reads *or* writes — they share the in-flight budget) the bridge
        will accept this cycle, which read responses arrived (by
        sequence tag), and how many write acks arrived.

        Returns ``(reads, writes, irq)``: read requests as
        ``(seq, addr, port)``, write request addresses — at most
        :data:`REQ_LANES` of each, what the output struct can carry —
        and the irq pulse.  Output writes are drained before new reads
        are issued so the write queue can never wedge the pipeline.
        """
        if rd_resp_seqs:
            self._arrived.update(rd_resp_seqs)
        self._writes_acked += wr_acks
        if not self.busy:
            return _QUIET

        out_reads: list[tuple[int, int, int]] = []
        out_writes: list[int] = []
        irq = 0
        self.perf_cycles += 1
        cfg = self.cfg
        total_blocks = cfg.total_blocks
        budget = credit

        # 1) drain output writes first (they unblock compute)
        while (
            self._writes_pending
            and budget > 0
            and len(out_writes) < REQ_LANES
        ):
            out_idx = self._writes_pending.popleft()
            out_writes.append(cfg.out_addr + out_idx * BLOCK)
            self._writes_issued += 1
            budget -= 1

        # 2) issue new read requests
        issued = 0
        while (
            budget > 0
            and issued < self.READS_PER_CYCLE
            and self._next_read_seq < total_blocks
        ):
            addr, port = self._block_addr(self._next_read_seq)
            out_reads.append((self._next_read_seq, addr, port))
            self._next_read_seq += 1
            issued += 1
            budget -= 1

        # 3) compute: consume arrived blocks in order
        self._compute_credit += 16
        progressed = False
        while (
            self._compute_credit >= self._compute_debt
            and self._consumed < total_blocks
            and self._consumed in self._arrived
            and len(self._writes_pending) < self.WRITE_QUEUE_DEPTH
        ):
            self._compute_credit -= self._compute_debt
            self._arrived.discard(self._consumed)
            self._consumed += 1
            progressed = True
            self._blocks_since_out += 1
            if (
                self._blocks_since_out >= cfg.blocks_per_out
                or self._consumed == total_blocks
            ):
                self._writes_pending.append(self._outputs_total)
                self._outputs_total += 1
                self._blocks_since_out = 0
        if (
            not progressed
            and self._consumed < total_blocks
            and self._compute_credit >= self._compute_debt
        ):
            # compute was ready but data (or write space) was not
            self.perf_stalls += 1
            # credits don't bank while stalled on memory
            self._compute_credit = min(self._compute_credit, 16 * 4)

        # 4) completion
        if (
            self._consumed == total_blocks
            and not self._writes_pending
            and self._writes_acked >= self._writes_issued
        ):
            self.busy = False
            self.irq_pending = True
            irq = 1

        return out_reads, out_writes, irq
