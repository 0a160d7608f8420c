"""NVDLA traces: register-write command streams plus memory images.

The paper's user-level application "loads an NVDLA trace into main
memory, containing instructions and data, and then signals the
accelerator to start execution and waits until the accelerator
finishes."  A :class:`Trace` is exactly that: a memory image (input
activations + weights) and a command stream (CSB register writes,
doorbells and interrupt waits) generated from layer descriptions.

Traces serialise to a compact binary so they can genuinely be placed in
simulated memory and so their size is a meaningful proxy for the
load-time cost Table 3 talks about.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import core as nvreg

MAGIC = 0x4E56_4441  # "NVDA"

OP_REG_WRITE = 1
OP_WAIT_IRQ = 2


@dataclass(frozen=True)
class RegWrite:
    addr: int
    value: int


@dataclass(frozen=True)
class WaitIrq:
    pass


@dataclass
class LayerDesc:
    """One layer of work, in memory-stream terms (see core.py)."""

    in_addr: int
    w_addr: int
    out_addr: int
    in_blocks: int
    w_blocks: int
    compute_x16: int
    blocks_per_out: int
    sram_mode: int = 0

    def commands(self) -> list:
        r = nvreg
        return [
            RegWrite(r.REG_IN_ADDR_LO, self.in_addr & 0xFFFF_FFFF),
            RegWrite(r.REG_IN_ADDR_HI, self.in_addr >> 32),
            RegWrite(r.REG_W_ADDR_LO, self.w_addr & 0xFFFF_FFFF),
            RegWrite(r.REG_W_ADDR_HI, self.w_addr >> 32),
            RegWrite(r.REG_OUT_ADDR_LO, self.out_addr & 0xFFFF_FFFF),
            RegWrite(r.REG_OUT_ADDR_HI, self.out_addr >> 32),
            RegWrite(r.REG_IN_BLOCKS, self.in_blocks),
            RegWrite(r.REG_W_BLOCKS, self.w_blocks),
            RegWrite(r.REG_COMPUTE_X16, self.compute_x16),
            RegWrite(r.REG_BLOCKS_PER_OUT, self.blocks_per_out),
            RegWrite(r.REG_SRAM_MODE, self.sram_mode),
            RegWrite(r.REG_OP_ENABLE, 1),
            WaitIrq(),
            RegWrite(r.REG_IRQ_CLEAR, 1),
        ]


@dataclass
class Trace:
    """A complete accelerator workload."""

    name: str
    layers: list[LayerDesc] = field(default_factory=list)
    mem_image: list[tuple[int, bytes]] = field(default_factory=list)

    def commands(self) -> list:
        out: list = []
        for layer in self.layers:
            out.extend(layer.commands())
        return out

    # -- size accounting -----------------------------------------------------

    def total_read_blocks(self) -> int:
        return sum(l.in_blocks + l.w_blocks for l in self.layers)

    def total_write_blocks(self) -> int:
        return sum(
            -(-(l.in_blocks + l.w_blocks) // l.blocks_per_out)
            for l in self.layers
        )

    # -- binary serialisation ---------------------------------------------------

    def serialize(self) -> bytes:
        """Pack the command stream (the 'instructions' part of the trace)."""
        cmds = self.commands()
        out = bytearray(struct.pack("<IHI", MAGIC, 1, len(cmds)))
        for cmd in cmds:
            if isinstance(cmd, RegWrite):
                out += struct.pack("<BII", OP_REG_WRITE, cmd.addr, cmd.value)
            elif isinstance(cmd, WaitIrq):
                out += struct.pack("<BII", OP_WAIT_IRQ, 0, 0)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown command {cmd!r}")
        return bytes(out)

    @staticmethod
    def deserialize_commands(data: bytes) -> list:
        magic, version, count = struct.unpack_from("<IHI", data, 0)
        if magic != MAGIC:
            raise ValueError(f"bad trace magic {magic:#x}")
        if version != 1:
            raise ValueError(f"unsupported trace version {version}")
        cmds: list = []
        offset = struct.calcsize("<IHI")
        for _ in range(count):
            op, addr, value = struct.unpack_from("<BII", data, offset)
            offset += struct.calcsize("<BII")
            if op == OP_REG_WRITE:
                cmds.append(RegWrite(addr, value))
            elif op == OP_WAIT_IRQ:
                cmds.append(WaitIrq())
            else:
                raise ValueError(f"unknown opcode {op}")
        return cmds

    def relocate(self, offset: int) -> "Trace":
        """A copy of this trace with all data addresses shifted by *offset*
        (used to give each NVDLA instance its own copy of the workload)."""
        layers = [
            LayerDesc(
                l.in_addr + offset, l.w_addr + offset, l.out_addr + offset,
                l.in_blocks, l.w_blocks, l.compute_x16, l.blocks_per_out,
                l.sram_mode,
            )
            for l in self.layers
        ]
        image = [(addr + offset, data) for addr, data in self.mem_image]
        return Trace(self.name, layers, image)
