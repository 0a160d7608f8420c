"""Sparse functional backing store for physical memory.

Timing and functional state are split, as in gem5's classic memory
system: caches and controllers model *timing* over addresses, while data
lives here and is accessed functionally (trace loading, NVDLA reads and
writes, result checking).
"""

from __future__ import annotations

from ..simobject import FRAMES, Checkpointed, fixed

FRAME_BITS = 12
FRAME_SIZE = 1 << FRAME_BITS


class PhysicalMemory(Checkpointed):
    """A byte-addressable sparse memory (4 KiB frames, zero-filled),
    checkpointed as a Simulation "extra"."""

    ckpt_state = (("size", fixed("physmem size {built:#x} != checkpointed "
                                 "{saved:#x}")),
                  ("_frames", FRAMES))

    def __init__(self, size: int = 1 << 40) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self._frames: dict[int, bytearray] = {}

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise ValueError(
                f"access [{addr:#x}, {addr + length:#x}) outside memory "
                f"of size {self.size:#x}"
            )

    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            frame_no = (addr + pos) >> FRAME_BITS
            offset = (addr + pos) & (FRAME_SIZE - 1)
            chunk = min(length - pos, FRAME_SIZE - offset)
            frame = self._frames.get(frame_no)
            if frame is not None:
                out[pos : pos + chunk] = frame[offset : offset + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        pos = 0
        length = len(data)
        while pos < length:
            frame_no = (addr + pos) >> FRAME_BITS
            offset = (addr + pos) & (FRAME_SIZE - 1)
            chunk = min(length - pos, FRAME_SIZE - offset)
            frame = self._frames.get(frame_no)
            if frame is None:
                frame = bytearray(FRAME_SIZE)
                self._frames[frame_no] = frame
            frame[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk

    def read_word(self, addr: int, size: int = 8) -> int:
        return int.from_bytes(self.read(addr, size), "little")

    def write_word(self, addr: int, value: int, size: int = 8) -> None:
        self.write(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))
