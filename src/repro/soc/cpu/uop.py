"""Micro-op stream representation consumed by the timing cores.

The paper boots Linux and runs real binaries; at laptop scale we replace
the ISA layer with deterministic µop streams produced by instrumented
workload generators (see DESIGN.md, substitutions table).  A µop is a
plain ``(kind, arg)`` tuple for speed:

* ``(ALU, latency)`` — integer/FP op completing after *latency* cycles;
* ``(LOAD, addr)`` / ``(STORE, addr)`` — 8-byte memory accesses;
* ``(BRANCH, mispredicted)`` — control; a mispredict stalls the front
  end for the core's restart penalty;
* ``(SLEEP, cycles)`` — models a timed sleep syscall: the core drains
  and idles for *cycles* cycles (used for the 1 ms separators in the
  paper's Fig. 5);
* ``(END, 0)`` — end of program.

A core reads its source up to one :data:`CHUNK` of µops ahead
(:class:`UopStream`) and a restore replays it from its start, so a
source must be a pure function of its parameters.  Every in-tree one is:
``sort_benchmark``, the NVDLA host's ``_loader_stream`` and the
interrupt-handler lists.  A kernel ``assert`` fires at read-ahead time.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

ALU = 0
LOAD = 1
STORE = 2
BRANCH = 3
SLEEP = 4
END = 5
FETCH = 6   # instruction-cache line fetch (front-end, non-committing)

Uop = tuple  # (kind, arg)


def alu(latency: int = 1) -> Uop:
    return (ALU, latency)


def load(addr: int) -> Uop:
    return (LOAD, addr)


def store(addr: int) -> Uop:
    return (STORE, addr)


def branch(mispredicted: bool = False) -> Uop:
    return (BRANCH, 1 if mispredicted else 0)


def sleep(cycles: int) -> Uop:
    return (SLEEP, cycles)


def fetch(line_addr: int) -> Uop:
    return (FETCH, line_addr)


END_UOP: Uop = (END, 0)
CHUNK = 256  # µops a stream reads from its source at once


class UopStream:
    """A µop source read a block at a time: ``block[pos]`` is the next
    µop, and a reader may take µops in place and store ``pos`` back.  A
    source ends by running out; the block is then ``[END_UOP]`` for good."""

    def __init__(self, source: Iterable[Uop]) -> None:
        self._it: Iterator[Uop] = iter(source)
        self._base = 0  # µops before ``block``
        self.block: list[Uop] = []
        self.pos = 0

    @property
    def consumed(self) -> int:  # µops taken, not the ones read ahead
        return self._base + self.pos

    def refill(self) -> list[Uop]:
        """Move past the whole block and read the next."""
        self._base += len(self.block)
        self.block = list(islice(self._it, CHUNK)) or [END_UOP]
        self.pos = 0
        return self.block

    def peek(self) -> Uop:
        if self.pos == len(self.block):
            self.refill()
        return self.block[self.pos]

    def pop(self) -> Uop:
        uop = self.peek()
        if uop[0] != END:
            self.pos += 1
        return uop

    def skip(self, n: int) -> None:
        """Move past *n* µops, or to the end of the source."""
        while n > 0 and self.peek()[0] != END:
            step = min(n, len(self.block) - self.pos)
            self.pos += step
            n -= step

    @property
    def exhausted(self) -> bool:
        return self.peek()[0] == END
