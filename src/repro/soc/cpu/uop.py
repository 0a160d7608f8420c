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
"""

from __future__ import annotations

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


class UopStream:
    """Buffered iterator over µops with one-element lookahead."""

    def __init__(self, source: Iterable[Uop]) -> None:
        self._it: Iterator[Uop] = iter(source)
        self._next: Uop | None = None
        self.consumed = 0

    def peek(self) -> Uop:
        if self._next is None:
            self._next = next(self._it, END_UOP)
        return self._next

    def pop(self) -> Uop:
        uop = self.peek()
        self._next = None
        if uop[0] != END:
            self.consumed += 1
        return uop

    @property
    def exhausted(self) -> bool:
        return self.peek()[0] == END

