"""A multi-core sharing µop workload for the coherent-SoC tests.

Two classic coherence traffic shapes:

* **False sharing / ping-pong** — every core stores into *its own*
  8-byte word of the *same* cache lines.  No data is actually shared,
  but the line-granular protocol bounces each line M→I→M between the
  cores: every store is an upgrade or ReadEx miss, every neighbour read
  an intervention.  Per-core MPKI rises with the number of sharers even
  though each core's working set is constant.
* **Private mix** — interleaved accesses to a per-core private window,
  giving the protocol E/M fast paths so the stress is not 100 %
  pathological.

Generators are deterministic (no RNG): the same (core, cores, iters)
always emits the same µop stream.
"""

from __future__ import annotations

from typing import Iterator

from repro.soc.cpu.uop import Uop, alu, branch, load, store

#: shared window (distinct from the sorting workloads' arrays)
SHARED_BASE = 0x4_0000
PRIV_BASE = 0x10_0000
PRIV_STRIDE = 0x1_0000
PRIV_LINES = 8
LINE = 64


def false_sharing_uops(
    core: int,
    cores: int,
    iters: int = 400,
    shared_lines: int = 2,
) -> Iterator[Uop]:
    """Core *core* of *cores* ping-ponging ``shared_lines`` lines.

    Per iteration: read a neighbour's word of the shared line (pulls
    the line S, an intervention if the neighbour dirtied it), store
    into our own word (upgrade to M, invalidating everyone else), then
    a couple of private-window accesses.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    neighbour = (core + 1) % max(cores, 1)
    mine = core % 8
    theirs = neighbour % 8
    priv = PRIV_BASE + core * PRIV_STRIDE
    for it in range(iters):
        line_addr = SHARED_BASE + (it % shared_lines) * LINE
        yield load(line_addr + theirs * 8)
        yield alu(1)
        yield store(line_addr + mine * 8)
        yield branch(False)
        # private mix: mostly hits, an occasional conflict-miss walk
        paddr = priv + (it % PRIV_LINES) * LINE
        yield load(paddr)
        if it % 4 == core % 4:
            yield store(paddr + 8)
        yield alu(1)
