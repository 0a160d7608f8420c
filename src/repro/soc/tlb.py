"""TLB / address translation object.

The paper's RTLObject provides "functionality to connect to a TLB object
for address translation … an existing object in the SoC or one
specifically added to be used by the integrated RTL model".  This is
that object: a software-walked page table fronted by a small
fully-associative TLB with LRU replacement and per-miss walk latency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..trace.flags import debug_flag, tracepoint
from .simobject import PAIRS, SORTED_PAIRS, Checkpointed, SimObject, Simulation

FLAG_TLB = debug_flag("TLB", "TLB lookups: hits, walks, fallbacks")


class PageTable(Checkpointed):
    """Flat virtual→physical page map (identity-mapped by default).

    Checkpointed as a Simulation "extra"."""

    ckpt_state = (("_map", SORTED_PAIRS),)

    def __init__(self, page_bits: int = 12) -> None:
        self.page_bits = page_bits
        self.page_size = 1 << page_bits
        self._map: dict[int, int] = {}

    def map(self, vaddr: int, paddr: int, size: int) -> None:
        """Map [vaddr, vaddr+size) to [paddr, paddr+size), page-aligned."""
        if vaddr % self.page_size or paddr % self.page_size:
            raise ValueError("mappings must be page-aligned")
        npages = (size + self.page_size - 1) // self.page_size
        for i in range(npages):
            self._map[(vaddr >> self.page_bits) + i] = (
                (paddr >> self.page_bits) + i
            )

    def lookup(self, vaddr: int) -> Optional[int]:
        vpn = vaddr >> self.page_bits
        ppn = self._map.get(vpn)
        if ppn is None:
            return None
        return (ppn << self.page_bits) | (vaddr & (self.page_size - 1))


class TLB(SimObject):
    """Small fully-associative TLB with an LRU stack and a walk cost."""

    # [vpn, ppn] pairs in LRU order
    ckpt_state = (("_tlb", PAIRS),)

    def __init__(
        self,
        sim: Simulation,
        name: str,
        page_table: Optional[PageTable] = None,
        entries: int = 64,
        walk_cycles: int = 20,
        parent: Optional[SimObject] = None,
        identity_fallback: bool = True,
    ) -> None:
        super().__init__(sim, name, parent)
        self.page_table = page_table or PageTable()
        self.entries = entries
        self.walk_cycles = walk_cycles
        #: unmapped addresses translate to themselves (bare-metal style)
        self.identity_fallback = identity_fallback
        self._tlb: OrderedDict[int, int] = OrderedDict()
        self.hits = self.stats.scalar("hits", "TLB hits")
        self.misses = self.stats.scalar("misses", "TLB misses (walks)")

    def translate(self, vaddr: int) -> tuple[int, int]:
        """Translate *vaddr*; returns ``(paddr, extra_latency_cycles)``."""
        page_bits = self.page_table.page_bits
        vpn = vaddr >> page_bits
        offset = vaddr & (self.page_table.page_size - 1)
        if vpn in self._tlb:
            self._tlb.move_to_end(vpn)
            self.hits.inc()
            paddr = (self._tlb[vpn] << page_bits) | offset
            if FLAG_TLB.enabled:
                tracepoint(
                    FLAG_TLB, self.name, "hit vaddr=%#x -> paddr=%#x",
                    vaddr, paddr, tick=self.sim.now,
                )
            return paddr, 0
        self.misses.inc()
        paddr = self.page_table.lookup(vaddr)
        if paddr is None:
            if not self.identity_fallback:
                raise KeyError(f"unmapped virtual address {vaddr:#x}")
            paddr = vaddr
        if FLAG_TLB.enabled:
            tracepoint(
                FLAG_TLB, self.name,
                "miss vaddr=%#x -> paddr=%#x (walk %d cycles)",
                vaddr, paddr, self.walk_cycles, tick=self.sim.now,
            )
        self._tlb[vpn] = paddr >> page_bits
        if len(self._tlb) > self.entries:
            self._tlb.popitem(last=False)
        return paddr, self.walk_cycles

    def flush(self) -> None:
        self._tlb.clear()
