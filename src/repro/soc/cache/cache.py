"""Classic cache model: set-associative, write-back, MSHR-based.

Mirrors gem5's classic cache at the granularity the paper's experiments
need: hit/miss timing, a bounded MSHR file with target coalescing
(Table 1: 8–32 MSHRs per cache), write-back with dirty-victim traffic,
LRU replacement, and an optional prefetcher hook (the L2 carries a
stride prefetcher in Table 1).  This module is the tag-only write-back
policy; ports, tag array and MSHR file are :class:`.core.CacheCore`'s.

Timing/functional split: the cache tracks *tags only*; data always lives
in the functional backing store behind the memory controller.  Writes
are applied functionally when first accepted, reads fetch data
functionally when the response is produced.
"""

from __future__ import annotations

from typing import Optional

from ...trace.flags import debug_flag, tracepoint
from ..packet import MemCmd, Packet
from ..simobject import SimObject, Simulation
from .core import MSHR, CacheCore
from .sets import BLOCK

FLAG_CACHE = debug_flag("Cache", "cache accesses: hits, misses, fills")


class Cache(CacheCore):
    """A single cache level (used for L1I/L1D/L2 and the shared LLC)."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        size: int,
        assoc: int,
        latency_cycles: int,
        mshrs: int,
        parent: Optional[SimObject] = None,
        prefetcher: Optional["BasePrefetcher"] = None,
        writeback: bool = True,
    ) -> None:
        # a line of the tag array is its dirty bit
        super().__init__(sim, name, size, assoc, latency_cycles, mshrs,
                         parent)
        self.writeback = writeback
        self.prefetcher = prefetcher
        if prefetcher is not None:
            prefetcher.attach(self)
        # lines brought in by prefetch and not yet demanded
        self._prefetched: set[int] = set()

        #: callback fired on every demand miss (PMU event wiring)
        self.miss_listeners: list = []

    def _policy_stats(self, s) -> None:
        self.st_prefetches = s.scalar("prefetches", "prefetch fills issued")
        self.st_prefetch_hits = s.scalar("prefetch_hits", "hits on prefetched lines")

    # -- lookup helpers --------------------------------------------------------

    def contains(self, addr: int) -> bool:
        set_idx, tag = self._tags.split(addr)
        return tag in self._tags[set_idx]

    # -- request path -------------------------------------------------------------

    def _access(self, pkt: Packet) -> bool:
        """Tag/MSHR decisions happen at accept time; the lookup latency
        applies to when the response (or downstream fill) is sent."""
        block_addr = pkt.block_addr(BLOCK)
        set_idx, tag = self._tags.split(pkt.addr)
        tags = self._tags[set_idx]

        if pkt.cmd is MemCmd.WritebackDirty:
            # Absorb an upstream writeback: mark dirty if present, else
            # forward it toward memory (no allocation on writeback).
            if tag in tags:
                tags[tag] = True
                tags.move_to_end(tag)
            else:
                self._sched_after_lookup("wb_fwd", pkt)
            return True

        hit = tag in tags
        if (not hit and block_addr not in self._mshrs
                and len(self._mshrs) >= self.mshr_cap):
            return self._mshr_reject(pkt, "all MSHRs busy")

        # Writes update the functional image as soon as they are seen.
        if pkt.is_write and pkt.data is not None:
            self.mem_side.send_functional(
                Packet(MemCmd.WriteReq, pkt.addr, pkt.size, data=pkt.data,
                       requestor=self.name)
            )

        if hit:
            if FLAG_CACHE.enabled:
                tracepoint(
                    FLAG_CACHE, self.name, "hit %s #%d addr=%#x",
                    pkt.cmd.name, pkt.pkt_id, pkt.addr, tick=self.now,
                )
            tags.move_to_end(tag)  # LRU update
            self.st_hits.inc()
            if block_addr in self._prefetched:
                self._prefetched.discard(block_addr)
                self.st_prefetch_hits.inc()
            if pkt.is_write:
                tags[tag] = True
            self._sched_after_lookup("hit_resp", pkt)
            return True

        # Miss.
        if FLAG_CACHE.enabled:
            tracepoint(
                FLAG_CACHE, self.name, "miss %s #%d addr=%#x block=%#x",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, block_addr,
                tick=self.now,
            )
        self.st_misses.inc()
        for listener in self.miss_listeners:
            listener(pkt)
        if self.prefetcher is not None:
            self.prefetcher.notify_miss(pkt.addr)
        mshr = self._mshrs.get(block_addr)
        if mshr is not None:
            self._mshr_coalesce(mshr, pkt)
            if not pkt.is_read:
                mshr.is_prefetch = False
            return True
        mshr = self._mshr_allocate(block_addr)
        mshr.is_prefetch = pkt.cmd is MemCmd.PrefetchReq
        mshr.targets.append(pkt)
        self._sched_after_lookup("fill_req", self._fill_packet(block_addr))
        return True

    def _fill_packet(self, block_addr: int) -> Packet:
        fill = Packet(MemCmd.ReadReq, block_addr, BLOCK, requestor=self.name)
        fill.meta["fill_for"] = self.name
        return fill

    def issue_prefetch(self, addr: int) -> bool:
        """Bring a block in without an upstream requestor (prefetcher API)."""
        block_addr = (addr // BLOCK) * BLOCK
        if self.contains(block_addr) or block_addr in self._mshrs:
            return False
        if len(self._mshrs) >= self.mshr_cap:
            return False
        self._mshr_allocate(block_addr).is_prefetch = True
        self.st_prefetches.inc()
        self.mem_side.send(self._fill_packet(block_addr))
        return True

    # -- fill path -------------------------------------------------------------------

    def _recv_resp(self, pkt: Packet) -> bool:
        mshr = self._mshr_pop(pkt)
        if mshr is None:
            # A response to a forwarded (uncacheable/writeback) request.
            self.cpu_side.send(pkt)
            return True
        block_addr = mshr.block_addr
        if FLAG_CACHE.enabled:
            tracepoint(
                FLAG_CACHE, self.name,
                "fill block=%#x (%d targets%s)",
                block_addr, len(mshr.targets),
                ", prefetch" if mshr.is_prefetch else "",
                tick=self.now,
            )
        tags, tag = self._insert(block_addr, prefetched=mshr.is_prefetch)
        for target in mshr.targets:
            if target.is_write and tag in tags:
                tags[tag] = True
            self._respond(target)
        self._mshr_released()
        return True

    def _insert(self, block_addr: int, prefetched: bool):
        """Make *block_addr* resident; returns its set and its tag."""
        set_idx, tag = self._tags.split(block_addr)
        tags = self._tags[set_idx]
        if tag in tags:
            tags.move_to_end(tag)
            return tags, tag
        if len(tags) >= self._tags.assoc:
            victim_tag, dirty = tags.popitem(last=False)
            self.st_evictions.inc()
            victim_addr = self._tags.block_addr(set_idx, victim_tag)
            self._prefetched.discard(victim_addr)
            if dirty and self.writeback:
                self.st_writebacks.inc()
                self.mem_side.send(Packet(
                    MemCmd.WritebackDirty, victim_addr, BLOCK,
                    requestor=self.name,
                ))
        tags[tag] = False
        if prefetched:
            self._prefetched.add(block_addr)
        return tags, tag

    # -- upstream responses ----------------------------------------------------------------

    def _respond(self, pkt: Packet) -> None:
        if not pkt.needs_response:
            return
        if pkt.is_read:
            data_pkt = Packet(MemCmd.ReadReq, pkt.addr, pkt.size,
                              requestor=self.name)
            self.mem_side.send_functional(data_pkt)
            pkt.make_response(data_pkt.data)
        else:
            pkt.make_response()
        self.cpu_side.send(pkt)

    # -- introspection ------------------------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(ways) for _, ways in self._tags.occupied())

    # -- checkpointing -------------------------------------------------------------------------

    def ckpt_dispatch(self, kind: str, payload) -> None:
        if kind in ("wb_fwd", "fill_req"):
            self.mem_side.send(payload)
        elif kind == "hit_resp":
            self._respond(payload)
        else:
            super().ckpt_dispatch(kind, payload)

    def _mshr_policy_state(self, mshr: MSHR, ctx) -> dict:
        return {"is_prefetch": mshr.is_prefetch}

    def _mshr_load_policy(self, mshr: MSHR, state: dict, ctx) -> None:
        mshr.is_prefetch = state["is_prefetch"]

    def _line_codec(self, ctx):
        return "tags", (lambda dirty: (dirty,)), (lambda dirty: dirty)

    def serialize(self, ctx) -> dict:
        state = super().serialize(ctx)
        state["prefetched"] = sorted(self._prefetched)
        if self.prefetcher is not None:
            state["prefetcher"] = self.prefetcher.state_dict()
        return state

    def unserialize(self, state: dict, ctx) -> None:
        super().unserialize(state, ctx)
        self._prefetched = set(state["prefetched"])
        if self.prefetcher is not None:
            self.prefetcher.load_state(state["prefetcher"])


class BasePrefetcher:
    """Interface for prefetchers attachable to a :class:`Cache`."""

    def attach(self, cache: Cache) -> None:
        self.cache = cache

    def notify_miss(self, addr: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def state_dict(self) -> dict:
        return {}

    def load_state(self, state: dict) -> None:
        pass


class StridePrefetcher(BasePrefetcher):
    """Simple global stride prefetcher (Table 1: L2 stride prefetcher).

    Detects a repeated block-level stride over demand misses and issues
    ``degree`` prefetches ahead of the stream.
    """

    def __init__(self, degree: int = 2, confidence: int = 2) -> None:
        self.degree = degree
        self.confidence_needed = confidence
        self._last_block: Optional[int] = None
        self._stride: Optional[int] = None
        self._confidence = 0

    def notify_miss(self, addr: int) -> None:
        block = addr // BLOCK
        if self._last_block is not None:
            stride = block - self._last_block
            if stride != 0:
                if stride == self._stride:
                    self._confidence = min(
                        self._confidence + 1, self.confidence_needed
                    )
                else:
                    self._stride = stride
                    self._confidence = 1
        self._last_block = block
        if (
            self._stride is not None
            and self._confidence >= self.confidence_needed
        ):
            for i in range(1, self.degree + 1):
                target = (block + i * self._stride) * BLOCK
                if target >= 0:
                    self.cache.issue_prefetch(target)

    def state_dict(self) -> dict:
        return {
            "last_block": self._last_block,
            "stride": self._stride,
            "confidence": self._confidence,
        }

    def load_state(self, state: dict) -> None:
        self._last_block = state["last_block"]
        self._stride = state["stride"]
        self._confidence = state["confidence"]
