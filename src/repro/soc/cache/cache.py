"""Classic cache model: set-associative, write-back, MSHR-based.

Mirrors gem5's classic cache at the granularity the paper's experiments
need: hit/miss timing, a bounded MSHR file with target coalescing
(Table 1: 8–32 MSHRs per cache), write-back with dirty-victim traffic,
LRU replacement, and an optional prefetcher hook (the L2 carries a
stride prefetcher in Table 1).

Timing/functional split: the cache tracks *tags only*; data always lives
in the functional backing store behind the memory controller.  Writes
are applied functionally when first accepted, reads fetch data
functionally when the response is produced.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ...trace import packets as pkttrace
from ...trace.flags import debug_flag, tracepoint
from ..event import EventPriority
from ..packet import MemCmd, Packet
from ..ports import RequestPort, ResponsePort
from ..simobject import SimObject, Simulation
from .sets import SparseSets

BLOCK = 64

FLAG_CACHE = debug_flag("Cache", "cache accesses: hits, misses, fills")
FLAG_MSHR = debug_flag(
    "Cache.MSHR", "MSHR allocation, coalescing and capacity rejects"
)


class MSHR:
    """One outstanding block fill plus its coalesced targets."""

    __slots__ = ("block_addr", "targets", "is_prefetch", "issued_tick")

    def __init__(self, block_addr: int, is_prefetch: bool, now: int) -> None:
        self.block_addr = block_addr
        self.targets: list[Packet] = []
        self.is_prefetch = is_prefetch
        self.issued_tick = now


class Cache(SimObject):
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
        super().__init__(sim, name, parent)
        if size % (assoc * BLOCK) != 0:
            raise ValueError(
                f"{name}: size {size} not divisible by assoc*block "
                f"({assoc}*{BLOCK})"
            )
        self.size = size
        self.assoc = assoc
        self.latency_cycles = latency_cycles
        self.num_sets = size // (assoc * BLOCK)
        self.mshr_cap = mshrs
        self.writeback = writeback
        self.prefetcher = prefetcher
        if prefetcher is not None:
            prefetcher.attach(self)

        # tags[set] = OrderedDict(tag -> dirty); LRU order = insertion order
        self._tags = SparseSets(self.num_sets, assoc)
        self._mshrs: dict[int, MSHR] = {}

        self.cpu_side = ResponsePort(
            f"{name}.cpu_side",
            recv_timing_req=self._recv_req,
            recv_resp_retry=self._resp_retry,
            recv_functional=self._functional,
        )
        self.mem_side = RequestPort(
            f"{name}.mem_side",
            recv_timing_resp=self._recv_fill,
            recv_req_retry=self._req_retry,
        )
        self._downstream_q: deque[Packet] = deque()
        self._blocked_resps: deque[Packet] = deque()
        self._need_retry = False

        s = self.stats
        self.st_hits = s.scalar("hits", "demand hits")
        self.st_misses = s.scalar("misses", "demand misses")
        self.st_coalesced = s.scalar("mshr_hits", "misses coalesced into MSHRs")
        self.st_evictions = s.scalar("evictions", "lines evicted")
        self.st_writebacks = s.scalar("writebacks", "dirty lines written back")
        self.st_mshr_rejects = s.scalar("mshr_rejects", "requests rejected: MSHRs full")
        self.st_prefetches = s.scalar("prefetches", "prefetch fills issued")
        self.st_prefetch_hits = s.scalar("prefetch_hits", "hits on prefetched lines")
        self.st_miss_latency = s.distribution(
            "miss_latency_cycles", 0, 1000, 25, "demand miss latency"
        )
        # lines brought in by prefetch and not yet demanded
        self._prefetched: set[int] = set()

        #: callback fired on every demand miss (PMU event wiring)
        self.miss_listeners: list = []

    # -- lookup helpers --------------------------------------------------------

    def _set_and_tag(self, addr: int) -> tuple[int, int]:
        block = addr // BLOCK
        return block % self.num_sets, block // self.num_sets

    def lookup(self, addr: int) -> bool:
        set_idx, tag = self._set_and_tag(addr)
        tags = self._tags[set_idx]
        if tag in tags:
            tags.move_to_end(tag)
            return True
        return False

    def contains(self, addr: int) -> bool:
        set_idx, tag = self._set_and_tag(addr)
        return tag in self._tags[set_idx]

    # -- request path -------------------------------------------------------------

    def _recv_req(self, pkt: Packet) -> bool:
        """Tag/MSHR decisions happen at accept time; the lookup latency
        applies to when the response (or downstream fill) is sent."""
        if pkt.addr // BLOCK != (pkt.addr + pkt.size - 1) // BLOCK:
            raise ValueError(
                f"{self.name}: request {pkt!r} crosses a cache-line boundary"
            )
        block_addr = pkt.block_addr(BLOCK)
        delay = self.clock.cycles_to_ticks(self.latency_cycles)
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)

        if pkt.cmd is MemCmd.WritebackDirty:
            # Absorb an upstream writeback: mark dirty if present, else
            # forward it toward memory (no allocation on writeback).
            set_idx, tag = self._set_and_tag(pkt.addr)
            if tag in self._tags[set_idx]:
                self._tags[set_idx][tag] = True
                self._tags[set_idx].move_to_end(tag)
            else:
                self.sched_ckpt(
                    "wb_fwd", pkt, self.now + delay,
                    EventPriority.DEFAULT, name=f"{self.name}.wb_fwd",
                )
            return True

        hit = self.contains(pkt.addr)
        if not hit and block_addr not in self._mshrs:
            if len(self._mshrs) >= self.mshr_cap:
                self.st_mshr_rejects.inc()
                self._need_retry = True
                if FLAG_MSHR.enabled:
                    tracepoint(
                        FLAG_MSHR, self.name,
                        "reject %s addr=%#x: all %d MSHRs busy",
                        pkt.cmd.name, pkt.addr, self.mshr_cap,
                        tick=self.now,
                    )
                return False

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
            self.lookup(pkt.addr)  # LRU update
            self.st_hits.inc()
            if block_addr in self._prefetched:
                self._prefetched.discard(block_addr)
                self.st_prefetch_hits.inc()
            if pkt.is_write:
                set_idx, tag = self._set_and_tag(pkt.addr)
                self._tags[set_idx][tag] = True
            self.sched_ckpt(
                "hit_resp", pkt, self.now + delay,
                EventPriority.DEFAULT, name=f"{self.name}.hit_resp",
            )
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
            self.st_coalesced.inc()
            if FLAG_MSHR.enabled:
                tracepoint(
                    FLAG_MSHR, self.name,
                    "coalesce #%d into MSHR block=%#x (%d targets)",
                    pkt.pkt_id, block_addr, len(mshr.targets) + 1,
                    tick=self.now,
                )
            mshr.targets.append(pkt)
            if not pkt.is_read:
                mshr.is_prefetch = False
            return True
        mshr = MSHR(block_addr, pkt.cmd is MemCmd.PrefetchReq, self.now)
        mshr.targets.append(pkt)
        self._mshrs[block_addr] = mshr
        if FLAG_MSHR.enabled:
            tracepoint(
                FLAG_MSHR, self.name,
                "allocate MSHR block=%#x (%d/%d busy)",
                block_addr, len(self._mshrs), self.mshr_cap, tick=self.now,
            )
        fill = Packet(MemCmd.ReadReq, block_addr, BLOCK, requestor=self.name)
        fill.meta["fill_for"] = self.name
        self.sched_ckpt(
            "fill_req", fill, self.now + delay,
            EventPriority.DEFAULT, name=f"{self.name}.fill_req",
        )
        return True

    def issue_prefetch(self, addr: int) -> bool:
        """Bring a block in without an upstream requestor (prefetcher API)."""
        block_addr = (addr // BLOCK) * BLOCK
        if self.contains(block_addr) or block_addr in self._mshrs:
            return False
        if len(self._mshrs) >= self.mshr_cap:
            return False
        mshr = MSHR(block_addr, True, self.now)
        self._mshrs[block_addr] = mshr
        self.st_prefetches.inc()
        fill = Packet(MemCmd.ReadReq, block_addr, BLOCK, requestor=self.name)
        fill.meta["fill_for"] = self.name
        self._send_downstream(fill)
        return True

    # -- fill path -------------------------------------------------------------------

    def _recv_fill(self, pkt: Packet) -> bool:
        block_addr = pkt.block_addr(BLOCK)
        mshr = self._mshrs.pop(block_addr, None)
        if mshr is None:
            # A response to a forwarded (uncacheable/writeback) request.
            self._respond(pkt, already_response=True)
            return True
        if FLAG_CACHE.enabled:
            tracepoint(
                FLAG_CACHE, self.name,
                "fill block=%#x (%d targets%s)",
                block_addr, len(mshr.targets),
                ", prefetch" if mshr.is_prefetch else "",
                tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled and pkt.hops:
            # the cache-issued fill request terminates here
            pkttrace.finish(pkt, self.sim, self.now, self.name)
        self._insert(block_addr, prefetched=mshr.is_prefetch)
        latency = (self.now - mshr.issued_tick) // self.clock.period
        if not mshr.is_prefetch:
            self.st_miss_latency.sample(latency)
        for target in mshr.targets:
            if target.is_write:
                set_idx, tag = self._set_and_tag(target.addr)
                if tag in self._tags[set_idx]:
                    self._tags[set_idx][tag] = True
            self._respond(target)
        if self._need_retry:
            self._need_retry = False
            self.cpu_side.send_retry_req()
        return True

    def _insert(self, block_addr: int, prefetched: bool) -> None:
        set_idx, tag = self._set_and_tag(block_addr)
        tags = self._tags[set_idx]
        if tag in tags:
            tags.move_to_end(tag)
            return
        if len(tags) >= self.assoc:
            victim_tag, dirty = tags.popitem(last=False)
            self.st_evictions.inc()
            victim_addr = (victim_tag * self.num_sets + set_idx) * BLOCK
            self._prefetched.discard(victim_addr)
            if dirty and self.writeback:
                self.st_writebacks.inc()
                wb = Packet(
                    MemCmd.WritebackDirty, victim_addr, BLOCK,
                    requestor=self.name,
                )
                self._send_downstream(wb)
        tags[tag] = False
        if prefetched:
            self._prefetched.add(block_addr)

    # -- downstream with retry ----------------------------------------------------------

    def _send_downstream(self, pkt: Packet) -> None:
        if self._downstream_q or not self.mem_side.send_timing_req(pkt):
            self._downstream_q.append(pkt)

    def _req_retry(self) -> None:
        while self._downstream_q:
            pkt = self._downstream_q.popleft()
            if not self.mem_side.send_timing_req(pkt):
                self._downstream_q.appendleft(pkt)
                return

    # -- upstream responses ----------------------------------------------------------------

    def _respond(self, pkt: Packet, already_response: bool = False) -> None:
        if not already_response:
            if not pkt.needs_response:
                return
            if pkt.is_read:
                data_pkt = Packet(MemCmd.ReadReq, pkt.addr, pkt.size,
                                  requestor=self.name)
                self.mem_side.send_functional(data_pkt)
                pkt.make_response(data_pkt.data)
            else:
                pkt.make_response()
        if self._blocked_resps or not self.cpu_side.send_timing_resp(pkt):
            self._blocked_resps.append(pkt)

    def _resp_retry(self) -> None:
        while self._blocked_resps:
            pkt = self._blocked_resps.popleft()
            if not self.cpu_side.send_timing_resp(pkt):
                self._blocked_resps.appendleft(pkt)
                return

    # -- functional ------------------------------------------------------------------------

    def _functional(self, pkt: Packet) -> None:
        self.mem_side.send_functional(pkt)

    # -- introspection ------------------------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(ways) for _, ways in self._tags.occupied())

    def mshr_occupancy(self) -> int:
        return len(self._mshrs)

    # -- checkpointing -------------------------------------------------------------------------

    def ckpt_dispatch(self, kind: str, payload) -> None:
        if kind in ("wb_fwd", "fill_req"):
            self._send_downstream(payload)
        elif kind == "hit_resp":
            self._respond(payload)
        else:
            super().ckpt_dispatch(kind, payload)

    def serialize(self, ctx) -> dict:
        state = {
            "tags": self._tags.state(lambda dirty: (dirty,)),
            "mshrs": [
                {
                    "block_addr": mshr.block_addr,
                    "targets": [ctx.pack(t) for t in mshr.targets],
                    "is_prefetch": mshr.is_prefetch,
                    "issued_tick": mshr.issued_tick,
                }
                for mshr in self._mshrs.values()
            ],
            "downstream_q": [ctx.pack(p) for p in self._downstream_q],
            "blocked_resps": [ctx.pack(p) for p in self._blocked_resps],
            "need_retry": self._need_retry,
            "prefetched": sorted(self._prefetched),
        }
        if self.prefetcher is not None:
            state["prefetcher"] = self.prefetcher.state_dict()
        return state

    def unserialize(self, state: dict, ctx) -> None:
        self._tags.load(
            state["tags"], lambda dirty: dirty, f"{self.path()}.tags"
        )
        self._mshrs = {}
        for mstate in state["mshrs"]:
            mshr = MSHR(mstate["block_addr"], mstate["is_prefetch"],
                        mstate["issued_tick"])
            mshr.targets = [ctx.unpack(t) for t in mstate["targets"]]
            self._mshrs[mstate["block_addr"]] = mshr
        self._downstream_q = deque(
            ctx.unpack(p) for p in state["downstream_q"]
        )
        self._blocked_resps = deque(
            ctx.unpack(p) for p in state["blocked_resps"]
        )
        self._need_retry = state["need_retry"]
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
