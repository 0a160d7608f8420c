"""What every MSHR-based cache is before its policy.

:class:`CacheCore` is what :class:`~repro.soc.cache.cache.Cache` (tags
only, write-back, prefetcher) and
:class:`~repro.coherence.l1.CoherentL1Cache` (MESI, line data, grants
and snoops) have in common: the tag array and its geometry, the two
timing ports (a refused packet waits in ``port.queue``), the accept
prologue, a bounded MSHR file with target coalescing (Table 1: 8–32
MSHRs per cache), the shared statistics and their checkpoint.  A policy
decides what a line holds and provides

* ``_access(pkt) -> bool``: what a request means — or ``False``, refused;
* ``_recv_resp(pkt) -> bool``: what a response from below completes;
* ``_policy_stats(group)``: its own statistics;
* ``_line_codec(ctx) -> (key, pack, unpack)``: the tag array's key in a
  checkpoint and how a line is written and rebuilt;
* ``_mshr_policy_state(mshr, ctx)`` / ``_mshr_load_policy(mshr, state,
  ctx)``: its MSHR fields in a checkpoint;
* on a snooping bus, ``_recv_snoop(pkt)``.
"""

from __future__ import annotations

from typing import Optional

from ...trace import packets as pkttrace
from ...trace.flags import debug_flag, tracepoint
from ..packet import Packet
from ..ports import RequestPort, ResponsePort
from ..simobject import SimObject, Simulation
from .sets import BLOCK, SparseSets

FLAG_MSHR = debug_flag(
    "Cache.MSHR", "MSHR allocation, coalescing and capacity rejects"
)


class MSHR:
    """One outstanding block miss and the packets waiting on it.

    ``is_prefetch`` marks a fill nobody has demanded yet (no demand
    latency to sample).  The last three fields are the MESI policy's and
    the file never reads them: what the miss asked the directory for
    (``cmd``) and, between the express grant and its timing echo
    (``granted``), the ``[packet, data]`` pairs captured at the grant
    (``ready``).
    """

    __slots__ = ("block_addr", "targets", "issued_tick",
                 "is_prefetch", "cmd", "ready", "granted")

    def __init__(self, block_addr: int, now: int) -> None:
        self.block_addr = block_addr
        self.targets: list[Packet] = []
        self.issued_tick = now
        self.is_prefetch = False
        self.cmd = None
        self.ready: list = []
        self.granted = False

    def waiting(self) -> list[Packet]:
        """Every packet this miss still owes a response."""
        return self.targets + [pkt for pkt, _data in self.ready]


class CacheCore(SimObject):
    """Tag array, ports, MSHR file and shared stats of one cache."""

    _recv_snoop = None  # no snoop handler unless the policy has one

    def __init__(
        self,
        sim: Simulation,
        name: str,
        size: int,
        assoc: int,
        latency_cycles: int,
        mshrs: int,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.latency_cycles = latency_cycles
        self.mshr_cap = mshrs

        # tags[set] = OrderedDict(tag -> line), LRU first; what a line is
        # (a dirty bit, state + bytes) is the policy's
        self._tags = SparseSets.sized(name, size, assoc)
        self.num_sets = self._tags.num_sets
        self._mshrs: dict[int, MSHR] = {}
        # a request was refused for want of an MSHR: retry on release
        self._need_retry = False

        self.cpu_side = ResponsePort(
            f"{name}.cpu_side",
            recv_timing_req=self._recv_req,
            recv_functional=self._functional,
        )
        self.mem_side = RequestPort(
            f"{name}.mem_side",
            recv_timing_resp=self._recv_resp,
            recv_snoop=self._recv_snoop,
        )

        s = self.stats
        self.st_hits = s.scalar("hits", "demand hits")
        self.st_misses = s.scalar("misses", "demand misses")
        self.st_coalesced = s.scalar("mshr_hits", "misses coalesced into MSHRs")
        self.st_evictions = s.scalar("evictions", "lines evicted")
        self.st_writebacks = s.scalar("writebacks", "dirty lines written back")
        self.st_mshr_rejects = s.scalar(
            "mshr_rejects", "requests refused by the MSHR file")
        self._policy_stats(s)  # dump order: the policy's sit before the last
        self.st_miss_latency = s.distribution(
            "miss_latency_cycles", 0, 1000, 25, "demand miss latency"
        )

    def _functional(self, pkt: Packet) -> None:
        self.mem_side.send_functional(pkt)

    # -- accept prologue -------------------------------------------------------

    def _recv_req(self, pkt: Packet) -> bool:
        if pkt.addr // BLOCK != (pkt.addr + pkt.size - 1) // BLOCK:
            raise ValueError(
                f"{self.name}: request {pkt!r} crosses a cache-line boundary"
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        return self._access(pkt)

    def _sched_after_lookup(self, kind: str, payload) -> None:
        """Dispatch *kind* (see ``ckpt_dispatch``) one lookup latency on."""
        when = self.now + self.clock.cycles_to_ticks(self.latency_cycles)
        self.sched_ckpt(kind, payload, when)

    # -- the MSHR file ---------------------------------------------------------

    def mshr_occupancy(self) -> int:
        return len(self._mshrs)

    def _mshr_reject(self, pkt: Packet, why: str) -> bool:
        """Refuse *pkt* (returns ``False``, the port's answer) and owe
        the requester a retry when the next MSHR is released."""
        self.st_mshr_rejects.inc()
        self._need_retry = True
        if FLAG_MSHR.enabled:
            tracepoint(FLAG_MSHR, self.name, "reject %s addr=%#x: %s",
                       pkt.cmd.name, pkt.addr, why, tick=self.now)
        return False

    def _mshr_allocate(self, block_addr: int) -> MSHR:
        mshr = self._mshrs[block_addr] = MSHR(block_addr, self.now)
        if FLAG_MSHR.enabled:
            tracepoint(FLAG_MSHR, self.name,
                       "allocate MSHR block=%#x (%d/%d busy)", block_addr,
                       len(self._mshrs), self.mshr_cap, tick=self.now)
        return mshr

    def _mshr_coalesce(self, mshr: MSHR, pkt: Packet) -> None:
        self.st_coalesced.inc()
        mshr.targets.append(pkt)
        if FLAG_MSHR.enabled:
            tracepoint(FLAG_MSHR, self.name,
                       "coalesce #%d into MSHR block=%#x (%d targets)",
                       pkt.pkt_id, mshr.block_addr, len(mshr.targets),
                       tick=self.now)

    def _mshr_pop(self, pkt: Packet) -> Optional[MSHR]:
        """The miss *pkt* answers, taken out of the file; ``None`` if
        *pkt* answers no miss.  The request the miss sent ends here."""
        mshr = self._mshrs.pop(pkt.block_addr(BLOCK), None)
        if mshr is not None:
            if pkttrace.FLAG_PACKET.enabled and pkt.hops:
                pkttrace.finish(pkt, self.sim, self.now, self.name)
            if not mshr.is_prefetch:
                self.st_miss_latency.sample(
                    (self.now - mshr.issued_tick) // self.clock.period
                )
        return mshr

    def _mshr_released(self) -> None:
        """Call once the popped miss's targets are answered: whoever was
        refused for want of an MSHR may try again."""
        if self._need_retry:
            self._need_retry = False
            self.cpu_side.send_retry_req()

    # -- checkpointing ---------------------------------------------------------

    def serialize(self, ctx) -> dict:
        """Every key is the one format 3 has always used."""
        key, pack_line, _ = self._line_codec(ctx)
        return {
            key: self._tags.state(pack_line),
            "mshrs": [
                {"block_addr": mshr.block_addr,
                 "targets": [ctx.pack(t) for t in mshr.targets],
                 "issued_tick": mshr.issued_tick,
                 **self._mshr_policy_state(mshr, ctx)}
                for mshr in self._mshrs.values()
            ],
            "downstream_q": self.mem_side.queue_state(ctx),
            "blocked_resps": self.cpu_side.queue_state(ctx),
            "need_retry": self._need_retry,
        }

    def unserialize(self, state: dict, ctx) -> None:
        key, _, unpack_line = self._line_codec(ctx)
        self._tags.load(state[key], unpack_line, f"{self.path()}.{key}")
        self._mshrs = {}
        for mstate in state["mshrs"]:
            mshr = MSHR(mstate["block_addr"], mstate["issued_tick"])
            mshr.targets = [ctx.unpack(t) for t in mstate["targets"]]
            self._mshr_load_policy(mshr, mstate, ctx)
            self._mshrs[mshr.block_addr] = mshr
        self.mem_side.load_queue(state["downstream_q"], ctx)
        self.cpu_side.load_queue(state["blocked_resps"], ctx)
        self._need_retry = state["need_retry"]
