"""Snooping shared-L2 directory: the protocol's serialization point.

The directory sits below the coherent crossbar and above the memory
bus.  Every coherence transaction (GetS, GetX, Upgrade, write-through
store, eviction) is processed *atomically* inside one directory event:

1. directory bookkeeping (sharer set / owner) is updated,
2. remote caches are probed through the crossbar's *express* snoop
   channel (the calls run to completion inside this event),
3. dirty intervention data is functionally written to memory,
4. the requestor's line is installed via an express "grant" snoop, and
5. any victims the grant evicted are booked from the grant packet.

Only after all of that does a *timing* response start its journey back
through the crossbar — by then it is a pure latency echo, so snoops
that serialize later can never corrupt a response that serialized
earlier.  This is what lets the MESI table get away without transient
states.

The L2 itself is a non-inclusive tag array used only for timing: a tag
miss parks the response behind a downstream line fill.  Data always
lives in (functional) memory; the directory keeps memory up to date at
every serialization point, which is also what makes ``ProtocolError``
checks cheap — any S/E copy anywhere must equal memory exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..soc.cache.sets import BLOCK, SparseSets
from ..soc.packet import MemCmd, Packet
from ..soc.ports import RequestPort, ResponsePort
from ..soc.simobject import (DEQUE, SORTED_PAIRS, SORTED_SET, VALUE,
                             SimObject, Simulation, objects, tags)
from ..trace import packets as pkttrace
from ..trace.flags import tracepoint
from .l1 import FLAG_COH
from .protocol import ProtocolError

#: dimensions of the ``dir_state`` pseudo-memory exposed to fault
#: campaigns: ``dir_state[k].b`` flips sharer/owner metadata of the
#: k-th (modulo) tracked block — see :meth:`DirectoryController.flip_state_bit`.
DIR_STATE_DEPTH = 16
DIR_STATE_WIDTH = 8


class DirEntry:
    """Directory metadata for one block: who holds it, who owns it."""

    __slots__ = ("sharers", "owner")

    def __init__(self) -> None:
        self.sharers: set[str] = set()
        self.owner: Optional[str] = None  # holder in E or M, if any


class DirectoryController(SimObject):
    """Shared L2 tag array + full-map directory + snoop sequencer."""

    ckpt_state = (("_entries", objects(DirEntry, (("sharers", SORTED_SET),
                                                  ("owner", VALUE)))),
                  ("_l2", tags(lambda ctx, present: (), lambda ctx: True)),
                  ("_known", SORTED_SET), ("_inq", DEQUE), ("_busy", VALUE),
                  ("_waiting", SORTED_PAIRS),
                  ("downstream_q", "mem_side.queue", DEQUE),
                  ("_need_retry", VALUE))
    ckpt_kinds = {"process": "_process"}

    def __init__(
        self,
        sim: Simulation,
        name: str,
        size: int = 256 * 1024,
        assoc: int = 8,
        latency_cycles: int = 6,
        inq_depth: int = 16,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.latency_cycles = latency_cycles
        self.inq_depth = inq_depth

        #: block -> DirEntry; complete (never silently dropped), so a
        #: lost entry here is a lost invalidation — which is exactly why
        #: fault campaigns flip it (see flip_state_bit)
        self._entries: dict[int, DirEntry] = {}
        #: every participant ever granted a line (flip-target universe)
        self._known: set[str] = set()
        # non-inclusive L2 tags, LRU per set (timing only)
        self._l2 = SparseSets.sized(name, size, assoc)

        self.cpu_side = ResponsePort(
            f"{name}.cpu_side",
            recv_timing_req=self._recv_req,
            recv_functional=self._functional,
        )
        self.mem_side = RequestPort(
            f"{name}.mem_side",
            recv_timing_resp=self._recv_fill,
        )
        self._inq: deque[Packet] = deque()
        self._busy = False
        #: block -> [[resp_pkt, data], ...] parked behind an L2 fill
        self._waiting: dict[int, list] = {}
        self._need_retry = False

        s = self.stats
        self.st_requests = s.scalar("requests", "coherence requests processed")
        self.st_grants = s.scalar("grants", "lines granted (E/S/M)")
        self.st_snoops_sent = s.scalar(
            "snoops_sent", "probe transactions broadcast upstream")
        self.st_invs_sent = s.scalar(
            "invalidations_sent", "invalidate probes issued")
        self.st_interventions = s.scalar(
            "interventions", "dirty lines collected from M owners")
        self.st_upgrade_races = s.scalar(
            "upgrade_races", "upgrades escalated to GetX (S copy lost)")
        self.st_wt_writes = s.scalar(
            "wt_writes", "write-through stores applied")
        self.st_writebacks = s.scalar(
            "writebacks_absorbed", "timing writebacks absorbed (pre-booked)")
        self.st_evictions = s.scalar(
            "evictions_booked", "victim lines unbooked at grant time")
        self.st_l2_hits = s.scalar("l2_hits", "L2 tag hits")
        self.st_l2_misses = s.scalar("l2_misses", "L2 tag misses (fills)")

    # -- bookkeeping helpers -----------------------------------------------

    def entry_view(self) -> dict[int, tuple[list[str], Optional[str]]]:
        """Snapshot for invariant checkers: block -> (sharers, owner)."""
        return {
            block: (sorted(e.sharers), e.owner)
            for block, e in self._entries.items()
        }

    def check_invariants(self) -> None:
        """Single-M-owner / owner-implies-sole-sharer, on demand."""
        for block, entry in self._entries.items():
            if not entry.sharers:
                raise ProtocolError(
                    f"{self.name}: empty directory entry for {block:#x}"
                )
            if entry.owner is not None and entry.sharers != {entry.owner}:
                raise ProtocolError(
                    f"{self.name}: block {block:#x} owned by "
                    f"{entry.owner} but shared by {sorted(entry.sharers)}"
                )

    # -- functional memory access (the serialization point's data view) ----

    def _read_mem(self, block: int) -> bytes:
        probe = Packet(MemCmd.ReadReq, block, BLOCK, requestor=self.name)
        self.mem_side.send_functional(probe)
        if probe.data is None:
            raise RuntimeError(f"{self.name}: functional read returned no data")
        return probe.data

    def _write_mem(self, block: int, data: bytes) -> None:
        self.mem_side.send_functional(
            Packet(MemCmd.WriteReq, block, BLOCK, data=data,
                   requestor=self.name)
        )

    # -- request intake -----------------------------------------------------

    def _recv_req(self, pkt: Packet) -> bool:
        if len(self._inq) >= self.inq_depth:
            self._need_retry = True
            return False
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        self._inq.append(pkt)
        self._kick()
        return True

    def _kick(self) -> None:
        if self._busy or not self._inq:
            return
        self._busy = True
        delay = self.clock.cycles_to_ticks(self.latency_cycles)
        self.sched_ckpt("process", None, self.now + delay)

    def _process(self, _payload) -> None:
        self._busy = False
        pkt = self._inq.popleft()
        self.st_requests.inc()
        if FLAG_COH.enabled:
            tracepoint(FLAG_COH, self.name, "process %s #%d block=%#x",
                       pkt.cmd.name, pkt.pkt_id, pkt.addr, tick=self.now)
        if pkt.cmd is MemCmd.ReadReq:
            self._handle_gets(pkt)
        elif pkt.cmd is MemCmd.ReadExReq:
            self._handle_getx(pkt)
        elif pkt.cmd is MemCmd.UpgradeReq:
            self._handle_upgrade(pkt)
        elif pkt.cmd is MemCmd.WriteReq:
            self._handle_wt_write(pkt)
        elif pkt.cmd is MemCmd.WritebackDirty:
            if not pkt.meta.get("coh_accounted"):
                raise ProtocolError(
                    f"{self.name}: unbooked writeback {pkt!r} — victims "
                    "must be reported at grant time"
                )
            self.st_writebacks.inc()
        else:
            raise ProtocolError(f"{self.name}: unexpected request {pkt!r}")
        if self._need_retry:
            self._need_retry = False
            self.cpu_side.send_retry_req()
        self._kick()

    # -- transaction handlers (all effects land inside this event) ---------

    def _handle_gets(self, pkt: Packet) -> None:
        block = pkt.block_addr(BLOCK)
        origin = pkt.meta["coh_origin"]
        wt = bool(pkt.meta.get("wt_participant"))
        entry = self._entries.get(block)
        if entry is not None and origin in entry.sharers:
            raise ProtocolError(
                f"{self.name}: GetS from {origin} which already shares "
                f"block {block:#x}"
            )
        if entry is not None and entry.owner is not None:
            # E/M owner drops to S; a dirty owner intervenes with data
            self._snoop(block, "share", [entry.owner], origin)
            entry.owner = None
        if entry is None:
            entry = self._entries.setdefault(block, DirEntry())
        if not entry.sharers and not wt:
            gstate = "E"
            entry.owner = origin
        else:
            # write-through participants hold lines in S only: they can
            # never upgrade silently, so E would be a stale promise
            gstate = "S"
        entry.sharers.add(origin)
        data = self._read_mem(block)
        self._grant(pkt, origin, gstate, data)
        self._finish_data_resp(pkt, block, data)

    def _handle_getx(self, pkt: Packet) -> None:
        block = pkt.block_addr(BLOCK)
        origin = pkt.meta["coh_origin"]
        entry = self._entries.get(block)
        if entry is not None:
            if origin in entry.sharers:
                raise ProtocolError(
                    f"{self.name}: GetX from sharer {origin} of block "
                    f"{block:#x} (must upgrade instead)"
                )
            if entry.sharers:
                self._snoop(block, "inv", sorted(entry.sharers), origin)
        fresh = DirEntry()
        fresh.sharers = {origin}
        fresh.owner = origin
        self._entries[block] = fresh
        data = self._read_mem(block)
        self._grant(pkt, origin, "M", data)
        self._finish_data_resp(pkt, block, data)

    def _handle_upgrade(self, pkt: Packet) -> None:
        block = pkt.block_addr(BLOCK)
        origin = pkt.meta["coh_origin"]
        entry = self._entries.get(block)
        if entry is not None and origin in entry.sharers:
            if entry.owner is not None:
                raise ProtocolError(
                    f"{self.name}: upgrade for block {block:#x} while "
                    f"{entry.owner} owns it"
                )
            others = sorted(entry.sharers - {origin})
            if others:
                self._snoop(block, "inv", others, origin)
            entry.sharers = {origin}
            entry.owner = origin
            self._grant(pkt, origin, "M", None)
        else:
            # The requestor's S copy was invalidated while this upgrade
            # was in flight: escalate to a full GetX and ship data.
            self.st_upgrade_races.inc()
            if entry is not None and entry.sharers:
                self._snoop(block, "inv", sorted(entry.sharers), origin)
            fresh = DirEntry()
            fresh.sharers = {origin}
            fresh.owner = origin
            self._entries[block] = fresh
            self._grant(pkt, origin, "M", self._read_mem(block))
        self._touch_l2(block)
        self.cpu_side.send_timing_resp(pkt.make_response())

    def _handle_wt_write(self, pkt: Packet) -> None:
        """Write-through store from an RTL participant (8 bytes)."""
        if not pkt.meta.get("wt_participant"):
            raise ProtocolError(
                f"{self.name}: plain WriteReq {pkt!r} — behavioral L1s "
                "write back through grants, not stores"
            )
        block = pkt.block_addr(BLOCK)
        origin = pkt.meta["coh_origin"]
        wt_hit = bool(pkt.meta.get("wt_hit"))
        entry = self._entries.get(block)
        in_sharers = entry is not None and origin in entry.sharers
        if in_sharers != wt_hit:
            raise ProtocolError(
                f"{self.name}: write-through mirror desync on block "
                f"{block:#x}: RTL hit={wt_hit}, directory sharer={in_sharers}"
            )
        if entry is not None and entry.owner == origin:
            raise ProtocolError(
                f"{self.name}: write-through participant {origin} owns "
                f"block {block:#x}"
            )
        if entry is not None:
            others = sorted(entry.sharers - {origin})
            if others:
                self._snoop(block, "inv", others, origin)
            entry.owner = None
            entry.sharers &= {origin}
            if not entry.sharers:
                del self._entries[block]
        # apply the store after any dirty intervention data landed
        self.mem_side.send_functional(pkt)
        self.st_wt_writes.inc()
        self._known.add(origin)
        self._touch_l2(block)  # write-no-allocate: touch, never fill
        self.cpu_side.send_timing_resp(pkt.make_response())

    # -- express snoop / grant machinery ------------------------------------

    def _snoop(self, block: int, kind: str, targets: list[str],
               origin: str) -> None:
        probe = Packet(MemCmd.SnoopReq, block, BLOCK, requestor=self.name)
        probe.meta.update(snoop=kind, targets=list(targets), origin=origin)
        self.st_snoops_sent.inc()
        if kind == "inv":
            self.st_invs_sent.inc(len(targets))
        self.cpu_side.send_snoop(probe)
        hits = set(probe.meta.get("snoop_hits", ()))
        if hits != set(targets):
            raise ProtocolError(
                f"{self.name}: {kind} snoop of block {block:#x} answered "
                f"by {sorted(hits)}, expected {targets}"
            )
        dirty = probe.meta.get("dirty_data")
        if dirty is not None:
            self.st_interventions.inc()
            self._write_mem(block, dirty)

    def _grant(self, req: Packet, origin: str, state: str,
               data: Optional[bytes]) -> None:
        grant = Packet(MemCmd.SnoopReq, req.block_addr(BLOCK), BLOCK,
                       requestor=self.name)
        grant.meta.update(snoop="grant", dest=origin, grant_state=state,
                          grant_data=data)
        if FLAG_COH.enabled:
            tracepoint(FLAG_COH, self.name, "grant %s block=%#x -> %s",
                       state, grant.addr, origin, tick=self.now)
        self.cpu_side.send_snoop(grant)
        self._book_evictions(grant)
        self._known.add(origin)
        self.st_grants.inc()

    def _book_evictions(self, grant: Packet) -> None:
        for ev in grant.meta.get("evictions", ()):
            block, cache = ev["block"], ev["cache"]
            entry = self._entries.get(block)
            if entry is None or cache not in entry.sharers:
                raise ProtocolError(
                    f"{self.name}: {cache} evicted block {block:#x} the "
                    "directory does not track for it"
                )
            if ev["dirty"] and entry.owner != cache:
                raise ProtocolError(
                    f"{self.name}: dirty eviction of {block:#x} by "
                    f"non-owner {cache}"
                )
            entry.sharers.discard(cache)
            if entry.owner == cache:
                entry.owner = None
            if ev["dirty"]:
                self._write_mem(block, ev["data"])
            if not entry.sharers:
                del self._entries[block]
            self.st_evictions.inc()

    # -- L2 tag timing -------------------------------------------------------

    def _touch_l2(self, block: int) -> bool:
        set_idx, tag = self._l2.split(block)
        tags = self._l2[set_idx]
        if tag in tags:
            tags.move_to_end(tag)
            return True
        return False

    def _finish_data_resp(self, pkt: Packet, block: int,
                          data: bytes) -> None:
        set_idx, tag = self._l2.split(block)
        tags = self._l2[set_idx]
        if tag in tags and block not in self._waiting:
            tags.move_to_end(tag)
            self.st_l2_hits.inc()
            self.cpu_side.send_timing_resp(pkt.make_response(data))
            return
        self.st_l2_misses.inc()
        if tag not in tags:
            if len(tags) >= self._l2.assoc:
                tags.popitem(last=False)  # tags only: nothing to write back
            tags[tag] = True
        waiting = self._waiting.setdefault(block, [])
        waiting.append([pkt, data])
        if len(waiting) == 1:
            fill = Packet(MemCmd.ReadReq, block, BLOCK, requestor=self.name)
            fill.meta["l2_fill"] = True
            self.mem_side.send(fill)

    def _recv_fill(self, pkt: Packet) -> bool:
        if not pkt.meta.get("l2_fill"):
            raise RuntimeError(f"{self.name}: unexpected response {pkt!r}")
        block = pkt.block_addr(BLOCK)
        for req, data in self._waiting.pop(block, ()):
            self.cpu_side.send_timing_resp(req.make_response(data))
        return True

    def _functional(self, pkt: Packet) -> None:
        self.mem_side.send_functional(pkt)

    @property
    def quiet(self) -> bool:
        return (not self._inq and not self._busy and not self._waiting
                and not self.mem_side.queue)

    # -- fault-campaign hook --------------------------------------------------

    def flip_state_bit(self, signal: str, bit: int) -> bool:
        """Corrupt one bit of directory metadata (``dir_state[k].b``).

        The pseudo-memory view campaigns enumerate: word ``k`` selects
        the k-th tracked block (modulo, in address order); within the
        word, bit ``b`` selects a participant (modulo known+1) whose
        sharer membership is toggled, the last slot toggling ownership.
        A flipped sharer bit is a lost (or phantom) invalidation — the
        classic directory soft-error — and surfaces as a ProtocolError
        or an SDC downstream.
        """
        if not (signal.startswith("dir_state[") and signal.endswith("]")):
            return False
        try:
            word = int(signal[len("dir_state["):-1])
        except ValueError:
            return False
        blocks = sorted(self._entries)
        known = sorted(self._known)
        if not blocks or not known:
            return False
        entry = self._entries[blocks[word % len(blocks)]]
        idx = bit % (len(known) + 1)
        if idx < len(known):
            cache = known[idx]
            if cache in entry.sharers:
                entry.sharers.discard(cache)
            else:
                entry.sharers.add(cache)
        elif entry.owner is not None:
            entry.owner = None
        else:
            entry.owner = known[bit % len(known)]
        return True
