"""Private per-core L1 data cache speaking MESI.

Unlike the classic :class:`repro.soc.cache.cache.Cache` (tags only), a
coherent L1 holds the actual 64-byte line data: intervention
(dirty-owner forwarding) and the "no stale-S reads" invariant are only
meaningful when the bytes a cache serves can differ from memory.

This module is the MESI policy over
:class:`~repro.soc.cache.core.CacheCore`, which the classic cache also
stands on: ports, tag array, MSHR file and the shared statistics.

Ordering model — *grant/response split*.  The directory is the single
serialization point: every protocol side effect (directory bookkeeping,
remote snoops, and this cache's line install) happens atomically inside
the directory's processing event, delivered here as an express "grant"
snoop.  The timing response that later travels back through the crossbar
is just the latency echo; data was already captured at grant time, so a
snoop that invalidates the line in between cannot corrupt a response
that serialized before it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..soc.cache.core import MSHR, CacheCore
from ..soc.cache.sets import BLOCK
from ..soc.packet import MemCmd, Packet
from ..soc.simobject import SimObject, Simulation
from ..trace.flags import debug_flag, tracepoint
from .protocol import ProtocolError, State, next_state

FLAG_COH = debug_flag("Coherence", "MESI transitions, snoops, grants")

_M = State.MODIFIED
_E = State.EXCLUSIVE
_S = State.SHARED
_I = State.INVALID

_FILL_EVENT = {"S": "fill_shared", "E": "fill_exclusive", "M": "fill_modified"}


class CacheLine:
    """One resident line: MESI state plus the real data bytes."""

    __slots__ = ("state", "data")

    def __init__(self, state: State, data: bytes) -> None:
        self.state = state
        self.data = bytearray(data)


class CoherentL1Cache(CacheCore):
    """Set-associative private L1 participating in the MESI protocol."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        size: int,
        assoc: int,
        latency_cycles: int,
        mshrs: int,
        parent: Optional[SimObject] = None,
        paranoid: bool = False,
    ) -> None:
        # a line is a CacheLine; one that would be INVALID is simply absent
        super().__init__(sim, name, size, assoc, latency_cycles, mshrs,
                         parent)
        #: compare clean-line bytes against memory on every hit (verify mode)
        self.paranoid = paranoid

    def _policy_stats(self, s) -> None:
        self.st_upgrade_misses = s.scalar(
            "upgrade_misses", "stores that hit in S and had to upgrade")
        self.st_invalidations = s.scalar(
            "invalidations", "lines dropped by remote snoops")
        self.st_interventions = s.scalar(
            "interventions", "dirty lines forwarded to snoops (M owner)")
        self.st_snoops = s.scalar(
            "snoops", "coherence probes observed on the snoop channel")

    # -- identity & lookup -------------------------------------------------

    @property
    def coh_id(self) -> str:
        """Stable participant name the directory tracks (full path)."""
        return self.path()

    def _find(self, addr: int) -> Optional[CacheLine]:
        set_idx, tag = self._tags.split(addr)
        return self._tags[set_idx].get(tag)

    def _touch(self, addr: int) -> None:
        set_idx, tag = self._tags.split(addr)
        self._tags[set_idx].move_to_end(tag)

    def _drop(self, addr: int) -> None:
        set_idx, tag = self._tags.split(addr)
        del self._tags[set_idx][tag]

    def iter_lines(self) -> Iterator[tuple[int, State, bytes]]:
        """(block_addr, state, data) for every resident line, by set."""
        for set_idx, tags in self._tags.occupied():
            for tag, line in tags.items():
                block = self._tags.block_addr(set_idx, tag)
                yield block, line.state, bytes(line.data)

    # -- request path (from the core) --------------------------------------

    def _access(self, pkt: Packet) -> bool:
        if pkt.cmd not in (MemCmd.ReadReq, MemCmd.WriteReq):
            raise ValueError(
                f"{self.name}: coherent L1 only accepts ReadReq/WriteReq, "
                f"got {pkt.cmd.name}"
            )
        block = pkt.block_addr(BLOCK)
        line = self._find(block)
        mshr = self._mshrs.get(block)

        if mshr is not None and mshr.granted:
            # The line was installed express but the timing response is
            # still in flight; a new transaction on the block would need
            # a second MSHR slot for the same key.  Stall until the
            # response pops the MSHR.
            return self._mshr_reject(pkt, "granted, response in flight")

        # -- hits (line present and the state allows the access) -----------
        if line is not None:
            if pkt.is_read:
                line.state = next_state(line.state, "read_hit",
                                        cache=self.coh_id, block=block)
                self._touch(block)
                self.st_hits.inc()
                if self.paranoid and line.state in (_S, _E):
                    self._check_clean(block, line)
                off = pkt.addr - block
                data = bytes(line.data[off:off + pkt.size])
                self._sched_after_lookup("hit_resp", [pkt, data])
                return True
            if line.state in (_M, _E):
                line.state = next_state(line.state, "write_hit",
                                        cache=self.coh_id, block=block)
                self._write_line(line, pkt)
                self._touch(block)
                self.st_hits.inc()
                self._sched_after_lookup("hit_resp", [pkt, None])
                return True
            # store hit in S: upgrade miss through the directory
            if mshr is not None:
                self._mshr_coalesce(mshr, pkt)
                return True
            if len(self._mshrs) >= self.mshr_cap:
                return self._mshr_reject(pkt, "all MSHRs busy")
            self.st_upgrade_misses.inc()
            self.st_misses.inc()
            self._allocate_miss(MemCmd.UpgradeReq, block, pkt)
            return True

        # -- misses --------------------------------------------------------
        if mshr is not None:
            if pkt.is_write and mshr.cmd is MemCmd.ReadReq:
                # A store cannot ride a plain GetS (it would be granted a
                # read-only copy); make the core retry once the read
                # completes and take the write-miss path cleanly.
                return self._mshr_reject(pkt, "store behind a GetS")
            self._mshr_coalesce(mshr, pkt)
            return True
        if len(self._mshrs) >= self.mshr_cap:
            return self._mshr_reject(pkt, "all MSHRs busy")
        self.st_misses.inc()
        cmd = MemCmd.ReadExReq if pkt.is_write else MemCmd.ReadReq
        self._allocate_miss(cmd, block, pkt)
        return True

    def _allocate_miss(self, cmd: MemCmd, block: int, pkt: Packet) -> None:
        mshr = self._mshr_allocate(block)
        mshr.cmd = cmd                      # ReadReq | ReadExReq | UpgradeReq
        mshr.targets.append(pkt)
        size = BLOCK if cmd in (MemCmd.ReadReq, MemCmd.ReadExReq) else 8
        req = Packet(cmd, block, size, requestor=self.coh_id)
        req.meta["coh_origin"] = self.coh_id
        if FLAG_COH.enabled:
            tracepoint(FLAG_COH, self.name, "miss %s block=%#x",
                       cmd.name, block, tick=self.now)
        self._sched_after_lookup("miss_req", req)

    def _write_line(self, line: CacheLine, pkt: Packet) -> None:
        """Apply a store's bytes; timing-only stores (data=None) just dirty."""
        if pkt.data is not None:
            off = pkt.addr - pkt.block_addr(BLOCK)
            line.data[off:off + pkt.size] = pkt.data

    def _check_clean(self, block: int, line: CacheLine) -> None:
        probe = Packet(MemCmd.ReadReq, block, BLOCK, requestor=self.coh_id)
        self.mem_side.send_functional(probe)
        if probe.data is not None and bytes(line.data) != probe.data:
            raise ProtocolError(
                f"{self.coh_id}: stale {line.state} copy of block "
                f"{block:#x} (line bytes differ from memory)"
            )

    # -- snoop channel (express, inside the directory's event) -------------

    def _recv_snoop(self, pkt: Packet) -> None:
        kind = pkt.meta.get("snoop")
        if kind == "grant":
            if pkt.meta.get("dest") == self.coh_id:
                self._apply_grant(pkt)
            return
        if pkt.meta.get("origin") == self.coh_id:
            return  # our own transaction's broadcast
        self.st_snoops.inc()
        block = pkt.block_addr(BLOCK)
        line = self._find(block)
        targets = pkt.meta.get("targets", ())
        if self.coh_id not in targets:
            if line is not None:
                raise ProtocolError(
                    f"{self.coh_id} holds block {block:#x} in {line.state} "
                    "but the directory does not list it as a sharer"
                )
            return
        if line is None:
            raise ProtocolError(
                f"directory snooped {self.coh_id} for block {block:#x} "
                "which it does not hold"
            )
        if line.state is _M:
            # intervention: the dirty owner forwards its data
            pkt.meta["dirty_data"] = bytes(line.data)
            pkt.meta["dirty_from"] = self.coh_id
            self.st_interventions.inc()
        event = {"inv": "snoop_invalidate", "share": "snoop_share"}.get(kind)
        if event is None:
            raise ProtocolError(f"{self.coh_id}: unknown snoop kind {kind!r}")
        new_state = next_state(line.state, event, cache=self.coh_id,
                               block=block)
        if FLAG_COH.enabled:
            tracepoint(FLAG_COH, self.name, "snoop %s block=%#x %s->%s",
                       kind, block, line.state, new_state, tick=self.now)
        if new_state is _I:
            self._drop(block)
            self.st_invalidations.inc()
        else:
            line.state = new_state
        pkt.meta.setdefault("snoop_hits", []).append(self.coh_id)

    def _apply_grant(self, pkt: Packet) -> None:
        block = pkt.block_addr(BLOCK)
        mshr = self._mshrs.get(block)
        if mshr is None or mshr.granted:
            raise ProtocolError(
                f"{self.coh_id}: grant for block {block:#x} without an "
                "outstanding miss"
            )
        gstate = State(pkt.meta["grant_state"])
        data = pkt.meta.get("grant_data")
        line = self._find(block)
        if data is None:
            # in-place upgrade ack: the S copy we already hold becomes M
            if line is None:
                raise ProtocolError(
                    f"{self.coh_id}: upgrade grant for block {block:#x} "
                    "but no copy is resident"
                )
            line.state = next_state(line.state, "upgrade",
                                    cache=self.coh_id, block=block)
        else:
            if line is not None:
                raise ProtocolError(
                    f"{self.coh_id}: data grant for block {block:#x} "
                    f"over a live {line.state} copy"
                )
            next_state(_I, _FILL_EVENT[gstate.value],
                       cache=self.coh_id, block=block)
            line = self._install(block, gstate, data, pkt)
        # Apply every coalesced target now — this is the serialization
        # point; the timing response later just delivers what we capture.
        for target in mshr.targets:
            if target.is_read:
                off = target.addr - block
                mshr.ready.append(
                    [target, bytes(line.data[off:off + target.size])])
            else:
                if line.state not in (_M, _E):
                    raise ProtocolError(
                        f"{self.coh_id}: store target on block {block:#x} "
                        f"granted in {line.state}"
                    )
                line.state = next_state(line.state, "write_hit",
                                        cache=self.coh_id, block=block)
                self._write_line(line, target)
                mshr.ready.append([target, None])
        mshr.targets = []
        mshr.granted = True

    def _install(self, block: int, state: State, data: bytes,
                 grant_pkt: Packet) -> CacheLine:
        set_idx, tag = self._tags.split(block)
        tags = self._tags[set_idx]
        if len(tags) >= self._tags.assoc:
            victim_tag, victim = tags.popitem(last=False)
            victim_addr = self._tags.block_addr(set_idx, victim_tag)
            next_state(victim.state, "evict", cache=self.coh_id,
                       block=victim_addr)
            dirty = victim.state is _M
            self.st_evictions.inc()
            # The directory (whose event we are inside) books the victim
            # immediately from this record; the WritebackDirty packet
            # below only models the bandwidth of the dirty data.
            grant_pkt.meta.setdefault("evictions", []).append({
                "cache": self.coh_id,
                "block": victim_addr,
                "dirty": dirty,
                "data": bytes(victim.data) if dirty else None,
            })
            if dirty:
                self.st_writebacks.inc()
                wb = Packet(MemCmd.WritebackDirty, victim_addr, BLOCK,
                            requestor=self.coh_id)
                wb.meta["coh_accounted"] = True
                self.mem_side.send(wb)
        line = CacheLine(state, data)
        tags[tag] = line
        return line

    # -- response path (timing echo of the grant) --------------------------

    def _recv_resp(self, pkt: Packet) -> bool:
        mshr = self._mshr_pop(pkt)
        if mshr is None or not mshr.granted:
            raise RuntimeError(
                f"{self.name}: response {pkt!r} matches no granted miss"
            )
        for target, data in mshr.ready:
            self._respond(target, data)
        self._mshr_released()
        return True

    def _respond(self, pkt: Packet, data: Optional[bytes]) -> None:
        if not pkt.needs_response:
            return
        pkt.make_response(data)
        self.cpu_side.send(pkt)

    def _functional(self, pkt: Packet) -> None:
        """Functional accesses stay coherent with resident dirty lines."""
        block = pkt.block_addr(BLOCK)
        line = self._find(block)
        if pkt.is_write:
            if line is not None and pkt.data is not None:
                off = pkt.addr - block
                line.data[off:off + pkt.size] = pkt.data
            self.mem_side.send_functional(pkt)
            return
        self.mem_side.send_functional(pkt)
        if line is not None and line.state is _M:
            off = pkt.addr - block
            pkt.data = bytes(line.data[off:off + pkt.size])

    # -- verification hooks -------------------------------------------------

    @property
    def quiet(self) -> bool:
        return (not self._mshrs and not self.mem_side.queue
                and not self.cpu_side.queue)

    def flush_dirty(self) -> int:
        """Functionally write every M line back to memory (golden compare)."""
        flushed = 0
        for block, state, data in self.iter_lines():
            if state is _M:
                wb = Packet(MemCmd.WriteReq, block, BLOCK, data=data,
                            requestor=self.coh_id)
                self.mem_side.send_functional(wb)
                flushed += 1
        return flushed

    # -- checkpointing -------------------------------------------------------

    def ckpt_dispatch(self, kind: str, payload) -> None:
        if kind == "miss_req":
            self.mem_side.send(payload)
        elif kind == "hit_resp":
            pkt, data = payload
            self._respond(pkt, data)
        else:
            super().ckpt_dispatch(kind, payload)

    def _mshr_policy_state(self, mshr: MSHR, ctx) -> dict:
        return {
            "cmd": mshr.cmd.name,
            "ready": [[ctx.pack(p), ctx.pack(d)] for p, d in mshr.ready],
            "granted": mshr.granted,
        }

    def _mshr_load_policy(self, mshr: MSHR, state: dict, ctx) -> None:
        mshr.cmd = MemCmd[state["cmd"]]
        mshr.ready = [[ctx.unpack(p), ctx.unpack(d)]
                      for p, d in state["ready"]]
        mshr.granted = state["granted"]

    def _line_codec(self, ctx):
        return (
            "sets",
            lambda line: (line.state.value, ctx.pack(bytes(line.data))),
            lambda st, data: CacheLine(State(st), ctx.unpack(data)),
        )
