"""Deadlock/livelock watchdog with structured hang diagnosis.

A :class:`Watchdog` is a SimObject that samples the system's forward
progress on a fixed period and trips after ``stall_checks`` consecutive
samples with outstanding work but no progress.  "Progress" is a vector
of monotone counters — per-core committed instructions, per-RTL-bridge
memory responses and CPU-side requests — so both failure modes are
caught by one mechanism:

* **deadlock** — a waiter that can never be woken (a dropped DRAM
  response wedges an MSHR forever).  The watchdog's own periodic event
  keeps the event queue non-empty, so the simulation keeps reaching the
  next check even when nothing else is schedulable.
* **livelock** — activity without progress (a port retry storm: every
  issue is rejected and immediately retried).

The two are told apart by *retry traffic*, not by raw event counts:
cores keep firing their cycle events while stalled, so events fire in
both cases — but only a livelock keeps rejecting/retrying requests
(crossbar ``rejects`` counters advance during the stall window).

On trip the watchdog raises :class:`SimulationHang` (a ``TimeoutError``
subclass) carrying a :class:`HangReport`: stalled packets with their
hop history (when packet tracing is on), per-core progress, outstanding
MSHRs with ages, RTL bridge occupancy, DRAM queue depths, and the event
queue head — enough to name the wedged packet and component without
rerunning under a debugger.
"""

from __future__ import annotations

import json

from dataclasses import asdict, dataclass, field
from typing import Optional

from ..soc.event import Event, EventPriority
from ..soc.simobject import SimObject, Simulation


@dataclass
class StalledPacket:
    """One packet that has been outstanding for longer than the threshold."""

    pkt_id: int
    cmd: str
    addr: int
    where: str                 # component holding it (cache, bridge, ...)
    age_ticks: int
    requestor: Optional[str] = None
    hops: Optional[list] = None   # (component, tick) pairs if traced

    def format(self) -> str:
        line = (
            f"{self.cmd} #{self.pkt_id} addr={self.addr:#x} held by "
            f"{self.where} for {self.age_ticks} ticks"
        )
        if self.requestor:
            line += f" (requestor {self.requestor})"
        if self.hops:
            trail = " -> ".join(f"{w}@{t}" for w, t in self.hops)
            line += f"\n      hops: {trail}"
        return line


@dataclass
class CoreProgress:
    """Per-core snapshot at trip time."""

    name: str
    done: bool
    committed: int
    committed_delta: int       # commits since the first strike (0 = stalled)

    def format(self) -> str:
        status = "done" if self.done else (
            "STALLED" if self.committed_delta == 0 else "progressing"
        )
        return (
            f"{self.name}: {status}, {self.committed} committed "
            f"(+{self.committed_delta} during stall window)"
        )


@dataclass
class HangReport:
    """Structured description of a detected hang."""

    tick: int
    kind: str                  # "deadlock" | "livelock"
    reason: str
    strikes: int
    check_interval_ticks: int
    cores: list = field(default_factory=list)
    stalled_packets: list = field(default_factory=list)
    mshr_counts: dict = field(default_factory=dict)
    rtl: list = field(default_factory=list)
    dram: list = field(default_factory=list)
    event_head: Optional[tuple] = None
    events_fired_in_window: int = 0
    rejects_in_window: int = 0

    # -- machine-readable round-trip ---------------------------------------

    def to_json(self) -> str:
        """Canonical JSON encoding (campaign results, serve event logs)."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HangReport":
        data = json.loads(text)
        data["cores"] = [CoreProgress(**c) for c in data["cores"]]
        packets = []
        for entry in data["stalled_packets"]:
            if entry.get("hops"):
                entry["hops"] = [tuple(hop) for hop in entry["hops"]]
            packets.append(StalledPacket(**entry))
        data["stalled_packets"] = packets
        if data["event_head"] is not None:
            data["event_head"] = tuple(data["event_head"])
        return cls(**data)

    def format(self) -> str:
        lines = [
            f"{self.kind} detected at tick {self.tick}: {self.reason}",
            f"  no progress for {self.strikes} checks "
            f"({self.strikes * self.check_interval_ticks} ticks); "
            f"{self.events_fired_in_window} non-watchdog events and "
            f"{self.rejects_in_window} request rejects "
            "in the last window",
        ]
        if self.cores:
            lines.append("  cores:")
            lines += [f"    {c.format()}" for c in self.cores]
        if self.stalled_packets:
            lines.append("  stalled packets:")
            lines += [f"    {p.format()}" for p in self.stalled_packets]
        if self.mshr_counts:
            lines.append("  outstanding MSHRs: " + ", ".join(
                f"{name}={n}" for name, n in sorted(self.mshr_counts.items())
            ))
        for entry in self.rtl:
            lines.append(
                f"  rtl {entry['name']}: inflight={entry['inflight']} "
                f"mem_resps={entry['mem_resps']} ticks={entry['ticks']}"
            )
        for entry in self.dram:
            lines.append(
                f"  dram {entry['name']}: reads_queued={entry['reads_queued']} "
                f"writes_queued={entry['writes_queued']} "
                f"retries_pending={entry['retries_pending']}"
            )
        if self.event_head is not None:
            tick, name = self.event_head
            lines.append(f"  event queue head: {name} @ tick {tick}")
        else:
            lines.append("  event queue: empty (apart from the watchdog)")
        return "\n".join(lines)


class SimulationHang(TimeoutError):
    """Raised by the watchdog; ``.report`` holds the :class:`HangReport`."""

    def __init__(self, report: HangReport) -> None:
        super().__init__(report.format())
        self.report = report


class Watchdog(SimObject):
    """Periodic progress monitor; raises :class:`SimulationHang` on trip."""

    def __init__(
        self,
        sim: Simulation,
        name: str = "watchdog",
        check_cycles: int = 50_000,
        stall_checks: int = 3,
        packet_age_ticks: Optional[int] = None,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        if check_cycles <= 0 or stall_checks <= 0:
            raise ValueError("watchdog thresholds must be positive")
        self.check_cycles = check_cycles
        self.stall_checks = stall_checks
        #: packets older than this are reported individually
        self.packet_age_ticks = (
            packet_age_ticks
            if packet_age_ticks is not None
            else stall_checks * check_cycles * self.clock.period
        )
        self._event = Event(self._check, f"{name}.check")
        self._strikes = 0
        self._last_progress: Optional[tuple] = None
        self._last_executed = 0
        self._window_base: Optional[dict] = None   # commits at first strike
        self._window_rejects = 0                   # xbar rejects at first strike
        self.st_checks = self.stats.scalar("checks", "watchdog checks run")

    def startup(self) -> None:
        self._last_executed = self.sim.eventq.executed
        self.schedule_cycles(self._event, self.check_cycles,
                             EventPriority.STATS)

    def stop(self) -> None:
        if self._event.scheduled:
            self.sim.eventq.deschedule(self._event)

    @property
    def strikes(self) -> int:
        """Consecutive checks that saw work outstanding and no progress."""
        return self._strikes

    # -- sampling ----------------------------------------------------------

    @classmethod
    def progress_vector(cls, sim: Simulation) -> tuple:
        """What a check of *sim* compares, with or without a watchdog:
        per-core commits and completion, per-RTL-bridge memory responses
        and CPU-side requests.  Every entry only ever grows."""
        cores, _caches, rtls, _ios, _drams, _xbars = cls._scan(sim)
        return cls._vector(cores, rtls)

    @staticmethod
    def _scan(sim: Simulation):
        from ..bridge.rtl_object import RTLObject
        from ..soc.cache.core import CacheCore
        from ..soc.cpu.core import OoOCore
        from ..soc.interconnect.xbar import Crossbar
        from ..soc.iomaster import IOMaster
        from ..soc.mem.dram import DRAMController

        cores, caches, rtls, ios, drams, xbars = [], [], [], [], [], []
        for obj in sim.objects:
            if isinstance(obj, OoOCore):
                cores.append(obj)
            elif isinstance(obj, CacheCore):
                caches.append(obj)
            elif isinstance(obj, RTLObject):
                rtls.append(obj)
            elif isinstance(obj, IOMaster):
                ios.append(obj)
            elif isinstance(obj, DRAMController):
                drams.append(obj)
            elif isinstance(obj, Crossbar):
                xbars.append(obj)
        return cores, caches, rtls, ios, drams, xbars

    @staticmethod
    def _vector(cores, rtls) -> tuple:
        sig = []
        for core in cores:
            sig.append((core.name, int(core.st_committed.value()), core.done))
        for rtl in rtls:
            sig.append((
                rtl.name,
                int(rtl.st_mem_resps.value()),
                int(rtl.st_cpu_reqs.value()),
            ))
        return tuple(sig)

    def _outstanding_work(self, cores, caches, rtls, ios) -> bool:
        # Only the tag-only Cache counts, as it always has (the report
        # lists every CacheCore): the coherence campaign rig has no core
        # in the progress vector, so an occupied coherent-L1 MSHR there
        # is healthy traffic, not a stall.
        from ..soc.cache.cache import Cache

        for cache in caches:
            if isinstance(cache, Cache) and cache.mshr_occupancy():
                return True
        for rtl in rtls:
            if rtl.inflight:
                return True
        for io in ios:
            if io.busy:
                return True
        for core in cores:
            if core.stream is not None and not core.done:
                return True
        return False

    def _total_rejects(self, xbars) -> int:
        return sum(int(x.st_rejects.value()) for x in xbars)

    def _check(self) -> None:
        self.st_checks.inc()
        cores, caches, rtls, ios, drams, xbars = self._scan(self.sim)
        sig = self._vector(cores, rtls)
        rejects = self._total_rejects(xbars)
        stalled = (
            sig == self._last_progress
            and self._outstanding_work(cores, caches, rtls, ios)
        )
        if stalled:
            self._strikes += 1
            if self._window_base is None:
                self._window_base = {
                    core.name: int(core.st_committed.value()) for core in cores
                }
                self._window_rejects = rejects
        else:
            self._strikes = 0
            self._window_base = None
            self._window_rejects = rejects
        self._last_progress = sig
        executed = self.sim.eventq.executed
        fired = executed - self._last_executed
        self._last_executed = executed
        if self._strikes >= self.stall_checks:
            raise SimulationHang(
                self._build_report(cores, caches, rtls, drams, fired,
                                   rejects - self._window_rejects)
            )
        self.schedule_cycles(self._event, self.check_cycles,
                             EventPriority.STATS)

    # -- diagnosis ---------------------------------------------------------

    def _build_report(self, cores, caches, rtls, drams,
                      fired_last_window: int,
                      rejects_in_window: int) -> HangReport:
        now = self.now
        # The watchdog's own check is among the fired events; anything
        # beyond it is background activity (core clocks keep ticking
        # even when wedged, so this alone does not mean livelock).
        other_events = max(0, fired_last_window - 1)
        if rejects_in_window > 0:
            kind = "livelock"
            reason = (
                "requests are being rejected and retried without any "
                "commit or memory response landing (retry storm)"
            )
        else:
            kind = "deadlock"
            reason = (
                "outstanding work is waiting on a wake-up that never "
                "comes; an expected response never arrived"
            )

        base = self._window_base or {}
        core_progress = [
            CoreProgress(
                name=core.name,
                done=core.done,
                committed=int(core.st_committed.value()),
                committed_delta=(
                    int(core.st_committed.value()) - base.get(core.name, 0)
                ),
            )
            for core in cores
        ]

        stalled_packets: list[StalledPacket] = []
        mshr_counts: dict[str, int] = {}
        for cache in caches:
            if not cache.mshr_occupancy():
                continue
            # the path, not the name: every core's coherent L1 is "l1d"
            # (cpu0.l1d, cpu1.l1d); a top-level cache's path is its name
            where = cache.path()
            mshr_counts[where] = cache.mshr_occupancy()
            for mshr in cache._mshrs.values():
                age = now - mshr.issued_tick
                pkts = mshr.waiting()
                if pkts:
                    for pkt in pkts:
                        stalled_packets.append(StalledPacket(
                            pkt_id=pkt.pkt_id,
                            cmd=pkt.cmd.name,
                            addr=pkt.addr,
                            where=where,
                            age_ticks=age,
                            requestor=pkt.requestor,
                            hops=list(pkt.hops) if pkt.hops else None,
                        ))
                else:
                    stalled_packets.append(StalledPacket(
                        pkt_id=-1,
                        cmd="Fill",
                        addr=mshr.block_addr,
                        where=where,
                        age_ticks=age,
                    ))
        stalled_packets.sort(key=lambda p: -p.age_ticks)

        rtl_entries = [
            {
                "name": rtl.name,
                "inflight": rtl.inflight,
                "mem_resps": int(rtl.st_mem_resps.value()),
                "ticks": int(rtl.st_ticks.value()),
            }
            for rtl in rtls
            if rtl.inflight or rtl.running
        ]
        dram_entries = []
        for dram in drams:
            reads = sum(len(ch.read_q) for ch in dram.channels)
            writes = sum(len(ch.write_q) for ch in dram.channels)
            if reads or writes or dram._retry_pending:
                dram_entries.append({
                    "name": dram.name,
                    "reads_queued": reads,
                    "writes_queued": writes,
                    "retries_pending": len(dram._retry_pending),
                })

        # The watchdog's next check is not yet scheduled at this point,
        # so the head is the first foreign event (or None on deadlock).
        head = self.sim.eventq.peek()
        return HangReport(
            tick=now,
            kind=kind,
            reason=reason,
            strikes=self._strikes,
            check_interval_ticks=self.check_cycles * self.clock.period,
            cores=core_progress,
            stalled_packets=stalled_packets[:16],
            mshr_counts=mshr_counts,
            rtl=rtl_entries,
            dram=dram_entries,
            event_head=head,
            events_fired_in_window=other_events,
            rejects_in_window=rejects_in_window,
        )

    # -- checkpointing -----------------------------------------------------

    def ckpt_named_events(self):
        return {"check": self._event}

    def serialize(self, ctx) -> dict:
        return {
            "strikes": self._strikes,
            "last_progress": ctx.pack(self._last_progress),
            "last_executed": self._last_executed,
            "window_base": ctx.pack(self._window_base),
            "window_rejects": self._window_rejects,
        }

    def unserialize(self, state: dict, ctx) -> None:
        self._strikes = state["strikes"]
        self._last_progress = ctx.unpack(state["last_progress"])
        self._last_executed = state["last_executed"]
        self._window_base = ctx.unpack(state["window_base"])
        self._window_rejects = state["window_rejects"]
