"""DRAM memory controller with channel/bank/row-buffer timing.

Models the three main-memory technologies of Table 1:

* **DDR4-2400** — 18.75 GB/s per channel, 8 KiB row buffer, 16 banks,
  evaluated with 1/2/4 channels;
* **GDDR5** — quad-channel, 112 GB/s aggregate, 2 KiB row buffer;
* **HBM** — eight channels, 128 GB/s aggregate, 2 KiB row buffer.

Each channel has a 64-entry read queue and a 128-entry write queue (per
Table 1), an FR-FCFS-style scheduler (row hits first within a limited
reordering window, then oldest-first), per-bank open-row state, and a
shared data bus whose burst time enforces the peak bandwidth.  Writes
are acknowledged at enqueue and drained in bursts once the write queue
crosses a high-water mark, blocking reads while draining — the classic
read/write turnaround interference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from ...trace import packets as pkttrace
from ...trace.flags import debug_flag, tracepoint
from ..event import EventPriority
from ..packet import Packet
from ..ports import ResponsePort
from ..simobject import SimObject, Simulation
from .physmem import PhysicalMemory

BLOCK = 64  # interleave granularity / burst size in bytes

FLAG_DRAM = debug_flag(
    "DRAM", "DRAM controller: queueing, row hits/conflicts, completions"
)


@dataclass(frozen=True)
class DRAMConfig:
    """Technology parameters (timings in nanoseconds)."""

    name: str
    channels: int
    banks_per_channel: int
    row_buffer_bytes: int
    peak_bw_per_channel: float   # GB/s
    t_cas: float                 # column access (row-hit) latency, ns
    t_rcd: float                 # activate latency, ns
    t_rp: float                  # precharge latency, ns
    read_queue: int = 64
    write_queue: int = 128
    frontend_ns: float = 10.0    # controller pipeline overhead
    fr_fcfs_window: int = 8      # reordering window for row-hit-first
    write_hi_frac: float = 0.7   # forced write drain above this fill
    write_lo_frac: float = 0.4   # drain down to this fill

    @property
    def burst_ns(self) -> float:
        """Data-bus occupancy of one 64 B burst."""
        return BLOCK / self.peak_bw_per_channel  # B / (GB/s) == ns

    @property
    def peak_bw(self) -> float:
        return self.peak_bw_per_channel * self.channels

    def with_channels(self, channels: int) -> "DRAMConfig":
        return replace(self, name=f"{self.name.split('-')[0]}-{channels}ch",
                       channels=channels)


def ddr4_2400(channels: int = 1) -> DRAMConfig:
    return DRAMConfig(
        name=f"DDR4-{channels}ch",
        channels=channels,
        banks_per_channel=32,      # 2 ranks x 16 banks (Table 1)
        row_buffer_bytes=8192,
        peak_bw_per_channel=18.75,
        t_cas=14.16, t_rcd=14.16, t_rp=14.16,
    )


def gddr5() -> DRAMConfig:
    return DRAMConfig(
        name="GDDR5",
        channels=4,
        banks_per_channel=16,
        row_buffer_bytes=2048,
        peak_bw_per_channel=28.0,  # 112 GB/s aggregate
        t_cas=12.0, t_rcd=12.0, t_rp=12.0,
    )


def hbm() -> DRAMConfig:
    return DRAMConfig(
        name="HBM",
        channels=8,
        banks_per_channel=16,
        row_buffer_bytes=2048,
        peak_bw_per_channel=16.0,  # 128 GB/s aggregate
        t_cas=14.0, t_rcd=14.0, t_rp=14.0,
    )


MEMORY_PRESETS = {
    "DDR4-1ch": lambda: ddr4_2400(1),
    "DDR4-2ch": lambda: ddr4_2400(2),
    "DDR4-4ch": lambda: ddr4_2400(4),
    "GDDR5": gddr5,
    "HBM": hbm,
}


def _ns(ns: float) -> int:
    """Nanoseconds to ticks (1 tick = 1 ps)."""
    return int(round(ns * 1000))


class _Bank:
    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.busy_until = 0


class _Channel:
    """One DRAM channel: queues, banks, data bus, scheduler."""

    def __init__(self, ctrl: "DRAMController", index: int) -> None:
        self.ctrl = ctrl
        self.cfg = ctrl.cfg
        self.index = index
        self.read_q: deque[Packet] = deque()
        self.write_q: deque[Packet] = deque()
        self.banks = [_Bank() for _ in range(self.cfg.banks_per_channel)]
        self.bus_busy_until = 0
        self.draining_writes = False
        self._scheduled = False
        self._event_name = f"{ctrl.name}.ch{index}"
        # the config is frozen: its timings in ticks, converted once
        cfg = self.cfg
        self._t_hit = _ns(cfg.t_cas)
        self._t_miss = _ns(cfg.t_rp + cfg.t_rcd + cfg.t_cas)
        self._t_burst = _ns(cfg.burst_ns)
        self._t_frontend = _ns(cfg.frontend_ns)

    # -- geometry ------------------------------------------------------------

    def decode(self, addr: int) -> tuple[int, int]:
        """Return (bank, row) for an address on this channel."""
        cfg = self.cfg
        local = (addr // BLOCK) // cfg.channels * BLOCK + (addr % BLOCK)
        bank = (local // cfg.row_buffer_bytes) % cfg.banks_per_channel
        row = local // (cfg.row_buffer_bytes * cfg.banks_per_channel)
        return bank, row

    # -- queue admission ----------------------------------------------------------

    def can_accept(self, pkt: Packet) -> bool:
        if pkt.is_read:
            return len(self.read_q) < self.cfg.read_queue
        return len(self.write_q) < self.cfg.write_queue

    def enqueue(self, pkt: Packet) -> None:
        if pkt.is_read:
            self.read_q.append(pkt)
        else:
            self.write_q.append(pkt)
        self._maybe_schedule()

    # -- scheduling ------------------------------------------------------------------

    def _maybe_schedule(self) -> None:
        if self._scheduled or (not self.read_q and not self.write_q):
            return
        self._scheduled = True
        when = max(self.ctrl.now, self.bus_busy_until)
        self.ctrl.sched_ckpt(
            "ch_service", self.index, when, EventPriority.DEFAULT,
            self._event_name,
        )

    def _pick(self, queue: deque[Packet]) -> tuple[Packet, tuple[int, int]]:
        """FR-FCFS: oldest row hit within the window, else the oldest;
        with the packet, its ``(bank, row)``."""
        oldest = None
        for i in range(min(len(queue), self.cfg.fr_fcfs_window)):
            pkt = queue[i]
            where = self.decode(pkt.addr)
            if self.banks[where[0]].open_row == where[1]:
                del queue[i]
                return pkt, where
            if oldest is None:
                oldest = where
        pkt = queue.popleft()
        return pkt, oldest or self.decode(pkt.addr)

    def _service(self) -> None:
        self._scheduled = False
        cfg = self.cfg
        # Write-drain hysteresis.
        if self.draining_writes and (
            len(self.write_q) <= cfg.write_queue * cfg.write_lo_frac
        ):
            self.draining_writes = False
        if not self.draining_writes and (
            len(self.write_q) >= cfg.write_queue * cfg.write_hi_frac
        ):
            self.draining_writes = True

        use_writes = self.draining_writes or not self.read_q
        queue = self.write_q if use_writes else self.read_q
        if not queue:
            queue = self.read_q if use_writes else self.write_q
            if not queue:
                return
        pkt, (bank_no, row) = self._pick(queue)

        now = self.ctrl.now
        bank = self.banks[bank_no]
        # The controller pipelines commands: CAS latency overlaps other
        # banks' (and the same open row's) bursts, so a request's data
        # could have been ready `tCAS` after it entered the queue; the
        # shared data bus then serialises the bursts.  Activations are
        # gated per bank by a tRC-like recovery window.  This keeps
        # unloaded latency = prep + burst while a queued row-hit stream
        # saturates the bus at one burst per burst-time.
        enq = pkt.meta.get("dram_enq", now)
        if bank.open_row == row:
            data_ready = enq + self._t_hit
            self.ctrl.st_row_hits.inc()
        else:
            act_start = max(enq, bank.busy_until)
            data_ready = act_start + self._t_miss
            # earliest next activation of this bank (tRC approximation)
            bank.busy_until = data_ready
            bank.open_row = row
            self.ctrl.st_row_conflicts.inc()
        bursts = max(1, (pkt.size + BLOCK - 1) // BLOCK)
        burst_time = bursts * self._t_burst
        data_start = max(now, data_ready, self.bus_busy_until)
        done = data_start + burst_time
        self.bus_busy_until = done

        self.ctrl.st_bytes.inc(pkt.size)
        if pkt.is_read:
            self.ctrl.sched_ckpt("rd_done", pkt, done + self._t_frontend)
        else:
            self.ctrl.st_writes_drained.inc()
        # Queue slot frees when the burst completes (backpressure).
        self.ctrl.sched_ckpt("slot_free", None, done)
        if self.read_q or self.write_q:
            self._scheduled = True
            self.ctrl.sched_ckpt(
                "ch_service", self.index, max(data_start, now + 1000),
                EventPriority.DEFAULT, self._event_name,
            )


class DRAMController(SimObject):
    """Multi-channel DRAM memory controller with one response port."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        cfg: DRAMConfig,
        physmem: Optional[PhysicalMemory] = None,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.cfg = cfg
        self.physmem = physmem or PhysicalMemory()
        self.channels = [_Channel(self, i) for i in range(cfg.channels)]
        # One response port per channel (gem5 instantiates one controller
        # per channel; we expose the same port-level parallelism).  A
        # single-port hookup — connect just ports[0] — also works: requests
        # are always routed to their channel by address.
        self.ports = [
            ResponsePort(
                f"{name}.port{i}",
                recv_timing_req=lambda pkt, i=i: self._recv_req(pkt, i),
                recv_functional=self.functional_access,
            )
            for i in range(cfg.channels)
        ]
        self._retry_pending: set[int] = set()
        self._retry_rejected = False
        # fault injection (repro.resilience): consulted before a read
        # completes; a hook returning True swallows the completion
        self.fault_hook = None

        s = self.stats
        self.st_reads = s.scalar("reads", "read requests accepted")
        self.st_writes = s.scalar("writes", "write requests accepted")
        self.st_bytes = s.scalar("bytes", "bytes transferred on DRAM buses")
        self.st_row_hits = s.scalar("row_hits", "row-buffer hits")
        self.st_row_conflicts = s.scalar("row_conflicts", "row activations")
        self.st_rejected = s.scalar("rejected", "requests rejected (queue full)")
        self.st_writes_drained = s.scalar("writes_drained", "writes drained")
        self.st_read_latency = s.distribution(
            "read_latency_ns", 0, 2000, 50, "read service latency (ns)"
        )

    # -- routing ------------------------------------------------------------

    @property
    def port(self) -> ResponsePort:
        """Single-port convenience accessor (ports[0])."""
        return self.ports[0]

    def channel_of(self, addr: int) -> _Channel:
        return self.channels[(addr // BLOCK) % self.cfg.channels]

    def connect_xbar(self, xbar) -> None:
        """Attach every channel port to *xbar* with interleaved ranges."""
        n = self.cfg.channels
        for i, port in enumerate(self.ports):
            from ..interconnect.xbar import AddrRange

            rng = AddrRange(0, 1 << 64, intlv_count=n, intlv_match=i)
            xbar.new_mem_port(rng).connect(port)

    # -- port handlers ----------------------------------------------------------

    def _recv_req(self, pkt: Packet, port_idx: int) -> bool:
        ch = self.channel_of(pkt.addr)
        if not ch.can_accept(pkt):
            self.st_rejected.inc()
            self._retry_rejected = True
            self._retry_pending.add(port_idx)
            if FLAG_DRAM.enabled:
                tracepoint(
                    FLAG_DRAM, self.name,
                    "reject %s #%d addr=%#x: ch%d queue full",
                    pkt.cmd.name, pkt.pkt_id, pkt.addr, ch.index,
                    tick=self.now,
                )
            return False
        if FLAG_DRAM.enabled:
            bank, row = ch.decode(pkt.addr)
            tracepoint(
                FLAG_DRAM, self.name,
                "enqueue %s #%d addr=%#x ch%d bank%d row%d (rq=%d wq=%d)",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, ch.index, bank, row,
                len(ch.read_q), len(ch.write_q), tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        pkt.meta["dram_enq"] = self.now
        pkt.meta["dram_port"] = port_idx
        if pkt.is_read:
            self.st_reads.inc()
            ch.enqueue(pkt)
        else:
            self.st_writes.inc()
            # Writes update functional state now and are acked immediately.
            if pkt.data is not None:
                self.physmem.write(pkt.addr, pkt.data)
            ch.enqueue(pkt)
            if pkt.needs_response:
                pkt.make_response()
                pkt.resp_tick = self.now
                self.ports[port_idx].send(pkt)
        return True

    def complete_read(self, pkt: Packet) -> None:
        if self.fault_hook is not None and self.fault_hook.on_dram_read(self, pkt):
            return  # injected fault swallowed (dropped/delayed) this read
        if FLAG_DRAM.enabled:
            tracepoint(
                FLAG_DRAM, self.name,
                "complete %s #%d addr=%#x after %d ns",
                pkt.cmd.name, pkt.pkt_id, pkt.addr,
                (self.now - pkt.meta["dram_enq"]) // 1000, tick=self.now,
            )
        self.st_read_latency.sample(
            (self.now - pkt.meta["dram_enq"]) // 1000
        )
        pkt.data = self.physmem.read(pkt.addr, pkt.size)
        if pkt.needs_response:
            pkt.make_response()
            pkt.resp_tick = self.now
            self.ports[pkt.meta.get("dram_port", 0)].send(pkt)

    def notify_slot_free(self) -> None:
        """A queue slot freed; let rejected requesters retry.

        Bounded to one pass, stopping on re-rejection, to avoid the
        same-tick retry livelock (see Crossbar._issue_retries).
        """
        for _ in range(len(self._retry_pending)):
            if not self._retry_pending:
                break
            self._retry_rejected = False
            self.ports[self._retry_pending.pop()].send_retry_req()
            if self._retry_rejected:
                break

    # -- functional --------------------------------------------------------------

    def functional_access(self, pkt: Packet) -> None:
        if pkt.is_read:
            pkt.data = self.physmem.read(pkt.addr, pkt.size)
        elif pkt.data is not None:
            self.physmem.write(pkt.addr, pkt.data)

    # -- checkpointing ------------------------------------------------------------

    def ckpt_dispatch(self, kind: str, payload) -> None:
        if kind == "ch_service":
            self.channels[payload]._service()
        elif kind == "rd_done":
            self.complete_read(payload)
        elif kind == "slot_free":
            self.notify_slot_free()
        else:
            super().ckpt_dispatch(kind, payload)

    def serialize(self, ctx) -> dict:
        return {
            "channels": [
                {
                    "read_q": [ctx.pack(p) for p in ch.read_q],
                    "write_q": [ctx.pack(p) for p in ch.write_q],
                    "banks": [[b.open_row, b.busy_until] for b in ch.banks],
                    "bus_busy_until": ch.bus_busy_until,
                    "draining_writes": ch.draining_writes,
                    "scheduled": ch._scheduled,
                }
                for ch in self.channels
            ],
            # sorted for deterministic bytes only: the pop order of a set
            # also depends on its history (CPython's hidden pop finger),
            # so a restored set can pop in another order than the saved
            # one -- the restore divergence of ROADMAP item 1
            "retry_pending": sorted(self._retry_pending),
            "retry_rejected": self._retry_rejected,
            "blocked_resps": [port.queue_state(ctx) for port in self.ports],
        }

    def unserialize(self, state: dict, ctx) -> None:
        for ch, cstate in zip(self.channels, state["channels"]):
            ch.read_q = deque(ctx.unpack(p) for p in cstate["read_q"])
            ch.write_q = deque(ctx.unpack(p) for p in cstate["write_q"])
            for bank, (open_row, busy_until) in zip(ch.banks, cstate["banks"]):
                bank.open_row = open_row
                bank.busy_until = busy_until
            ch.bus_busy_until = cstate["bus_busy_until"]
            ch.draining_writes = cstate["draining_writes"]
            ch._scheduled = cstate["scheduled"]
        self._retry_pending = set(state["retry_pending"])
        self._retry_rejected = state["retry_rejected"]
        for port, queued in zip(self.ports, state["blocked_resps"]):
            port.load_queue(queued, ctx)
