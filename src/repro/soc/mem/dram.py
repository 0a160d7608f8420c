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
from dataclasses import dataclass
from functools import partial
from typing import Optional

from ...trace import packets as pkttrace
from ...trace.flags import debug_flag, tracepoint
from ..event import EventPriority
from ..packet import Packet
from ..ports import ResponsePort
from ..simobject import (DEQUE, EACH, VALUE, Checkpointed, SimObject,
                         Simulation, rows)
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


class _Channel(Checkpointed):
    """One DRAM channel: queues, banks, data bus; the controller's
    ``_service`` is its scheduler."""

    ckpt_state = (("read_q", DEQUE), ("write_q", DEQUE), ("banks", rows("open_row", "busy_until")),
                  ("bus_busy_until", VALUE), ("draining_writes", VALUE),
                  ("_scheduled", VALUE))

    def __init__(self, ctrl: "DRAMController", index: int) -> None:
        self.ctrl = ctrl
        self.cfg = ctrl.cfg
        self.index = index
        self.read_q: deque[Packet] = deque()
        self.write_q: deque[Packet] = deque()
        #: ``(bank, row)`` of every queued packet, decoded at admission;
        #: derived from the queues, so a checkpoint does not carry it
        self.where: dict[Packet, tuple[int, int]] = {}
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

    # -- scheduling ------------------------------------------------------------------

    def enqueue(self, pkt: Packet, queue: deque[Packet],
                where: tuple[int, int]) -> None:
        """Admit *pkt*, at *where*, to *queue* (one of this channel's)."""
        queue.append(pkt)
        self.where[pkt] = where
        if not self._scheduled:
            self._scheduled = True
            ctrl = self.ctrl
            ctrl.sched_ckpt(
                "ch_service", self.index,
                max(ctrl.sim.eventq.cur_tick, self.bus_busy_until),
                EventPriority.DEFAULT, self._event_name,
            )

    def _pick(self, queue: deque[Packet]) -> tuple[Packet, tuple[int, int]]:
        """FR-FCFS: oldest row hit within the window, else the oldest;
        with the packet, its ``(bank, row)``."""
        where, banks = self.where, self.banks
        for i in range(min(len(queue), self.cfg.fr_fcfs_window)):
            pkt = queue[i]
            bank, row = where[pkt]
            if banks[bank].open_row == row:
                del queue[i]
                return pkt, where.pop(pkt)
        pkt = queue.popleft()
        return pkt, where.pop(pkt)

    def rebuild_where(self) -> None:
        """Re-derive :attr:`where` from the queues (checkpoint restore)."""
        self.where = {
            pkt: self.decode(pkt.addr) for pkt in (*self.read_q, *self.write_q)
        }


class DRAMController(SimObject):
    """Multi-channel DRAM memory controller with one response port."""

    ckpt_state = (("channels", EACH), ("_retry_rejected", VALUE))
    #: the hook: a set drained by ``pop()``, whose order is history
    ckpt_hooked = ("_retry_pending",)
    ckpt_kinds = {"ch_service": "_service", "rd_done": "complete_read",
                  "slot_free": "notify_slot_free"}

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
                recv_timing_req=partial(self._recv_req, i),
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

    def connect_xbar(self, xbar) -> None:
        """Attach every channel port to *xbar* with interleaved ranges."""
        n = self.cfg.channels
        for i, port in enumerate(self.ports):
            from ..interconnect.xbar import AddrRange

            rng = AddrRange(0, 1 << 64, intlv_count=n, intlv_match=i)
            xbar.new_mem_port(rng).connect(port)

    # -- port handlers ----------------------------------------------------------

    def _recv_req(self, port_idx: int, pkt: Packet) -> bool:
        addr = pkt.addr
        cfg = self.cfg
        ch = self.channels[(addr // BLOCK) % cfg.channels]
        is_read = pkt.cmd.is_read
        if is_read:
            queue, room = ch.read_q, cfg.read_queue
        else:
            queue, room = ch.write_q, cfg.write_queue
        now = self.sim.eventq.cur_tick
        if len(queue) >= room:
            self.st_rejected.inc()
            self._retry_rejected = True
            self._retry_pending.add(port_idx)
            if FLAG_DRAM.enabled:
                tracepoint(
                    FLAG_DRAM, self.name,
                    "reject %s #%d addr=%#x: ch%d queue full",
                    pkt.cmd.name, pkt.pkt_id, addr, ch.index, tick=now,
                )
            return False
        where = ch.decode(addr)
        if FLAG_DRAM.enabled:
            tracepoint(
                FLAG_DRAM, self.name,
                "enqueue %s #%d addr=%#x ch%d bank%d row%d (rq=%d wq=%d)",
                pkt.cmd.name, pkt.pkt_id, addr, ch.index, *where,
                len(ch.read_q), len(ch.write_q), tick=now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, now)
        meta = pkt.meta
        meta["dram_enq"] = now
        meta["dram_port"] = port_idx
        if is_read:
            self.st_reads.inc()
            ch.enqueue(pkt, queue, where)
        else:
            self.st_writes.inc()
            # Writes update functional state now and are acked immediately.
            if pkt.data is not None:
                self.physmem.write(addr, pkt.data)
            ch.enqueue(pkt, queue, where)
            if pkt.cmd.needs_response:
                pkt.make_response()
                pkt.resp_tick = now
                self.ports[port_idx].send_timing_resp(pkt)
        return True

    def _service(self, index: int) -> None:
        """Channel *index*'s scheduler: issue one request to its bus."""
        ch = self.channels[index]
        ch._scheduled = False
        cfg = self.cfg
        read_q, write_q = ch.read_q, ch.write_q
        # Write-drain hysteresis.
        if ch.draining_writes and (
            len(write_q) <= cfg.write_queue * cfg.write_lo_frac
        ):
            ch.draining_writes = False
        if not ch.draining_writes and (
            len(write_q) >= cfg.write_queue * cfg.write_hi_frac
        ):
            ch.draining_writes = True

        use_writes = ch.draining_writes or not read_q
        queue = write_q if use_writes else read_q
        if not queue:
            queue = read_q if use_writes else write_q
            if not queue:
                return
        pkt, (bank_no, row) = ch._pick(queue)

        now = self.sim.eventq.cur_tick
        bank = ch.banks[bank_no]
        # The controller pipelines commands: CAS latency overlaps other
        # banks' (and the same open row's) bursts, so a request's data
        # could have been ready `tCAS` after it entered the queue; the
        # shared data bus then serialises the bursts.  Activations are
        # gated per bank by a tRC-like recovery window.  This keeps
        # unloaded latency = prep + burst while a queued row-hit stream
        # saturates the bus at one burst per burst-time.
        enq = pkt.meta.get("dram_enq", now)
        if bank.open_row == row:
            data_ready = enq + ch._t_hit
            self.st_row_hits.inc()
        else:
            act_start = max(enq, bank.busy_until)
            data_ready = act_start + ch._t_miss
            # earliest next activation of this bank (tRC approximation)
            bank.busy_until = data_ready
            bank.open_row = row
            self.st_row_conflicts.inc()
        size = pkt.size
        bursts = max(1, (size + BLOCK - 1) // BLOCK)
        data_start = max(now, data_ready, ch.bus_busy_until)
        done = data_start + bursts * ch._t_burst
        ch.bus_busy_until = done

        self.st_bytes.inc(size)
        if pkt.cmd.is_read:
            self.sched_ckpt("rd_done", pkt, done + ch._t_frontend)
        else:
            self.st_writes_drained.inc()
        # Queue slot frees when the burst completes (backpressure).
        self.sched_ckpt("slot_free", None, done)
        if read_q or write_q:
            ch._scheduled = True
            self.sched_ckpt(
                "ch_service", index, max(data_start, now + 1000),
                EventPriority.DEFAULT, ch._event_name,
            )

    def complete_read(self, pkt: Packet) -> None:
        if self.fault_hook is not None and self.fault_hook.on_dram_read(self, pkt):
            return  # injected fault swallowed (dropped/delayed) this read
        now = self.sim.eventq.cur_tick
        meta = pkt.meta
        if FLAG_DRAM.enabled:
            tracepoint(
                FLAG_DRAM, self.name,
                "complete %s #%d addr=%#x after %d ns",
                pkt.cmd.name, pkt.pkt_id, pkt.addr,
                (now - meta["dram_enq"]) // 1000, tick=now,
            )
        self.st_read_latency.sample((now - meta["dram_enq"]) // 1000)
        pkt.data = self.physmem.read(pkt.addr, pkt.size)
        if pkt.cmd.needs_response:
            pkt.make_response()
            pkt.resp_tick = now
            self.ports[meta.get("dram_port", 0)].send_timing_resp(pkt)

    def notify_slot_free(self, _payload=None) -> None:
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

    def ckpt_save(self, state: dict, ctx) -> None:
        # sorted for deterministic bytes only: the pop order of a set
        # also depends on its history (CPython's hidden pop finger),
        # so a restored set can pop in another order than the saved
        # one -- the restore divergence of ROADMAP item 1
        state["retry_pending"] = sorted(self._retry_pending)

    def ckpt_load(self, state: dict, ctx) -> None:
        self._retry_pending = set(state["retry_pending"])
        for ch in self.channels:
            ch.rebuild_where()
