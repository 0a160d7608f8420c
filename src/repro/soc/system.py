"""SoC builder: assembles the Table 1 system.

Default parameters reproduce the paper's Table 1:

* 8 out-of-order cores — 3-wide, 192-entry ROB, 48 LDQ + 48 STQ, 2 GHz
* private L1I/L1D 64 KiB 4-way (2 cycles; 8/24 MSHRs) and L2 256 KiB
  8-way (9 cycles, 24 MSHRs, stride prefetcher)
* shared LLC 16 MiB 16-way (20-cycle data access, 32 MSHRs/bank)
* coherent crossbar, 128-bit, 2 cycles
* main memory: DDR4-2400 (1/2/4 ch), GDDR5, HBM, or ideal 1-cycle

Topology::

    core --- L1D --\\
                     l1bus -- L2 --\\
            (L1I) --/                sysbus -- LLC -- membus -- DRAM chN
    RTLObject(cpu side)---------------^                  ^
    RTLObject(NVDLA DBBIF/SRAMIF)------------------------/
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .cache import Cache, StridePrefetcher
from .cpu import OoOCore
from .event import ClockDomain
from .interconnect import Crossbar
from .iomaster import IOMaster
from .mem import (
    DRAMConfig,
    DRAMController,
    IdealMemory,
    MEMORY_PRESETS,
    PhysicalMemory,
)
from .simobject import Simulation
from .tlb import PageTable


@dataclass
class CoreConfig:
    issue_width: int = 3
    commit_width: int = 4
    rob_size: int = 192
    ldq_size: int = 48
    stq_size: int = 48
    mispredict_penalty: int = 12


@dataclass
class CacheConfig:
    size: int
    assoc: int
    latency: int
    mshrs: int
    prefetcher: bool = False


@dataclass
class SoCConfig:
    """Parameters for :class:`SoC`; defaults mirror Table 1."""

    num_cores: int = 8
    freq_hz: float = 2e9
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 2, 8)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 2, 24)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, 9, 24, prefetcher=True)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024 * 1024, 16, 20, 256)
    )
    #: "DDR4-1ch" | "DDR4-2ch" | "DDR4-4ch" | "GDDR5" | "HBM" | "ideal"
    memory: Union[str, DRAMConfig] = "DDR4-4ch"
    xbar_latency: int = 2
    xbar_queue: int = 16
    with_llc: bool = True
    #: MESI multi-core mode: private coherent L1Ds behind a snooping
    #: directory ("l2dir") on a CoherentXbar ("cohbus").  The directory
    #: replaces the per-core L2s for data traffic; instruction fetch
    #: stays on the plain (read-only) hierarchy.
    coherent: bool = False


class SoC:
    """A fully-wired simulated system ready for workloads and RTLObjects."""

    def __init__(self, cfg: Optional[SoCConfig] = None, name: str = "system") -> None:
        self.cfg = cfg or SoCConfig()
        cfg = self.cfg
        self.sim = Simulation(name)
        self.sim.default_clock = ClockDomain(cfg.freq_hz, "cpu_clk")
        self.physmem = PhysicalMemory()
        self.page_table = PageTable()

        # interconnect: sysbus (cores+LLC) and membus (LLC+accelerators+DRAM).
        # Without an LLC the two collapse into one crossbar.
        self.membus = Crossbar(
            self.sim, "membus", cfg.xbar_latency, cfg.xbar_queue
        )
        if cfg.with_llc:
            self.sysbus = Crossbar(
                self.sim, "sysbus", cfg.xbar_latency, cfg.xbar_queue
            )
        else:
            self.sysbus = self.membus

        # main memory
        self.mem_ctrl: Union[DRAMController, IdealMemory]
        if cfg.memory == "ideal":
            # Enough interleaved ports that the baseline is never
            # port-limited (the paper normalises to an ideal 1-cycle
            # memory, not to a port-constrained one).
            self.mem_ctrl = IdealMemory(
                self.sim, "mem", physmem=self.physmem, latency_cycles=1,
                channels=16,
            )
            self.mem_ctrl.connect_xbar(self.membus)
        else:
            dram_cfg = (
                cfg.memory
                if isinstance(cfg.memory, DRAMConfig)
                else MEMORY_PRESETS[cfg.memory]()
            )
            self.mem_ctrl = DRAMController(
                self.sim, "mem", dram_cfg, physmem=self.physmem
            )
            self.mem_ctrl.connect_xbar(self.membus)

        # shared LLC between sysbus and membus
        if cfg.with_llc:
            self.llc = Cache(
                self.sim, "llc", cfg.llc.size, cfg.llc.assoc,
                cfg.llc.latency, cfg.llc.mshrs,
            )
            self.sysbus.new_mem_port().connect(self.llc.cpu_side)
            self.llc.mem_side.connect(self.membus.new_cpu_port())
        else:
            self.llc = None  # sysbus is membus; cores reach DRAM directly

        # coherence domain (cfg.coherent): private L1Ds share through a
        # snooping directory that serializes every data-side transaction
        self.cohbus = None
        self.l2dir = None
        if cfg.coherent:
            from ..coherence.directory import DirectoryController
            from .interconnect import CoherentXbar

            self.cohbus = CoherentXbar(
                self.sim, "cohbus", cfg.xbar_latency, cfg.xbar_queue
            )
            self.l2dir = DirectoryController(
                self.sim, "l2dir", size=cfg.l2.size, assoc=cfg.l2.assoc,
                latency_cycles=cfg.l2.latency,
            )
            self.cohbus.new_mem_port().connect(self.l2dir.cpu_side)
            self.l2dir.mem_side.connect(self.sysbus.new_cpu_port())

        # cores + private hierarchies
        self.cores: list[OoOCore] = []
        self.l1is: list[Cache] = []
        self.l1ds: list = []
        self.l2s: list[Cache] = []
        self.l1buses: list[Crossbar] = []
        for i in range(cfg.num_cores):
            core = OoOCore(
                self.sim, f"cpu{i}",
                issue_width=cfg.core.issue_width,
                commit_width=cfg.core.commit_width,
                rob_size=cfg.core.rob_size,
                ldq_size=cfg.core.ldq_size,
                stq_size=cfg.core.stq_size,
                mispredict_penalty=cfg.core.mispredict_penalty,
            )
            if cfg.coherent:
                from ..coherence.l1 import CoherentL1Cache

                # child of the core, so stats land under system.cpu{i}.l1d
                l1d = CoherentL1Cache(
                    self.sim, "l1d", size=cfg.l1d.size, assoc=cfg.l1d.assoc,
                    latency_cycles=cfg.l1d.latency, mshrs=cfg.l1d.mshrs,
                    parent=core,
                )
                l1i = Cache(self.sim, f"l1i{i}", cfg.l1i.size, cfg.l1i.assoc,
                            cfg.l1i.latency, cfg.l1i.mshrs)
                l2 = None
                l1bus = None
                core.dcache_port.connect(l1d.cpu_side)
                core.icache_port.connect(l1i.cpu_side)
                l1d.mem_side.connect(self.cohbus.new_cpu_port())
                l1i.mem_side.connect(self.sysbus.new_cpu_port())
            else:
                l1i = Cache(self.sim, f"l1i{i}", cfg.l1i.size, cfg.l1i.assoc,
                            cfg.l1i.latency, cfg.l1i.mshrs)
                l1d = Cache(self.sim, f"l1d{i}", cfg.l1d.size, cfg.l1d.assoc,
                            cfg.l1d.latency, cfg.l1d.mshrs)
                pf = StridePrefetcher() if cfg.l2.prefetcher else None
                l2 = Cache(self.sim, f"l2_{i}", cfg.l2.size, cfg.l2.assoc,
                           cfg.l2.latency, cfg.l2.mshrs, prefetcher=pf)
                l1bus = Crossbar(self.sim, f"l1bus{i}", latency_cycles=1)

                core.dcache_port.connect(l1d.cpu_side)
                core.icache_port.connect(l1i.cpu_side)
                l1d.mem_side.connect(l1bus.new_cpu_port())
                l1i.mem_side.connect(l1bus.new_cpu_port())
                l1bus.new_mem_port().connect(l2.cpu_side)
                l2.mem_side.connect(self.sysbus.new_cpu_port())

            self.cores.append(core)
            self.l1is.append(l1i)
            self.l1ds.append(l1d)
            if l2 is not None:
                self.l2s.append(l2)
            if l1bus is not None:
                self.l1buses.append(l1bus)

        # an IOMaster on the sysbus for host MMIO traffic
        self.iomaster = IOMaster(self.sim, "iomaster")
        self._io_xbar = Crossbar(self.sim, "iobus", latency_cycles=1)
        self.iomaster.port.connect(self._io_xbar.new_cpu_port())

        # functional state participates in checkpoints as "extras"
        self.sim.register_extra("physmem", self.physmem)
        self.sim.register_extra("page_table", self.page_table)
        self.watchdog = None

    # -- RTLObject attachment ------------------------------------------------

    def attach_rtl_cpu_side(self, rtl_obj, port_idx: int = 0,
                            io_range=None) -> None:
        """Route MMIO (via the IOMaster) to an RTLObject cpu_side port."""
        from .interconnect.xbar import AddrRange

        rng = io_range
        if rng is not None and not isinstance(rng, AddrRange):
            rng = AddrRange(*rng)
        self._io_xbar.new_mem_port(rng).connect(rtl_obj.cpu_side[port_idx])

    def attach_rtl_mem_side(self, rtl_obj, port_idx: int = 0,
                            via_llc: bool = False) -> None:
        """Connect an RTLObject memory-side port to the memory system.

        ``via_llc=False`` matches the paper's NVDLA hookup (DBBIF/SRAMIF
        straight to the memory bus).
        """
        bus = self.sysbus if via_llc else self.membus
        rtl_obj.mem_side[port_idx].connect(bus.new_cpu_port())

    def attach_rtl_coherent(self, rtl_obj, port_idx: int = 0) -> None:
        """Attach an RTL coherence participant (e.g.
        :class:`~repro.models.rtlcache.RTLCoherentCacheObject`) to the
        coherent crossbar, beside the behavioral L1Ds."""
        if self.cohbus is None:
            raise RuntimeError(
                "attach_rtl_coherent requires SoCConfig(coherent=True)"
            )
        rtl_obj.mem_side[port_idx].connect(self.cohbus.new_cpu_port())
        self.l1ds.append(rtl_obj)

    # -- resilience ----------------------------------------------------------

    def attach_watchdog(self, **kwargs):
        """Create (once) and return a hang watchdog for this system."""
        from ..resilience.watchdog import Watchdog

        if self.watchdog is None:
            self.watchdog = Watchdog(self.sim, **kwargs)
            if self.sim._started:
                self.watchdog.init()
                self.watchdog.startup()
        return self.watchdog

    def save_checkpoint(self, path, max_wait: int = 10**9) -> int:
        return self.sim.save_checkpoint(path, max_wait=max_wait)

    def restore(self, path) -> None:
        self.sim.restore(path)

    # -- convenience ------------------------------------------------------------

    def load_memory(self, addr: int, data: bytes) -> None:
        """Functional (backdoor) load, e.g. program images."""
        self.physmem.write(addr, data)

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until=until)

    def run_until_done(
        self, cores=None, max_ticks: int = 10**12, extra_ticks: int = 0
    ) -> int:
        """Run until every core in *cores* finished its µop stream."""
        watch = cores if cores is not None else [
            c for c in self.cores if c.stream is not None
        ]
        self.sim.startup()
        step = self.sim.default_clock.cycles_to_ticks(10_000)
        deadline = self.sim.now + max_ticks
        # Step boundaries are aligned to absolute multiples of *step* so
        # a run resumed from a checkpoint observes the same boundaries
        # (and hence the same stop ticks) as an uninterrupted run.
        # Deliberately a polling grid and not Simulation.request_exit
        # (which the NVDLA system uses): the cycles between a core's
        # last µop and the next boundary are observable — the PMU keeps
        # sampling through them, so Fig. 5's window count and the pinned
        # result digests include them.
        while not all(c.done for c in watch):
            if self.sim.now >= deadline:
                progress = "; ".join(
                    f"{c.name}: {'done' if c.done else 'running'}, "
                    f"{int(c.st_committed.value())} committed"
                    for c in watch
                )
                raise TimeoutError(
                    f"workload did not finish within {max_ticks} ticks "
                    f"({progress})"
                )
            boundary = (self.sim.now // step + 1) * step
            self.sim.run(until=min(boundary, deadline))
        if extra_ticks:
            self.sim.run(until=self.sim.now + extra_ticks)
        return self.sim.now
