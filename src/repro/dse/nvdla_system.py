"""System assembly for the NVDLA design-space exploration (paper §5/6.2).

Builds the Table 1 SoC with 1/2/4 NVDLA instances, each with its own
CSB MMIO window, DBBIF/SRAMIF hookup to the memory bus, host
application and workload copy, all on one 1 GHz clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..models.nvdla import (
    NVDLAHostApp,
    NVDLARTLObject,
    NVDLASharedLibrary,
    for_instance,
)
from ..soc.event import ClockDomain
from ..soc.interconnect.xbar import AddrRange
from ..soc.system import SoC, SoCConfig

NVDLA_MMIO_BASE = 0x2000_0000
NVDLA_MMIO_STRIDE = 0x1000


@dataclass
class NVDLASystem:
    """A built system plus its accelerator-side handles."""

    soc: SoC
    rtls: list[NVDLARTLObject]
    hosts: list[NVDLAHostApp]

    def __post_init__(self) -> None:
        # The workload ends the run: whichever of "last command played"
        # and "last CSB write delivered" happens last requests the exit.
        for host in self.hosts:
            host.on_done(self._exit_if_complete)
        for io in {host.io for host in self.hosts}:
            io.on_drain(self._exit_if_complete)

    @property
    def complete(self) -> bool:
        """Every trace played to its end and every CSB write delivered.

        ``done`` alone is too early: the trace's last command
        (``IRQ_CLEAR``) is posted by the same call that sets it and
        still has to cross the IOMaster to the accelerator.
        """
        return all(h.done and not h.io.busy for h in self.hosts)

    def _exit_if_complete(self) -> None:
        if self.complete:
            self.soc.sim.request_exit()

    def run_to_completion(self, max_ticks: int = 10**12) -> int:
        """Start all host apps and run until the workload ends the run.

        Returns the tick at which the last CSB write was delivered — a
        property of the simulated system, so a run restored from a
        checkpoint stops where the uninterrupted one does.
        """
        sim = self.soc.sim
        for host in self.hosts:
            host.start()
        sim.startup()
        # restored from a checkpoint taken in the completing tick:
        # the request is not saved, the state that made it is
        self._exit_if_complete()
        sim.run(until=sim.now + max_ticks)
        if not self.complete:
            raise TimeoutError(
                f"NVDLA workload did not complete within {max_ticks} ticks ("
                + "; ".join(host.progress() for host in self.hosts) + ")"
            )
        for rtl in self.rtls:
            rtl.stop()
        return sim.now


def build_nvdla_system(
    workload: str = "sanity3",
    n_nvdla: int = 1,
    memory: str = "DDR4-4ch",
    max_inflight: int = 240,
    timed_load: bool = False,
    scale: float = 1.0,
    soc_cfg: Optional[SoCConfig] = None,
    use_sram_scratchpad: bool = False,
) -> NVDLASystem:
    """Assemble the DSE system.

    ``memory`` is a Table 1 preset name or ``"ideal"`` (the
    normalisation baseline).  ``max_inflight`` is the paper's in-flight
    request cap, applied per NVDLA instance.  ``use_sram_scratchpad``
    hooks the SRAMIF to a private ideal scratchpad instead of main
    memory (the extension the paper suggests), used by the ablation
    bench.
    """
    if n_nvdla < 1:
        raise ValueError("need at least one NVDLA instance")
    cfg = soc_cfg or SoCConfig()
    cfg.memory = memory
    soc = SoC(cfg)

    rtls: list[NVDLARTLObject] = []
    hosts: list[NVDLAHostApp] = []
    # one clock: its one edge event ticks the instances in index order
    clock = ClockDomain(1e9, "nvdla_clk")
    for i in range(n_nvdla):
        mmio = NVDLA_MMIO_BASE + i * NVDLA_MMIO_STRIDE
        rtl = NVDLARTLObject(
            soc.sim, f"nvdla{i}", NVDLASharedLibrary(),
            max_inflight=max_inflight, mmio_base=mmio, clock=clock,
        )
        soc.attach_rtl_cpu_side(
            rtl, io_range=AddrRange(mmio, mmio + NVDLA_MMIO_STRIDE)
        )
        soc.attach_rtl_mem_side(rtl, port_idx=0)   # DBBIF -> membus
        if use_sram_scratchpad:
            from ..soc.mem.ideal import IdealMemory

            spad = IdealMemory(
                soc.sim, f"spad{i}", physmem=soc.physmem, latency_cycles=2
            )
            rtl.mem_side[1].connect(spad.port)
        else:
            soc.attach_rtl_mem_side(rtl, port_idx=1)  # SRAMIF -> membus

        trace = for_instance(workload, i, scale=scale)
        if use_sram_scratchpad:
            for layer in trace.layers:
                layer.sram_mode = 1
        host_core = soc.cores[i] if timed_load else None
        host = NVDLAHostApp(
            soc, rtl, trace, instance=i,
            host_core=host_core, timed_load=timed_load,
        )
        # host apps carry playback progress; checkpoint them as extras
        soc.sim.register_extra(f"nvdla_host{i}", host)
        rtls.append(rtl)
        hosts.append(host)

    return NVDLASystem(soc, rtls, hosts)
