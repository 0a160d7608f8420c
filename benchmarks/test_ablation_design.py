"""Ablations of DESIGN.md's called-out design choices.

* FR-FCFS reordering window — row-hit-first scheduling vs plain FCFS;
* L2 stride prefetcher — on vs off for a streaming core workload;
* RTLObject frequency ratio — simulation cost of ticking the RTL model
  at 2 GHz vs 1 GHz under the same SoC (the paper's frequency-ratio
  parameter).
"""

import time

from conftest import FAST, write_artifact

from repro.dse.nvdla_system import build_nvdla_system
from repro.soc.mem.dram import ddr4_2400
from repro.soc.system import SoC, SoCConfig
from repro.soc.cpu.uop import alu, load


def test_ablation_fr_fcfs_window(benchmark, artifact):
    """Row-hit-first scheduling should beat FCFS on interleaved streams."""
    from dataclasses import replace

    def run_with_window(window: int) -> int:
        cfg = replace(ddr4_2400(1), fr_fcfs_window=window)
        system = build_nvdla_system(
            "sanity3", n_nvdla=2, memory="DDR4-1ch", max_inflight=64,
            scale=0.25 if FAST else 0.5,
        )
        # swap the controller config before running
        system.soc.mem_ctrl.cfg = cfg
        for ch in system.soc.mem_ctrl.channels:
            ch.cfg = cfg
        system.run_to_completion()
        return max(h.exec_ticks() for h in system.hosts)

    def run():
        return {w: run_with_window(w) for w in (1, 8, 32)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation — FR-FCFS reordering window (2 NVDLAs on DDR4-1ch)",
             f"{'window':<10}{'exec ticks':>14}{'vs FCFS':>10}"]
    for w, ticks in results.items():
        lines.append(f"{w:<10}{ticks:>14}{results[1] / ticks:>10.2f}")
    artifact("ablation_fr_fcfs.txt", "\n".join(lines))
    # a reordering window must not hurt; usually it helps
    assert results[8] <= results[1] * 1.02


def test_ablation_l2_prefetcher(benchmark, artifact):
    """The Table 1 stride prefetcher accelerates streaming cores."""

    def run_core(prefetch: bool) -> int:
        cfg = SoCConfig(num_cores=1, memory="DDR4-2ch")
        cfg.l2.prefetcher = prefetch
        soc = SoC(cfg)
        n = 2000 if FAST else 6000
        soc.cores[0].run_stream(
            u for i in range(n) for u in (load(i * 64), alu(1))
        )
        soc.run_until_done()
        return soc.cores[0].st_cycles.value()

    def run():
        return {"off": run_core(False), "on": run_core(True)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = results["off"] / results["on"]
    artifact(
        "ablation_prefetcher.txt",
        "Ablation — L2 stride prefetcher on a streaming load kernel\n"
        f"cycles off={results['off']}  on={results['on']}  "
        f"speedup={speedup:.2f}x",
    )
    assert speedup > 1.05


def test_ablation_rtl_frequency_ratio(benchmark, artifact):
    """Halving the RTL clock halves its tick count (and its cost)."""
    from repro.models.pmu.rtl_object import PMURTLObject
    from repro.models.pmu.wrapper import PMUSharedLibrary
    from repro.soc.event import ClockDomain

    def run_freq(freq_hz: float):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        pmu = PMURTLObject(soc.sim, "pmu", PMUSharedLibrary(),
                           clock=ClockDomain(freq_hz, "pmu_clk"))
        soc.attach_rtl_cpu_side(pmu)
        n = 60 if FAST else 150
        from repro.workloads.sorting import sort_benchmark

        soc.cores[0].run_stream(sort_benchmark(n=n, sleep_cycles=2000))
        t0 = time.perf_counter()
        soc.run_until_done()
        wall = time.perf_counter() - t0
        pmu.stop()
        return pmu.st_ticks.value(), wall

    def run():
        return {"2GHz": run_freq(2e9), "1GHz": run_freq(1e9)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    t2, w2 = results["2GHz"]
    t1, w1 = results["1GHz"]
    artifact(
        "ablation_freq_ratio.txt",
        "Ablation — RTLObject frequency ratio (PMU under a 2 GHz SoC)\n"
        f"PMU@2GHz: {t2} ticks, {w2:.2f}s wall\n"
        f"PMU@1GHz: {t1} ticks, {w1:.2f}s wall "
        f"(tick ratio {t2 / max(t1, 1):.2f}, wall ratio {w2 / w1:.2f})",
    )
    assert 1.8 < t2 / max(t1, 1) < 2.2
