"""Table 3 — gem5+NVDLA simulation-time overhead vs standalone run.

Compares wall-clock time of (i) the accelerator model alone against an
ideal testbench memory ("standalone Verilator"), (ii) the full SoC with
perfect memory, (iii) the full SoC with DDR4 — including the timed
trace-load phase, which is why the short sanity3 run shows the larger
relative overhead (the paper's 3.12x vs GoogleNet's 1.54x).
"""

from conftest import workload_scale, write_artifact

from repro.dse.render import render_table3
from repro.dse.sweep import TABLE3, Table3Result
from repro.experiment import run


def test_table3_simulation_overhead(benchmark, artifact):
    scales = {
        "sanity3": workload_scale("sanity3"),
        "googlenet": workload_scale("googlenet"),
    }
    payload = benchmark.pedantic(
        run, args=(TABLE3, {"scales": scales}), rounds=1, iterations=1
    )
    rows = [Table3Result(**row) for row in payload]
    lines = [render_table3(rows), "", "absolute seconds:"]
    for r in rows:
        lines.append(
            f"  {r.workload:10s}: standalone={r.t_standalone:.2f}s "
            f"perfect={r.t_perfect_memory:.2f}s ddr4={r.t_ddr4:.2f}s"
        )
    artifact("table3_nvdla_overhead.txt", "\n".join(lines))

    for row in rows:
        # full-system simulation costs more than the standalone model
        assert row.perfect_overhead > 1.0
        # a real DRAM model costs at least as much as perfect memory
        assert row.ddr4_overhead >= 0.8 * row.perfect_overhead

    # the short, memory-bound sanity3 run carries the larger relative
    # overhead (the paper's 3.12x vs GoogleNet's 1.54x ordering) —
    # absolute magnitudes differ in this substrate; see EXPERIMENTS.md
    by_wl = {r.workload: r for r in rows}
    if {"sanity3", "googlenet"} <= set(by_wl):
        assert (
            by_wl["sanity3"].perfect_overhead
            > 0.9 * by_wl["googlenet"].perfect_overhead
        )
