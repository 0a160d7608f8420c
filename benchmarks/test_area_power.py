"""Area & power characterisation (paper §2 motivation, Table 1 footnote).

Table 1 footnotes the synthesis cost of the integrated RTL blocks
(PMU ≈ 5 k LUTs on a Xilinx KC705).  This bench reproduces that number
with the structural estimator and produces the McPAT-style energy
breakdown of a PMU-monitored workload — the co-design loop the paper's
introduction motivates (performance + area + power from one framework).
"""

from conftest import FAST, write_artifact

from repro.models.pmu.wrapper import load_pmu_source
from repro.rtl.synth import estimate_verilog
from repro.soc.power import estimate_power


def test_pmu_area_vs_paper_footnote(benchmark, artifact):
    def run():
        return estimate_verilog(load_pmu_source(), top="pmu",
                                params={"NCOUNTERS": 20})

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    text = [
        "Table 1 footnote — PMU synthesis cost",
        f"paper (KC705 synthesis): ~5,000 LUTs",
        f"structural estimate    : {report.luts:,.0f} LUTs, "
        f"{report.ffs} FFs, {report.ram_bits} RAM bits",
        "",
        report.format_text(),
    ]
    artifact("area_pmu.txt", "\n".join(text))
    assert 2_000 < report.luts < 10_000  # same order of magnitude


def test_power_breakdown_of_monitored_run(benchmark, artifact):
    from repro.dse.pmu_experiment import build_pmu_system

    def run():
        n = 60 if FAST else 150
        soc, pmu, drv = build_pmu_system(n_sort=n, memory="DDR4-2ch")
        drv.enable(0b111111)
        soc.run_until_done(cores=[soc.cores[0]])
        pmu.stop()
        area = estimate_verilog(load_pmu_source(), top="pmu",
                                params={"NCOUNTERS": 20})
        return estimate_power(soc, rtl_kluts={"pmu": area.luts / 1000})

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    artifact("power_breakdown.txt",
             "Energy breakdown — sort benchmark with PMU attached\n"
             + report.format_text())

    names = {c.name for c in report.components}
    assert "rtl_models" in names, "the RTL block must appear in the budget"
    assert report.average_watts > 0
    # the tiny PMU must not dominate the SoC's energy
    assert (report.component("rtl_models").total_nj
            < 0.5 * report.total_nj)
