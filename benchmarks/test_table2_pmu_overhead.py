"""Table 2 — simulation-time overhead of gem5+PMU and waveform tracing.

Wall-clock time of the sort benchmark on the bare SoC, with the PMU RTL
model attached, and with VCD waveform tracing enabled, over three array
sizes.  The paper reports 1.09-1.24x for the PMU and 3.16-7.27x with
waveforms; the expected *shape* is a modest RTL-model overhead and a
multiplicative waveform cost.
"""

from conftest import sort_sizes, write_artifact

from repro.dse.pmu_experiment import TABLE2, Table2Row
from repro.dse.render import render_table2
from repro.experiment import run


def test_table2_simulation_overhead(benchmark, artifact):
    payload = benchmark.pedantic(
        run, args=(TABLE2, {"sizes": sort_sizes()}), rounds=1, iterations=1
    )
    rows = [Table2Row(**row) for row in payload]
    lines = [render_table2(rows), "", "absolute seconds:"]
    for r in rows:
        lines.append(
            f"  N={r.size:6d}: gem5={r.t_gem5:.2f}s "
            f"+PMU={r.t_gem5_pmu:.2f}s +wave={r.t_gem5_pmu_waveform:.2f}s"
        )
    artifact("table2_pmu_overhead.txt", "\n".join(lines))

    for row in rows:
        # the PMU costs something but not an order of magnitude
        assert 0.9 < row.pmu_overhead < 15.0
        # waveforms multiply the cost further
        assert row.waveform_overhead > row.pmu_overhead
