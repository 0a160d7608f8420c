"""Fig. 5 — IPC over time measured by the PMU vs gem5 statistics.

Regenerates the paper's time series: the three-sort benchmark with 1 ms
(scaled) sleeps, the PMU interrupting every 10 000 cycles, both IPC
curves printed side by side, and the reset/delay event losses
quantified.
"""

from conftest import FAST, write_artifact

from repro.dse.pmu_experiment import run_fig5
from repro.dse.render import render_fig5


def _run():
    n = 80 if FAST else 200
    return run_fig5(n_sort=n, interval_cycles=10_000, sleep_cycles=20_000)


def test_fig5_pmu_vs_gem5_ipc(benchmark, artifact):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    artifact("fig5_pmu_ipc.txt", render_fig5(result, max_rows=48))

    # shape assertions (the paper's qualitative claims)
    steady = [w for w in result.windows if w.gem5_commits > 1000]
    assert steady, "no steady-state windows"
    errs = sorted(abs(w.pmu_ipc - w.gem5_ipc) for w in steady)
    assert errs[len(errs) // 2] < 0.05, "PMU and gem5 IPC must overlap"
    assert any(w.gem5_ipc < 0.01 for w in result.windows), \
        "sleep separators must be visible as IPC=0"
    loss_frac = result.lost_events() / max(result.total_committed, 1)
    assert 0 <= loss_frac < 0.02, "event losses should be small"
