"""Fig. 6 (a,b,c) — GoogleNet design-space exploration.

For 1/2/4 NVDLA instances, sweeps the per-instance in-flight request cap
across the five memory technologies, normalized to an ideal 1-cycle
memory — the paper's exact grid.
"""

import pytest
from conftest import dse_grid, workload_scale, write_artifact

from repro.dse.render import render_dse
from repro.dse.sweep import run_dse

INFLIGHT, MEMORIES, COUNTS = dse_grid()
SUB = {1: "a", 2: "b", 4: "c"}


@pytest.mark.parametrize("n_nvdla", COUNTS)
def test_fig6_googlenet(benchmark, artifact, n_nvdla):
    result = benchmark.pedantic(
        run_dse,
        args=("googlenet", n_nvdla),
        kwargs={
            "inflight_sweep": INFLIGHT,
            "memories": MEMORIES,
            "scale": workload_scale("googlenet"),
        },
        rounds=1,
        iterations=1,
    )
    artifact(
        f"fig6{SUB.get(n_nvdla, n_nvdla)}_googlenet_{n_nvdla}nvdla.txt",
        render_dse(result, inflight_sweep=INFLIGHT),
    )

    lo, hi = min(INFLIGHT), max(INFLIGHT)
    for memory in MEMORIES:
        series = result.normalized[memory]
        # more in-flight never hurts dramatically, and tiny windows starve
        assert series[lo] < 0.6
        assert series[hi] <= 1.05
    # high-bandwidth memory dominates DDR4-1ch at full window
    assert result.normalized["HBM"][hi] > result.normalized["DDR4-1ch"][hi]
    if n_nvdla == 1:
        # single instance: everything except DDR4-1ch is near-ideal
        for memory in MEMORIES:
            if memory != "DDR4-1ch":
                assert result.normalized[memory][hi] > 0.9
