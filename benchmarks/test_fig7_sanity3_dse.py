"""Fig. 7 (a,b,c) — Sanity3 design-space exploration.

The memory-intensive workload: sharper sensitivity to both the in-flight
window and the memory technology than GoogleNet (Fig. 6).
"""

import pytest
from conftest import dse_grid, workload_scale, write_artifact

from repro.dse.render import render_dse
from repro.dse.sweep import run_dse

INFLIGHT, MEMORIES, COUNTS = dse_grid()
SUB = {1: "a", 2: "b", 4: "c"}


@pytest.mark.parametrize("n_nvdla", COUNTS)
def test_fig7_sanity3(benchmark, artifact, n_nvdla):
    result = benchmark.pedantic(
        run_dse,
        args=("sanity3", n_nvdla),
        kwargs={
            "inflight_sweep": INFLIGHT,
            "memories": MEMORIES,
            "scale": workload_scale("sanity3"),
        },
        rounds=1,
        iterations=1,
    )
    artifact(
        f"fig7{SUB.get(n_nvdla, n_nvdla)}_sanity3_{n_nvdla}nvdla.txt",
        render_dse(result, inflight_sweep=INFLIGHT),
    )

    lo, hi = min(INFLIGHT), max(INFLIGHT)
    hbm = result.normalized["HBM"]
    ddr1 = result.normalized["DDR4-1ch"]
    # the paper's headline: a deep in-flight window is mandatory —
    # 64 suffices up to two instances; four need the full 240 window
    assert hbm[lo] < 0.25
    if 64 in INFLIGHT and n_nvdla <= 2:
        assert hbm[64] > 0.75
    assert hbm[hi] > 0.75
    # DDR4-1ch cannot feed even one instance at full window
    assert ddr1[hi] < 0.85
    if n_nvdla >= 2:
        # one channel collapses under multiple accelerators
        assert ddr1[hi] < 0.5
        assert hbm[hi] > ddr1[hi] + 0.3
