#!/usr/bin/env python3
"""NVDLA use case (paper §4.2 / Figs. 6-7): memory-system design space.

Integrates NVDLA instances into the SoC and explores how many in-flight
memory requests each needs, and which memory technology feeds them —
a small slice of the paper's full sweep (the complete Figs. 6/7 grids
are regenerated by benchmarks/test_fig6... and test_fig7...).

Run:  python examples/nvdla_dse.py [workload] [n_nvdla] [jobs]
"""

import sys

from repro.dse.render import render_dse
from repro.dse.sweep import run_dse
from repro.parallel.progress import ProgressReporter


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "sanity3"
    n_nvdla = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    jobs = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    inflight = (4, 16, 64, 240)
    memories = ("DDR4-1ch", "DDR4-4ch", "HBM")

    print(f"design-space exploration: {workload}, {n_nvdla} NVDLA instance(s)")
    print(f"in-flight sweep {inflight} × memories {memories}\n")
    result = run_dse(
        workload, n_nvdla, inflight_sweep=inflight, memories=memories,
        jobs=jobs,
        progress=ProgressReporter(len(inflight) * len(memories) + 1, "dse"),
    )
    print(render_dse(result, inflight_sweep=inflight))

    # the paper's takeaways, observed:
    hbm = result.normalized["HBM"]
    print()
    if hbm[64] > 1.5 * hbm[4]:
        print(f"* latency hiding matters: HBM goes {hbm[4]:.2f} -> "
              f"{hbm[64]:.2f} from 4 to 64 in-flight requests")
    d1 = result.normalized["DDR4-1ch"][240]
    print(f"* DDR4-1ch at full in-flight reaches only {d1:.2f} of ideal "
          f"({n_nvdla} instance(s) oversubscribe one channel)")
    print(f"* wall time: {result.wall_seconds:.1f}s elapsed "
          f"({result.point_seconds:.1f}s simulated, jobs={jobs}) for "
          f"{len(inflight) * len(memories) + 1} full-system simulations")


if __name__ == "__main__":
    main()
