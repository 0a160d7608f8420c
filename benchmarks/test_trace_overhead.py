"""Cost of the tracing layer when every debug flag is off.

gem5's DPRINTF compiles to nothing in fast builds; our Python
equivalent cannot, so the disabled path must be provably cheap — one
attribute load per call site.  This bench measures it two ways on the
Table 2 PMU workload (sort benchmark + PMU RTL model):

* directly: wall-clock with flags off vs. the untraced baseline is
  noise-dominated at this scale, so instead we *count* the guard
  evaluations the workload performs (by substituting counting flags)
  and multiply by a calibrated per-check cost measured in a tight
  loop.  That product over the run time is the overhead estimate and
  must stay under 2%.
* for context: the same workload with every flag enabled and output
  discarded, showing what full tracing costs (informational — tracing
  is opt-in, any slowdown there is paid knowingly).

Writes ``benchmarks/out/BENCH_trace_overhead.json``.
"""

from __future__ import annotations

import importlib
import json
import os
import time

from repro.dse.pmu_experiment import build_pmu_system
from repro.trace.flags import DebugFlag, reset_flags, set_flags, set_sink

from conftest import FAST

N_SORT = 40 if FAST else 120
REPEATS = 3
MAX_OVERHEAD_PCT = 2.0

# every (module, attribute) holding a registered flag that guards a
# call site on this workload's path
FLAG_SITES = [
    ("repro.soc.ports", "FLAG_PORTS"),
    ("repro.soc.tlb", "FLAG_TLB"),
    ("repro.soc.cache.cache", "FLAG_CACHE"),
    ("repro.soc.cache.core", "FLAG_MSHR"),
    ("repro.soc.interconnect.xbar", "FLAG_XBAR"),
    ("repro.soc.mem.dram", "FLAG_DRAM"),
    ("repro.soc.cpu.core", "FLAG_CPU"),
    ("repro.soc.iomaster", "FLAG_IO"),
    ("repro.bridge.rtl_object", "FLAG_RTL"),
    ("repro.bridge.rtl_object", "FLAG_RTL_BATCH"),
    ("repro.trace.packets", "FLAG_PACKET"),
]


class _CountingFlag:
    """Stand-in flag whose ``enabled`` read increments a shared counter.

    Call sites read their module-global FLAG on every check, so
    swapping the module attribute intercepts every guard evaluation.
    """

    def __init__(self, counter: list) -> None:
        self._counter = counter

    @property
    def enabled(self) -> bool:
        self._counter[0] += 1
        return False


def _run_workload() -> float:
    soc, pmu, drv = build_pmu_system(n_sort=N_SORT, with_pmu=True)
    drv.enable((1 << 6) - 1)
    t0 = time.perf_counter()
    soc.run_until_done(cores=[soc.cores[0]], max_ticks=10**12)
    elapsed = time.perf_counter() - t0
    pmu.stop()
    return elapsed


def _count_guard_checks() -> int:
    """Run the workload once with counting flags substituted."""
    counter = [0]
    saved = []
    try:
        for mod_name, attr in FLAG_SITES:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, _CountingFlag(counter))
        _run_workload()
    finally:
        for mod, attr, flag in saved:
            setattr(mod, attr, flag)
    return counter[0]


def _per_check_seconds() -> float:
    """Calibrated cost of one disabled-flag guard (``FLAG.enabled``)."""
    flag = DebugFlag("calib", "calibration only")
    n = 1_000_000
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            if flag.enabled:
                raise AssertionError
        guarded = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            pass
        empty = time.perf_counter() - t0
        best = min(best, max(guarded - empty, 0.0) / n)
    return best


def test_trace_overhead_flags_off(artifact):
    reset_flags()
    t_off = min(_run_workload() for _ in range(REPEATS))

    checks = _count_guard_checks()
    per_check = _per_check_seconds()
    est_pct = 100.0 * checks * per_check / t_off

    # informational: full tracing cost, output to the bit bucket
    with open(os.devnull, "w", encoding="utf-8") as sink:
        set_sink(sink)
        set_flags(["Ports", "TLB", "Cache", "Xbar", "DRAM", "CPU", "IO",
                   "RTL", "Packet"])
        try:
            t_on = _run_workload()
        finally:
            reset_flags()
            set_sink(None)

    artifact("BENCH_trace_overhead.json", json.dumps({
        "workload": f"table2-pmu-sort-n{N_SORT}",
        "flags_off_seconds": round(t_off, 4),
        "guard_checks": checks,
        "per_check_ns": round(per_check * 1e9, 2),
        "estimated_overhead_pct": round(est_pct, 4),
        "max_allowed_overhead_pct": MAX_OVERHEAD_PCT,
        "flags_on_seconds": round(t_on, 4),
        "flags_on_slowdown": round(t_on / t_off, 2),
    }, indent=2))

    assert checks > 1000, "counting flags saw no guard evaluations"
    assert est_pct < MAX_OVERHEAD_PCT, (
        f"disabled tracing costs {est_pct:.3f}% "
        f"({checks} checks x {per_check * 1e9:.1f} ns over {t_off:.2f}s)"
    )
