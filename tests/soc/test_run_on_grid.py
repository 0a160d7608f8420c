"""``Simulation.run_on_grid``, the one run-until-done loop, and the
budget paths of the runs built on it."""

from __future__ import annotations

import pytest

from repro.coherence.check import run_sharing_stress
from repro.resilience.targets import CacheRig
from repro.soc.cpu.uop import alu
from repro.soc.simobject import (
    CycleBudgetExceeded,
    Simulation,
    WallClockExceeded,
)
from repro.soc.system import SoC, SoCConfig


class TestGrid:
    def test_polls_on_absolute_boundaries(self):
        sim = Simulation()
        period = sim.default_clock.period
        sim.run(until=250 * period)          # off the grid, as a restore is
        seen = []
        end = sim.run_on_grid(lambda: sim.now >= 1_000 * period, 400, 10_000,
                              on_step=lambda: seen.append(sim.now // period))
        assert seen == [250, 400, 800, 1_200]
        assert end == sim.now == 1_200 * period

    def test_done_at_the_start_runs_nothing(self):
        sim = Simulation()
        assert sim.run_on_grid(lambda: True, 400, 0) == 0

    def test_budget_counts_from_reset(self):
        sim = Simulation()
        sim.run(until=700 * sim.default_clock.period)
        with pytest.raises(CycleBudgetExceeded, match="within 1000 cycles"):
            sim.run_on_grid(lambda: False, 400, 1_000)
        # the last step stops at the budget, not at the next boundary
        assert sim.now == 1_000 * sim.default_clock.period

    def test_wall_clock_deadline(self):
        sim = Simulation()
        with pytest.raises(WallClockExceeded):
            sim.run_on_grid(lambda: False, 400, 10_000, wall_deadline=0.0)
        assert sim.now == 0


def _soc_run():
    soc = SoC(SoCConfig(num_cores=2, memory="ideal"))

    def endless():
        while True:
            yield alu(1)

    soc.cores[0].run_stream(endless())
    soc.cores[1].run_stream(alu(1) for _ in range(10))
    return lambda: soc.run_until_done(max_ticks=10**6)


def _stress_run():
    return lambda: run_sharing_stress(cores=2, ops=300, seed=7,
                                      max_cycles=1_000)


def _cache_rig_run():
    rig = CacheRig({"idxw": 4, "requests": 48, "seed": 7, "gap_cycles": 60,
                    "span_lines": 8, "ecc": False})
    return lambda: rig.run(max_cycles=1_000)


@pytest.mark.parametrize("build, match", [
    (_soc_run, r"did not finish within 1000000 ticks "
               r"\(cpu0: running, \d+ committed; cpu1: done, 10 committed\)"),
    (_stress_run, "within 1000 cycles"),
    (_cache_rig_run, "within 1000 cycles"),
], ids=["soc", "sharing-stress", "cache-rig"])
def test_budget_raises_cycle_budget_exceeded(build, match):
    run = build()
    with pytest.raises(CycleBudgetExceeded, match=match) as err:
        run()
    assert isinstance(err.value, TimeoutError)
