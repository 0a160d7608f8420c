"""Cycles that are counted, not dispatched: the core steps over its own
front-end stall windows (DESIGN.md).

Every case compares the core against a reference whose window
computation returns 0, so that it dispatches every edge the way the
core always did: same statistics at every stop, same commit pulses, same
end — with fewer events.
"""

import random

import pytest

from repro.soc import system
from repro.soc.cpu.core import EventWire, OoOCore
from repro.soc.cpu.uop import alu, branch, load, store
from repro.soc.event import EventPriority
from repro.soc.mem.ideal import IdealMemory
from repro.soc.simobject import Simulation
from repro.workloads.sorting import sort_benchmark


class SteppedCore(OoOCore):
    """The reference: no edge is stepped over."""

    def _stall_window(self) -> int:
        return 0


class RecordingWire(EventWire):
    def __init__(self, name, sim):
        super().__init__(name)
        self.sim = sim
        self.pulses = []

    def pulse(self, n=1):
        self.pulses.append((self.sim.now, n))
        super().pulse(n)


HANDLER = [store(0x9000), load(0x9040), alu(1), alu(2), branch(True), alu(1)]


def _sort_run(core_cls, stops):
    """The sort stream with interrupts raised at seeded ticks; returns
    (stats at every stop, commit pulses, end tick), events, windows hit."""
    sim = Simulation()
    core = core_cls(sim, "cpu")
    mem = IdealMemory(sim, "mem", latency_cycles=3)
    core.dcache_port.connect(mem.port)
    core.commit_wire = RecordingWire("cpu.commits", sim)
    core.run_stream(sort_benchmark(n=24, sleep_cycles=300))
    rng = random.Random(11)
    for _ in range(40):
        sim.eventq.schedule_fn(
            lambda: core.raise_interrupt(list(HANDLER)),
            rng.randrange(1_000, 4_000_000))
    sim.startup()
    dumps, mid_window = [], 0
    for stop in stops:
        sim.run(until=stop)
        mid_window += bool(core._skip_from)
        dumps.append((sim.now, core.cycle, sim.stats_dump()))
    while not core.done:
        sim.run(until=sim.now + 1_000_000)
    end = (sim.now, core.cycle, sim.stats_dump())
    return ((dumps, core.commit_wire.pulses, end),
            sim.eventq.executed, mid_window)


def _stops(seed, count, span, period=500):
    rng = random.Random(seed)
    stops = {rng.randrange(1, span) for _ in range(count)}
    # on an edge, one tick either side of one, and mid-period
    stops |= {(rng.randrange(1, span) // period) * period + d
              for d in (0, 0, 0, 1, period - 1) for _ in range(3)}
    return sorted(stops)


class TestCoreStepsOverStallWindows:
    def test_every_read_matches_the_stepped_core(self):
        stops = _stops(5, 40, 3_000_000)
        stepped, stepped_events, none = _sort_run(SteppedCore, stops)
        windowed, events, mid_window = _sort_run(OoOCore, stops)
        assert none == 0 and mid_window >= 5  # stops did land in windows
        for got, want in zip(windowed[0], stepped[0]):
            assert got == want, f"stats differ at tick {want[0]}"
        assert windowed == stepped
        assert windowed[2][2]["system.cpu.interrupts"] >= 20
        assert events < 0.8 * stepped_events

    def test_window_ends_where_an_alu_uop_completes(self):
        """A long-latency ALU µop under a mispredict: the window ends at
        its completion, not at the end of the stall."""
        def run(core_cls):
            sim = Simulation()
            core = core_cls(sim, "cpu")
            core.dcache_port.connect(IdealMemory(sim, "mem").port)
            core.commit_wire = RecordingWire("cpu.commits", sim)
            core.run_stream([alu(5), branch(True), alu(1), alu(30),
                             branch(True), alu(1)])
            sim.run()
            return core.commit_wire.pulses, sim.stats_dump(), sim.now

        assert run(OoOCore) == run(SteppedCore)

    def test_reset_inside_a_window_counts_from_the_reset(self):
        """An interval dump (dump-and-reset) in mid-window: the edges
        before it belong to the old interval, the rest to the new."""
        def run(core_cls):
            sim = Simulation()
            core = core_cls(sim, "cpu")
            core.dcache_port.connect(IdealMemory(sim, "mem").port)
            core.run_stream([alu(1), branch(True)] + [alu(1)] * 4)
            period = core.clock.period
            sim.run(until=6 * period + 1)
            first = sim.root_stats.dump_and_reset()
            sim.run()
            return first, sim.stats_dump()

        windowed, stepped = run(OoOCore), run(SteppedCore)
        assert windowed == stepped
        assert windowed[0]["system.cpu.cycles"] == 6
        assert windowed[0]["system.cpu.issue_stalls"] > 0

    def test_queued_clock_event_ends_the_window(self):
        """The ordering argument's fallback: an event already queued at
        clock priority would fire before an edge armed now and may read
        the core, so that edge is dispatched, not stepped over."""
        sim = Simulation()
        core = OoOCore(sim, "cpu")
        core.dcache_port.connect(IdealMemory(sim, "mem").port)
        core.run_stream([alu(1), branch(True)] + [alu(1)] * 4)
        period = core.clock.period
        seen = []
        sim.eventq.schedule_fn(
            lambda: seen.append((core.cycle, core._cycle_event.when())),
            5 * period, EventPriority.CLOCK)
        sim.run()
        # it fired first in its tick, before that tick's edge: 4 edges
        # counted, the fifth armed for this very tick
        assert seen == [(4, 5 * period)]

        twin = Simulation()
        ref = SteppedCore(twin, "cpu")
        ref.dcache_port.connect(IdealMemory(twin, "mem").port)
        ref.run_stream([alu(1), branch(True)] + [alu(1)] * 4)
        twin.eventq.schedule_fn(lambda: None, 5 * period,
                                EventPriority.CLOCK)
        twin.run()
        assert sim.stats_dump() == twin.stats_dump()
        assert sim.now == twin.now


class TestSameTickOrderWithAPMU:
    """Stepping over cycles arms the core's edge event earlier, so it
    can only move *earlier* within its tick; what a PMU beside it
    samples is unchanged at every clock ratio (at 1 GHz its tick is the
    queued clock event that ends the core's windows)."""

    @pytest.mark.parametrize("pmu_freq_hz", [1e9, 2e9, 4e9])
    def test_pmu_sees_the_same_core(self, monkeypatch, pmu_freq_hz):
        from repro.dse.pmu_experiment import (
            COMMIT_LANES, CYCLE_LANE, MISS_LANE, build_pmu_system,
        )

        def run(core_cls):
            monkeypatch.setattr(system, "OoOCore", core_cls)
            soc, pmu, drv = build_pmu_system(
                n_sort=14, sleep_cycles=1_200, pmu_freq_hz=pmu_freq_hz)
            assert type(soc.cores[0]) is core_cls
            lanes = (*COMMIT_LANES, MISS_LANE, CYCLE_LANE)
            drv.enable(sum(1 << lane for lane in lanes))
            drv.set_threshold(CYCLE_LANE, 450)
            drv.set_threshold(COMMIT_LANES[0], 200)
            irqs = []
            pmu.on_interrupt(irqs.append)
            pmu.attach_core_handler(soc.cores[0])
            soc.run_until_done(max_ticks=10**9)
            stats = soc.sim.stats_dump()
            counters = [pmu.library.peek_counter(lane) for lane in lanes]
            return ((irqs, counters, stats["system.pmu.events_deferred"],
                     soc.sim.now, stats), soc.sim.eventq.executed)

        stepped, stepped_events = run(SteppedCore)
        windowed, events = run(OoOCore)
        assert windowed == stepped
        assert len(windowed[0]) > 20
        assert events < stepped_events
