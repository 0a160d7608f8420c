"""Cycles that are counted, not dispatched: the core steps over its own
front-end stall windows (DESIGN.md).

Every case compares the core against a reference whose window
computation returns 0, so that it dispatches every edge the way the
core always did: same statistics at every stop, same commit pulses, same
end — with fewer events.
"""

import pytest

from repro.soc.cpu.core import EventWire, OoOCore
from repro.soc.cpu.uop import alu, branch, load, store
from repro.soc.event import EventPriority
from repro.soc.mem.ideal import IdealMemory
from repro.soc.simobject import Simulation
from repro.workloads.sorting import sort_benchmark
from tests.owing import Probes, SteppedCore, assert_owing_matches, fig5_run


class RecordingWire(EventWire):
    def __init__(self, name, sim):
        super().__init__(name)
        self.sim = sim
        self.pulses = []

    def pulse(self, n=1):
        self.pulses.append((self.sim.now, n))
        super().pulse(n)


HANDLER = [store(0x9000), load(0x9040), alu(1), alu(2), branch(True), alu(1)]
STALL = [alu(1), branch(True)] + [alu(1)] * 4


def _core(cls, uops):
    sim = Simulation()
    core = cls(sim, "cpu")
    core.dcache_port.connect(IdealMemory(sim, "mem").port)
    core.commit_wire = RecordingWire("cpu.commits", sim)
    core.run_stream(uops)
    return sim, core


def _sort_run(stepped):
    """The sort stream with interrupts raised at seeded ticks, read by
    the harness's probes; returns (probes, commit pulses, end),
    events, probes mid-window."""
    sim = Simulation()
    core = (SteppedCore if stepped else OoOCore)(sim, "cpu")
    mem = IdealMemory(sim, "mem", latency_cycles=3)
    core.dcache_port.connect(mem.port)
    core.commit_wire = RecordingWire("cpu.commits", sim)
    core.run_stream(sort_benchmark(n=24, sleep_cycles=300))
    probes = Probes(sim, core, 5, 3_000_000, observe=lambda: core.cycle)
    for _ in range(40):
        probes.at(lambda: core.raise_interrupt(list(HANDLER)),
                  probes.rng.randrange(1_000, 4_000_000),
                  EventPriority.DEFAULT)
    seen = probes.dumps(30).stop_at(40).run()
    while not core.done:
        sim.run(until=sim.now + 1_000_000)
    end = (sim.now, core.cycle, sim.stats_dump())
    return (seen, core.commit_wire.pulses, end), sim.eventq.executed, \
        probes.mid


class TestCoreStepsOverStallWindows:
    def test_every_read_matches_the_stepped_core(self):
        seen, _pulses, end = assert_owing_matches(_sort_run, 10, 0.8)
        assert end[2]["system.cpu.interrupts"] >= 20
        assert sum(kind == "dump" for kind, *_ in seen) == 30

    def test_window_ends_where_an_alu_uop_completes(self):
        """A long-latency ALU µop under a mispredict: the window ends at
        its completion, not at the end of the stall."""
        def run(core_cls):
            sim, core = _core(core_cls, [alu(5), branch(True), alu(1),
                                         alu(30), branch(True), alu(1)])
            sim.run()
            return core.commit_wire.pulses, sim.stats_dump(), sim.now

        assert run(OoOCore) == run(SteppedCore)

    def test_reset_inside_a_window_counts_from_the_reset(self):
        """An interval dump (dump-and-reset) in mid-window: the edges
        before it belong to the old interval, the rest to the new."""
        def run(core_cls):
            sim, core = _core(core_cls, STALL)
            sim.run(until=6 * core.clock.period + 1)
            first = sim.stats_dump()
            sim.root_stats.reset()
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
        sim, core = _core(OoOCore, STALL)
        period = core.clock.period
        seen = []
        sim.eventq.schedule_fn(
            lambda: seen.append((core.cycle, core._cycle_event.when())),
            5 * period, EventPriority.CLOCK)
        sim.run()
        # it fired first in its tick, before that tick's edge: 4 edges
        # counted, the fifth armed for this very tick
        assert seen == [(4, 5 * period)]

        twin, _ = _core(SteppedCore, STALL)
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
        seen = assert_owing_matches(
            lambda stepped: fig5_run(monkeypatch, stepped_core=stepped,
                                     pmu_freq_hz=pmu_freq_hz, seed=4,
                                     owner="core"), 5)[0]
        assert sum(kind == "irq" for kind, *_ in seen) > 20

    @pytest.mark.parametrize("pmu_freq_hz", [1e9, 2e9, 4e9])
    def test_a_flip_inside_a_window_leaves_the_slower_pmu_in_step(
            self, monkeypatch, pmu_freq_hz):
        """Flips and MMIO reads that end the PMU's lag inside a stall
        window: the window ends at the PMU's re-armed edge
        (``OoOCore.edge_armed``), so at 1 GHz the interrupts at ticks
        1 095 000 and 2 445 000 read ``core.cycle`` 2189 and 4889, as
        stepped (2190 and 4890 when the window ran on)."""
        seen = assert_owing_matches(
            lambda stepped: fig5_run(
                monkeypatch, stepped_core=stepped, pmu_freq_hz=pmu_freq_hz,
                seed="counters[5]8", flips=[("counters[5]", 8)] * 4,
                owner="core"), 5)[0]
        irqs = [entry for entry in seen if entry[0] == "irq"]
        assert len(irqs) > 20
        if pmu_freq_hz == 1e9:
            assert [(tick, cycle) for _, tick, *_, cycle in irqs
                    if tick in (1_095_000, 2_445_000)] == [
                (1_095_000, 2189), (2_445_000, 4889)]
