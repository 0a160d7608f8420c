"""PMU inside the SoC: RTLObject wiring, MMIO driver, interrupt sampling."""

import pytest

from repro.models.pmu.driver import PMUDriver
from repro.models.pmu.rtl_object import PMURTLObject
from repro.models.pmu.wrapper import PMUSharedLibrary
from repro.soc.cpu.uop import alu, branch, load
from repro.soc.cpu.core import EventWire
from repro.soc.system import SoC, SoCConfig


@pytest.fixture
def rig():
    soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
    pmu = PMURTLObject(soc.sim, "pmu", PMUSharedLibrary(),
                       clock=soc.sim.default_clock)
    soc.attach_rtl_cpu_side(pmu)
    drv = PMUDriver(soc.iomaster)
    return soc, pmu, drv


def small_workload(n=400):
    import random

    rng = random.Random(5)
    for _ in range(n):
        yield load(rng.randrange(0, 1 << 16) & ~7)
        yield alu(1)
        yield branch(rng.random() < 0.1)


class TestWiring:
    def test_commit_counts_match_simulator_stats(self, rig):
        soc, pmu, drv = rig
        core = soc.cores[0]
        pmu.connect_event(0, core.commit_wire, lanes=4)
        drv.enable(0b1111)
        soc.sim.startup()
        soc.sim.run(until=soc.sim.now + 30 * 500)
        core.run_stream(small_workload())
        soc.run_until_done()
        soc.sim.run(until=soc.sim.now + 100 * 500)
        values = {}
        drv.read_counters([0, 1, 2, 3], lambda r: values.update(r))
        soc.sim.run(until=soc.sim.now + 10**6)
        pmu.stop()
        assert sum(values.values()) == core.st_committed.value()

    def test_miss_counts_match(self, rig):
        soc, pmu, drv = rig
        core = soc.cores[0]
        wire = EventWire("miss")
        soc.l1ds[0].miss_listeners.append(lambda pkt: wire.pulse())
        pmu.connect_event(4, wire)
        drv.enable(1 << 4)
        # let the enable MMIO write land before events start flowing
        soc.sim.startup()
        soc.sim.run(until=soc.sim.now + 30 * 500)
        core.run_stream(small_workload())
        soc.run_until_done()
        # let deferred pulses (multiple misses in one cycle share a lane)
        # drain before sampling
        soc.sim.run(until=soc.sim.now + 100 * 500)
        values = {}
        drv.read_counter(4, lambda v: values.update({4: v}))
        soc.sim.run(until=soc.sim.now + 10**6)
        pmu.stop()
        assert values[4] == soc.l1ds[0].st_misses.value()

    def test_clock_event_counts_pmu_cycles(self, rig):
        soc, pmu, drv = rig
        pmu.connect_clock_event(5)
        drv.enable(1 << 5)
        soc.sim.startup()
        soc.sim.run(until=soc.sim.now + 500 * 500)  # 500 cycles at 2GHz
        values = {}
        drv.read_counter(5, lambda v: values.update({5: v}))
        soc.sim.run(until=soc.sim.now + 10**6)
        pmu.stop()
        # counter tracks cycles since enable (minus MMIO latency)
        assert 400 <= values[5] <= 3000

    def test_periodic_interrupts(self, rig):
        soc, pmu, drv = rig
        pmu.connect_clock_event(5)
        drv.enable(1 << 5)
        drv.set_threshold(5, 100)
        irqs = []
        pmu.on_interrupt(lambda t: irqs.append(t))
        soc.sim.startup()
        soc.sim.run(until=soc.sim.now + 1000 * 500)  # 1000 cycles
        pmu.stop()
        assert 8 <= len(irqs) <= 11
        gaps = [b - a for a, b in zip(irqs, irqs[1:])]
        assert all(abs(g - 100 * 500) <= 2 * 500 for g in gaps)

    def test_lane_overlap_rejected(self, rig):
        soc, pmu, _ = rig
        wire = EventWire("w")
        pmu.connect_event(0, wire, lanes=4)
        with pytest.raises(ValueError):
            pmu.connect_event(3, EventWire("x"))

    def test_lane_range_validated(self, rig):
        soc, pmu, _ = rig
        with pytest.raises(ValueError):
            pmu.connect_event(18, EventWire("w"), lanes=4)

    def test_event_deferral_when_lanes_exceeded(self, rig):
        """More pulses than lanes in one tick are deferred, not lost."""
        soc, pmu, drv = rig
        wire = EventWire("burst")
        pmu.connect_event(0, wire, lanes=1)
        drv.enable(0b1)
        soc.sim.startup()
        soc.sim.run(until=soc.sim.now + 30 * 500)  # enable lands first
        wire.pulse(10)  # burst of 10 events into one lane
        soc.sim.run(until=soc.sim.now + 60 * 500)
        values = {}
        drv.read_counter(0, lambda v: values.update({0: v}))
        soc.sim.run(until=soc.sim.now + 10**6)
        pmu.stop()
        assert values[0] == 10
        assert pmu.st_events_deferred.value() > 0


class TestCoreHandler:
    def test_isr_on_core_consumes_cycles(self, rig):
        """The paper's counter-dump handler runs on the core; attaching
        it perturbs the measured program (visible as extra cycles)."""
        soc, pmu, drv = rig
        core = soc.cores[0]
        pmu.connect_clock_event(5)
        pmu.attach_core_handler(core)
        drv.enable(1 << 5)
        drv.set_threshold(5, 1000)   # frequent interrupts
        soc.sim.startup()
        soc.sim.run(until=soc.sim.now + 30 * 500)
        core.run_stream(small_workload(3000))
        soc.run_until_done()
        pmu.stop()
        assert core.st_interrupts.value() >= 3
        # handler instructions were committed on top of the program's
        assert core.st_committed.value() > 3000 * 3
