"""Core interrupt delivery: handler streams steal core cycles."""

import pytest

from repro.soc.cpu.core import OoOCore
from repro.soc.cpu.uop import alu, load, store
from repro.soc.mem.ideal import IdealMemory
from repro.soc.simobject import Simulation


def make_rig():
    sim = Simulation()
    core = OoOCore(sim, "cpu")
    mem = IdealMemory(sim, "m", latency_cycles=2)
    core.dcache_port.connect(mem.port)
    return sim, core


def run_to_done(sim, core):
    sim.startup()
    while not core.done:
        sim.run(until=sim.now + 10**6)


class TestInterrupts:
    def test_handler_uops_commit(self):
        sim, core = make_rig()
        core.run_stream([alu(1)] * 1000)
        sim.startup()
        sim.run(until=sim.now + 50 * 500)
        core.raise_interrupt([alu(1)] * 25)
        run_to_done(sim, core)
        assert core.st_committed.value() == 1025
        assert core.st_interrupts.value() == 1

    def test_interrupts_steal_cycles(self):
        def run(with_irqs):
            sim, core = make_rig()
            core.run_stream([alu(1)] * 3000)
            sim.startup()
            sim.run(until=sim.now + 20 * 500)
            if with_irqs:
                for _ in range(10):
                    core.raise_interrupt(
                        [load(0x100), alu(1), store(0x108)] * 10
                    )
            run_to_done(sim, core)
            return core.st_cycles.value()

        base = run(False)
        with_irq = run(True)
        assert with_irq > base + 10 * 30  # handler work + entry/exit

    def test_nested_return_to_interrupted_stream(self):
        sim, core = make_rig()
        core.run_stream([load(i * 8) for i in range(200)])
        sim.startup()
        sim.run(until=sim.now + 30 * 500)
        core.raise_interrupt([alu(1)] * 5)
        core.raise_interrupt([alu(1)] * 5)
        run_to_done(sim, core)
        assert core.st_committed.value() == 200 + 10
        assert core.st_interrupts.value() == 2

    def test_interrupt_while_idle_program_still_finishes(self):
        sim, core = make_rig()
        core.run_stream([alu(1)] * 10)
        run_to_done(sim, core)
        # late interrupt after completion is simply never taken
        core.raise_interrupt([alu(1)])
        sim.run(until=sim.now + 10**6)
        assert core.st_interrupts.value() == 0
