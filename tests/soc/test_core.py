"""OoO core model: issue/commit behaviour, queues, sleep, event wires."""

import pytest

from repro.soc.cpu.core import EventWire, OoOCore
from repro.soc.cpu.uop import UopStream, alu, branch, load, sleep, store
from repro.soc.mem.ideal import IdealMemory
from repro.soc.simobject import Simulation


def make_rig(latency=1, **core_kwargs):
    sim = Simulation()
    core = OoOCore(sim, "cpu", **core_kwargs)
    mem = IdealMemory(sim, "mem", latency_cycles=latency)
    core.dcache_port.connect(mem.port)
    return sim, core, mem


def run_to_done(sim, core, max_ticks=10**10):
    sim.startup()
    while not core.done and sim.now < max_ticks:
        sim.run(until=sim.now + 10**6)
    assert core.done, "core did not finish"


class TestCommit:
    def test_all_uops_commit(self):
        sim, core, _ = make_rig()
        core.run_stream([alu(1)] * 100)
        run_to_done(sim, core)
        assert core.st_committed.value() == 100

    def test_alu_only_ipc_close_to_issue_width(self):
        sim, core, _ = make_rig()
        core.run_stream([alu(1)] * 3000)
        run_to_done(sim, core)
        assert core.ipc() > 2.0  # 3-wide issue

    def test_commit_width_bounds_ipc(self):
        sim, core, _ = make_rig(issue_width=8, commit_width=2)
        core.run_stream([alu(1)] * 2000)
        run_to_done(sim, core)
        assert core.ipc() <= 2.0 + 1e-9

    def test_loads_and_stores_counted(self):
        sim, core, _ = make_rig()
        core.run_stream([load(0x100), store(0x200), alu(1)] * 50)
        run_to_done(sim, core)
        assert core.st_loads.value() == 50
        assert core.st_stores.value() == 50
        assert core.st_committed.value() == 150


class TestBranches:
    def test_mispredicts_slow_execution(self):
        def stream(mispredict):
            return [u for _ in range(500)
                    for u in (alu(1), branch(mispredict))]

        sim1, core1, _ = make_rig()
        core1.run_stream(stream(False))
        run_to_done(sim1, core1)

        sim2, core2, _ = make_rig()
        core2.run_stream(stream(True))
        run_to_done(sim2, core2)

        assert core2.st_mispredicts.value() == 500
        assert core1.st_mispredicts.value() == 0
        assert core2.st_cycles.value() > 3 * core1.st_cycles.value()

    def test_branch_stats(self):
        sim, core, _ = make_rig()
        core.run_stream([branch(False), branch(True)] * 10)
        run_to_done(sim, core)
        assert core.st_branches.value() == 20
        assert core.st_mispredicts.value() == 10


class TestMemoryBehaviour:
    def test_load_latency_hides_with_ilp(self):
        """Independent loads overlap: runtime << loads * latency."""
        sim, core, _ = make_rig(latency=20)
        n = 200
        core.run_stream([load(i * 64) for i in range(n)])
        run_to_done(sim, core)
        serial_cycles = n * 20
        assert core.st_cycles.value() < serial_cycles / 2

    def test_ldq_bounds_outstanding_loads(self):
        sim, core, mem = make_rig(latency=50, ldq_size=4)
        core.run_stream([load(i * 64) for i in range(40)])
        sim.startup()
        peak = 0
        while not core.done:
            sim.run(until=sim.now + 1000)
            peak = max(peak, core._ldq_used)
        assert peak <= 4

    def test_rob_limits_window(self):
        sim, core, _ = make_rig(latency=100, rob_size=8)
        core.run_stream([load(0x40), *([alu(1)] * 20)] * 10)
        sim.startup()
        peak = 0
        while not core.done:
            sim.run(until=sim.now + 1000)
            peak = max(peak, len(core._rob))
        assert peak <= 8


class TestSleep:
    def test_sleep_advances_cycles_without_commits(self):
        sim, core, _ = make_rig()
        core.run_stream([alu(1), sleep(5000), alu(1)])
        run_to_done(sim, core)
        assert core.st_sleep_cycles.value() == 5000
        assert core.st_cycles.value() >= 5000
        assert core.st_committed.value() == 2

    def test_sleep_drains_rob_first(self):
        sim, core, _ = make_rig(latency=30)
        core.run_stream([load(0x40), sleep(100), alu(1)])
        run_to_done(sim, core)
        assert core.st_committed.value() == 2


class TestEventWire:
    def test_pulse_and_drain(self):
        w = EventWire("w")
        w.pulse(3)
        assert w.drain(2) == 2
        assert w.count == 1
        assert w.drain() == 1
        assert w.count == 0

    def test_commit_wire_totals_match(self):
        sim, core, _ = make_rig()
        core.run_stream([alu(1)] * 123)
        sim.startup()
        drained = 0
        while not core.done:
            sim.run(until=sim.now + 500)
            drained += core.commit_wire.drain()
        drained += core.commit_wire.drain()
        assert drained == 123


class TestDone:
    def test_on_done_callback(self):
        sim, core, _ = make_rig()
        fired = []
        core.run_stream([alu(1)] * 10)
        core.on_done = lambda: fired.append(True)
        run_to_done(sim, core)
        assert fired == [True]

    def test_empty_stream_finishes(self):
        sim, core, _ = make_rig()
        core.run_stream([])
        run_to_done(sim, core)
        assert core.st_committed.value() == 0

    def test_uop_stream_lookahead(self):
        s = UopStream(iter([alu(1), alu(2)]))
        assert s.peek() == (0, 1)
        assert s.pop() == (0, 1)
        assert s.pop() == (0, 2)
        assert s.exhausted
        assert s.consumed == 2
