"""OoO core model: issue/commit behaviour, queues, sleep, event wires."""

import random
import sys

import pytest

from repro.soc.cpu.core import EventWire, OoOCore
from repro.soc.cpu.uop import (
    CHUNK, END, END_UOP, UopStream, alu, branch, load, sleep, store,
)
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


class _OneAtATime:
    """The reference reader: one µop taken from the source per pop."""

    def __init__(self, source):
        self._it, self._next, self.consumed = iter(source), None, 0

    def peek(self):
        if self._next is None:
            self._next = next(self._it, END_UOP)
        return self._next

    def pop(self):
        uop = self.peek()
        if uop[0] != END:
            self._next, self.consumed = None, self.consumed + 1
        return uop

    def skip(self, n):
        for _ in range(n):
            self.pop()


LENGTHS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def _source(n):
    return (load(8 * i) for i in range(n))


class TestBlockBuffer:
    """``UopStream`` reads its source a block at a time; what comes out
    is what a reader taking one µop at a time would give."""

    @pytest.mark.parametrize("n", LENGTHS)
    def test_pops_match_the_reference(self, n):
        got, ref = UopStream(_source(n)), _OneAtATime(_source(n))
        while ref.peek()[0] != END:
            assert got.peek() == ref.peek()
            assert got.pop() == ref.pop()
            assert got.consumed == ref.consumed
        for _ in range(3):              # END for ever after the end
            assert got.pop() == got.peek() == END_UOP
            assert got.exhausted
        assert got.consumed == ref.consumed == n

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_interleavings_match_the_reference(self, n, seed):
        rng = random.Random(seed)
        got, ref = UopStream(_source(n)), _OneAtATime(_source(n))
        for _ in range(60):
            op = rng.choice(("peek", "pop", "skip"))
            if op == "skip":
                k = rng.choice((0, 1, rng.randrange(2 * CHUNK + 3)))
                got.skip(k)
                ref.skip(k)
            else:
                assert getattr(got, op)() == getattr(ref, op)()
            assert got.consumed == ref.consumed
            assert got.exhausted == (ref.peek()[0] == END)
        assert got.peek() == ref.peek()

    @pytest.mark.parametrize("n", LENGTHS)
    def test_skip_past_the_end_stops_at_end(self, n):
        s = UopStream(_source(n))
        s.skip(n + CHUNK + 5)
        assert s.consumed == n
        assert s.peek() == END_UOP
        s.skip(3)
        assert s.consumed == n

    def test_a_handler_over_a_part_read_block_returns_to_the_next_uop(self):
        class Recorder(IdealMemory):
            def _recv_req(self, pkt):
                seen.append(pkt.addr)
                return super()._recv_req(pkt)

        seen = []
        sim = Simulation()
        core = OoOCore(sim, "cpu")
        core.dcache_port.connect(Recorder(sim, "mem").port)
        main = [8 * i for i in range(3 * CHUNK + 7)]
        handler = [0x10_0000 + 8 * j for j in range(5)]
        core.run_stream([load(addr) for addr in main])
        sim.startup()
        while core.stream.consumed < CHUNK + CHUNK // 2:
            sim.run(until=sim.now + 500)
        core.raise_interrupt([load(addr) for addr in handler])
        run_to_done(sim, core)
        k = seen.index(handler[0])
        assert 0 < k < len(main) and k % CHUNK, "not inside a block"
        assert seen == main[:k] + handler + main[k:]
        assert core.st_interrupts.value() == 1


def _count_calls(fn):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(outer)
    return calls


def test_python_calls_per_core_cycle_stay_in_budget():
    """A count, not a timer: Python-level calls of the smoke-size plain
    Fig. 5 body (the sort on the bare SoC, ``n_sort=12``, 2 000-cycle
    sleeps), on the second of two identical runs (the first pays the
    lazy imports).  The count is exact: the same under any
    ``PYTHONHASHSEED``.  Pinned when the core read its µop stream a
    block at a time, the sort kernels yielded shared µops, commit
    stopped rebuilding its ALU list, the cycle re-armed from its clock's
    period and the L1 hit path read the tick, period and command
    directly: 93 152 calls for 14 677 cycles (6.3 per cycle), against
    153 196 (10.4) before; 5 % headroom, so none of the paths can
    quietly grow back."""
    from repro.dse.pmu_experiment import build_pmu_system

    def body():
        soc = build_pmu_system(n_sort=12, with_pmu=False,
                               sleep_cycles=2_000)[0]
        return soc, soc.cores[0]

    soc, core = body()
    soc.run_until_done(cores=[core], max_ticks=10**12)
    soc, core = body()
    calls = _count_calls(
        lambda: soc.run_until_done(cores=[core], max_ticks=10**12))
    cycles = core.st_cycles.value()
    assert cycles == 14_677
    assert calls <= 93_152 * 1.05, f"{calls / cycles:.2f} calls per cycle"


def test_python_calls_per_restore_stay_in_budget(tmp_path):
    """One ``sim.restore`` of ``build_pmu_system(n_sort=60)`` saved at
    cycle 3 000 (2 556 µops taken), counted on the second of two
    restores.  A restore skips the re-attached stream to its place a
    block at a time; what is left is the sort generator producing the
    skipped µops.  Pinned at 8 713 calls, against 17 319 when the
    restore popped the stream one µop at a time; 5 % headroom.  The
    count is the same under any ``PYTHONHASHSEED``."""
    from repro.dse.pmu_experiment import build_pmu_system

    soc = build_pmu_system(n_sort=60)[0]
    soc.sim.startup()
    soc.sim.run(until=3_000 * soc.sim.default_clock.period)
    path = tmp_path / "mid.ckpt"
    soc.sim.save_checkpoint(path)
    build_pmu_system(n_sort=60)[0].sim.restore(path)
    soc = build_pmu_system(n_sort=60)[0]
    calls = _count_calls(lambda: soc.sim.restore(path))
    assert soc.cores[0].stream.consumed == 2_556
    assert calls <= 8_713 * 1.05, calls
