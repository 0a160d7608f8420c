"""Batched ticking through the bridge: tick_batch, and the lagged edges
a model runs at once (model-level lag_cycles, tick_varying) — all proven
against the single-stepped schedule, the stepped subclasses of the
owing-versus-stepped harness (``tests/owing.py``)."""

from __future__ import annotations

import io
import random
import re

import pytest

from repro.bridge.rtl_object import LAG_LIMIT
from repro.models.pmu.rtl_object import PMURTLObject
from repro.models.pmu.wrapper import (
    PMUSharedLibrary, counter_addr, threshold_addr, REG_ENABLE,
)
from repro.models.rtlcache.wrapper import RTLCacheObject
from repro.soc.cpu.core import EventWire
from repro.soc.event import ClockDomain, Event, EventPriority, EventQueue
from repro.soc.mem.ideal import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation
from tests.owing import Probes, SteppedCache, SteppedPMU, assert_owing_matches


class TestNextEventTick:
    """The earliest live event, as ``EventQueue.peek`` reports it."""

    def test_empty_queue(self):
        assert EventQueue().peek() is None

    def test_earliest_live_entry(self):
        q = EventQueue()
        q.schedule_fn(lambda: None, 500)
        q.schedule_fn(lambda: None, 100)
        assert q.peek() == (100, "fn")

    def test_skips_lazily_cancelled_entries(self):
        q = EventQueue()
        ev = q.schedule(Event(lambda: None, "dead"), 100)
        q.schedule_fn(lambda: None, 700)
        q.deschedule(ev)
        assert q.peek() == (700, "fn")


class TestSharedLibraryTickBatch:
    def test_rejects_non_positive_counts(self):
        lib = PMUSharedLibrary()
        with pytest.raises(ValueError):
            lib.tick_batch(lib.input_spec.zeros(), 0)

    def test_rtl_fused_batch_equals_singles(self):
        """The fused RTL batch must reproduce n sequential ticks exactly."""
        batched = PMUSharedLibrary()
        stepped = PMUSharedLibrary()
        for lib in (batched, stepped):
            lib.reset()
            # enable all counters, count event 0
            lib.tick(lib.input_spec.pack(awvalid=1, awaddr=REG_ENABLE,
                                         wdata=0xFFFFF))
        stim = batched.input_spec.pack(events=1)
        out_b = batched.tick_batch(stim, 40)
        out_s = b""
        for _ in range(40):
            out_s = stepped.tick(stim)
        assert out_b == out_s
        assert batched.ticks == stepped.ticks == 41
        assert batched.sim.values == stepped.sim.values
        assert batched.sim.mems == stepped.sim.mems


def _cache_run(stepped):
    """Three reads of an RTL cache behind an ideal memory, 1 GHz, with
    long idle gaps: (responses, ticks, hits), events, reads mid-lag."""
    sim = Simulation()
    obj = (SteppedCache if stepped else RTLCacheObject)(
        sim, "cache", clock=ClockDomain(1e9))
    obj.mem_side[0].connect(IdealMemory(sim, "mem", latency_cycles=5).port)
    obj.mem_side[1].connect(IdealMemory(sim, "mem2").port)
    probes = Probes(sim, obj, None, 1_000_000)
    drv = RequestPort("drv", recv_timing_resp=lambda p: probes.seen.append(
        (sim.now, p.addr, p.data)) or True, recv_req_retry=lambda: None)
    drv.connect(obj.cpu_side[0])

    def read(addr):
        probes.note()
        drv.send_timing_req(Packet(MemCmd.ReadReq, addr, 8))

    for addr, tick in ((0x1000, 5_000), (0x2040, 220_000),
                       (0x1000, 700_000)):
        probes.at(lambda a=addr: read(a), tick, EventPriority.DEFAULT)
    probes.run()
    sim.run(until=1_000_000)
    return (probes.seen, obj.st_ticks.value(),
            obj.library.sim.peek("hit_count")), sim.eventq.executed, probes.mid


class TestRTLObjectBatching:
    def test_batched_run_matches_unbatched(self):
        """Same responses, same data, same response *ticks* — lagging,
        and running the lagged edges in one batch, must be invisible to
        the rest of the SoC."""
        got, ticks, hits = assert_owing_matches(_cache_run, 2, 0.1)
        assert len(got) == 3 and ticks == 999
        assert hits == 1  # the third read re-hits the line the first filled

    def test_busy_cache_never_batches(self):
        obj = RTLCacheObject(Simulation(), "cache")
        assert obj.lag_cycles() == LAG_LIMIT
        obj._waiting_fill = True
        assert obj.lag_cycles() == 0


class TestPMUIdleCycles:
    """The PMU's idle stretches: where it lags and where it steps."""

    def _pmu(self, sim):
        return PMURTLObject(sim, "pmu", PMUSharedLibrary())

    def test_idle_pmu_batches(self, sim):
        assert self._pmu(sim).lag_cycles() == LAG_LIMIT

    def test_clock_lane_lags_to_its_threshold(self, sim):
        """A clock-wired lane counts every edge: with a threshold, the
        edge that reaches it ends the horizon."""
        obj = self._pmu(sim)
        obj.library.reset()
        obj.connect_clock_event(0)
        assert obj.lag_cycles() == LAG_LIMIT
        for offset, value in ((threshold_addr(0), 30), (REG_ENABLE, 1)):
            obj.library.tick(obj.library.input_spec.pack(
                awvalid=1, awaddr=offset, wdata=value))
        assert obj.lag_cycles() == 29

    def test_consumed_pulse_pins_to_single_step(self, sim):
        """An interrupt or read response may repeat bit for bit; held
        against itself the repeat would read as "nothing moved"."""
        obj = self._pmu(sim)
        spec = obj.library.output_spec
        for raised in ({"irq": 1}, {"rvalid": 1, "rdata": 7}):
            obj.last_output = obj.decode_output(spec.pack(**raised))
            assert obj.lag_cycles() == 0

    def test_queued_wire_pulses_are_tapped_not_stepped(self, sim):
        """A pulse is an input the lag logs against its edge: it does
        not end the horizon."""
        obj = self._pmu(sim)
        wire = EventWire("commit")
        obj.connect_event(1, wire, lanes=4)
        assert obj.lag_cycles() == LAG_LIMIT
        wire.pulse()
        assert obj.lag_cycles() == LAG_LIMIT

    def test_pending_mmio_pins_to_single_step(self, sim):
        obj = self._pmu(sim)
        obj.cpu_req_queue.append(Packet(MemCmd.ReadReq, 0x1000_0000, 4))
        assert obj.lag_cycles() == 0

    def test_batched_counters_match_unbatched(self, sim):
        """Threshold interrupts still fire identically when idle stretches
        between event bursts are lagged over."""
        def run(stepped):
            s = Simulation()
            obj = (SteppedPMU if stepped else PMURTLObject)(
                s, "pmu", PMUSharedLibrary(), clock=ClockDomain(1e9))
            wire = EventWire("ev")
            obj.connect_event(0, wire)
            probes = Probes(s, obj, None, 1_000_000)
            obj.on_interrupt(probes.seen.append)
            obj.respond_cpu = lambda pkt, data=None: None  # sink write acks

            def configure():
                # threshold 3 on counter 0, then enable it
                for addr, val in ((obj.mmio_base + threshold_addr(0), 3),
                                  (obj.mmio_base + REG_ENABLE, 1)):
                    pkt = Packet(MemCmd.WriteReq, addr, 4,
                                 data=val.to_bytes(4, "little"))
                    pkt.dest_port = 0
                    obj.cpu_req_queue.append(pkt)

            def pulse():
                probes.note()
                wire.pulse()

            probes.at(configure, 100, EventPriority.DEFAULT)
            for t in (10_000, 50_000, 400_000, 410_000, 420_000, 800_000):
                probes.at(pulse, t, EventPriority.DEFAULT)
            probes.run()
            s.run(until=1_000_000)
            return probes.seen, s.eventq.executed, probes.mid

        # a counter two pulses short of its threshold bounds each lag at
        # two edges: the horizon cannot know when the next pulse comes
        irqs = assert_owing_matches(run, 1)
        assert len(irqs) == 2  # pulses 1-3 and 4-6 each cross threshold 3


def _clock_wired_pmu(cls, backend="codegen", vcd=None):
    """A PMU with its clock on lane 5 and wires on lanes 0 and 1, all
    three with thresholds, driven by seeded pulses, MMIO traffic and
    idle gaps.  Returns everything a single-stepped twin must equal."""
    sim = Simulation()
    lib = PMUSharedLibrary(trace_stream=vcd, trace_enabled=vcd is not None,
                           backend=backend)
    obj = cls(sim, "pmu", lib, clock=ClockDomain(1e9))
    wires = [EventWire("a"), EventWire("b")]
    obj.connect_event(0, wires[0])
    obj.connect_event(1, wires[1])
    obj.connect_clock_event(5)
    irqs, responses = [], []
    obj.on_interrupt(irqs.append)
    obj.respond_cpu = lambda pkt, data=None: responses.append(
        (sim.now, pkt.cmd.name, pkt.addr - obj.mmio_base, data))

    def mmio(cmd, offset, value=None):
        data = None if value is None else value.to_bytes(4, "little")
        pkt = Packet(cmd, obj.mmio_base + offset, 4, data=data)
        # through the port's handler, as traffic arrives: it ends a lag
        obj.cpu_side[0]._recv_timing_req(pkt)

    def write(offset, value):
        return lambda: mmio(MemCmd.WriteReq, offset, value)

    def read(offset):
        return lambda: mmio(MemCmd.ReadReq, offset)

    q = sim.eventq
    for i, (offset, value) in enumerate((
            (threshold_addr(0), 3), (threshold_addr(1), 5),
            (threshold_addr(5), 37), (REG_ENABLE, 0b100011))):
        q.schedule_fn(write(offset, value), 100 + 1_000 * i)
    rng = random.Random(7)
    tick = 10_000
    while tick < 900_000:
        # bursts of activity between idle gaps of up to 90 cycles
        for _ in range(rng.randrange(1, 6)):
            kind = rng.randrange(5)
            if kind < 2:
                q.schedule_fn(wires[kind].pulse, tick)
            elif kind == 2:
                q.schedule_fn(read(counter_addr(rng.choice((0, 1, 5)))), tick)
            elif kind == 3:
                q.schedule_fn(write(counter_addr(rng.randrange(2)),
                                    rng.randrange(4)), tick)
            else:
                # a threshold of 1 raises irq on consecutive cycles
                q.schedule_fn(write(threshold_addr(5),
                                    rng.choice((1, 2, 37, 50))), tick)
            tick += rng.randrange(0, 3_000)
        tick += rng.randrange(0, 90_000)
    sim.startup()
    sim.run(until=1_000_000)
    stats = sim.stats_dump()
    counters = [lib.peek_counter(i) for i in range(6)]
    return (irqs, responses, counters, stats), obj


class TestLagEqualsSingleStep:
    """The lag against the schedule it replaces: the same model and
    traffic, single-stepped."""

    @pytest.mark.parametrize("backend", ["codegen", "interp"])
    def test_clock_wired_pmu(self, backend):
        stepped, ref = _clock_wired_pmu(SteppedPMU, backend)
        lagged, obj = _clock_wired_pmu(PMURTLObject, backend)
        irqs, responses, counters, stats = lagged
        assert lagged == stepped
        assert len(irqs) > 50 and counters[5] > 0
        assert any(data is not None for *_, data in responses)  # reads
        assert obj.sim.eventq.executed < ref.sim.eventq.executed

    def test_with_waveforms_vcd_is_byte_identical(self):
        """An enabled VCD writer samples every cycle: the lagged edges
        run one by one on the reference path, each sampled."""
        vcds = [io.StringIO(), io.StringIO()]
        stepped, ref = _clock_wired_pmu(SteppedPMU, vcd=vcds[0])
        lagged, obj = _clock_wired_pmu(PMURTLObject, vcd=vcds[1])
        assert lagged == stepped
        assert obj.sim.eventq.executed < ref.sim.eventq.executed
        assert vcds[0].getvalue() == vcds[1].getvalue()
        assert len(vcds[0].getvalue()) > 10_000

    def test_early_exit_is_in_the_generated_loop(self):
        """No call, pack or struct compare per lagged cycle: the pin
        test sits inside the one generated loop, and with the inputs
        held, nothing is stored or settled in it."""
        lib = PMUSharedLibrary()
        lib.reset()
        zeros = lib.output_spec.zeros()
        lib.tick_varying(lib.input_spec.zeros(), None, [(0, 3)], zeros)
        # the one tuple of held pins met: everything at 0
        source = lib._replays[None].cases[(0,) * 8].source
        loop = source[source.index("def _replay("):]
        body = loop[loop.index("for _x, _n in runs:"):]
        assert ",) != _w:" in body and "return _j" in body
        assert "return _i + 1" in body
        assert "_encode" not in loop and "_decode" not in loop
        assert "_tick_batch" not in loop and "_settle" not in loop
        assert "_rest" not in body

    def test_unrolled_lane_tests_on_held_pins_are_cut(self):
        """With ``events`` held at 0, each unrolled copy of the lane loop
        tests ``… and 0 >> k``: a branch the held pin decides, cut as a
        held pin's own test is.  The text held 57 of them."""
        lib = PMUSharedLibrary()
        lib.reset()
        zeros = lib.output_spec.zeros()
        lib.tick_varying(lib.input_spec.zeros(), None, [(0, 3)], zeros)
        source = lib._replays[None].cases[(0,) * 8].source
        assert not re.search(r"and \(+0\)+ >> \(+\d+\)+", source)
        assert not re.search(r"and \(+0\)+:", source)

    def test_plain_batch_still_runs_every_cycle(self):
        """tick_batch runs the n ticks it always did, whatever the pins
        do; the held-input replay stops where an output moves."""
        lib = PMUSharedLibrary()
        lib.reset()
        for offset, value in ((threshold_addr(0), 2), (REG_ENABLE, 1)):
            lib.tick(lib.input_spec.pack(awvalid=1, awaddr=offset,
                                         wdata=value))
        before = lib.ticks
        lib.tick_batch(lib.input_spec.pack(events=1), 9)
        assert lib.ticks - before == 9
        # held against the all-zero struct it stops where irq rises
        out = lib.tick_varying(lib.input_spec.pack(events=1), None,
                               [(0, 9)], lib.output_spec.zeros())
        assert lib.output_spec.unpack(out)["irq"] == 1
        assert lib.ticks - before == 9 + 1


class TestRunEndsOnTime:
    """A lag stops short of the ``until`` of the run in progress."""

    @pytest.mark.parametrize("clock_lane", [False, True])
    @pytest.mark.parametrize("k", [1, 10, 63, 65, 100, 130])
    def test_ticks_match_the_cycles_run(self, k, clock_lane):
        sim = Simulation()
        obj = PMURTLObject(sim, "pmu", PMUSharedLibrary())
        if clock_lane:
            obj.connect_clock_event(5)
        sim.startup()
        period = obj.clock.period
        sim.run(until=k * period + 1)
        assert obj.st_ticks.value() == k
        assert obj.library.ticks == k
        assert obj.library.sim.cycle == k + 2  # reset() took two
        # ... and the next run picks up at the very next edge
        sim.run(until=(k + 7) * period)
        assert obj.st_ticks.value() == k + 6
