"""Batched ticking through the bridge: tick_batch, _batch_window and
model-level idle_cycles — all proven against the unbatched schedule."""

from __future__ import annotations

import io
import random

import pytest

from repro.bridge import BehavioralSharedLibrary, Field, StructSpec
from repro.models.pmu.rtl_object import PMURTLObject
from repro.models.pmu.wrapper import (
    PMUSharedLibrary, counter_addr, threshold_addr, REG_ENABLE,
)
from repro.models.rtlcache.wrapper import RTLCacheObject
from repro.soc.cpu.core import EventWire
from repro.soc.event import ClockDomain, Event, EventPriority, EventQueue
from repro.soc.mem import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort


class CountingLibrary(BehavioralSharedLibrary):
    input_spec = StructSpec("i", [Field("x", 8)])
    output_spec = StructSpec("o", [Field("ticks", 32)])

    def step(self, inputs):
        return {"ticks": self.ticks}


class TestNextEventTick:
    def test_empty_queue(self):
        assert EventQueue().next_event_tick() is None

    def test_earliest_live_entry(self):
        q = EventQueue()
        q.schedule_fn(lambda: None, 500)
        q.schedule_fn(lambda: None, 100)
        assert q.next_event_tick() == 100

    def test_skips_lazily_cancelled_entries(self):
        q = EventQueue()
        ev = q.schedule(Event(lambda: None, "dead"), 100)
        q.schedule_fn(lambda: None, 700)
        q.deschedule(ev)
        assert q.next_event_tick() == 700


class TestSharedLibraryTickBatch:
    def test_default_implementation_loops(self):
        lib = CountingLibrary()
        out = lib.tick_batch(lib.input_spec.zeros(), 5)
        assert lib.ticks == 5
        # last output corresponds to the 5th tick (ticks was 4 going in)
        assert lib.output_spec.unpack(out)["ticks"] == 4

    def test_rejects_non_positive_counts(self):
        lib = CountingLibrary()
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


def _cache_rig(sim_obj, batch):
    clk = ClockDomain(1e9)
    obj = RTLCacheObject(sim_obj, "cache", clock=clk, batch_cycles=batch)
    mem = IdealMemory(sim_obj, "mem", latency_cycles=5)
    obj.mem_side[0].connect(mem.port)
    obj.mem_side[1].connect(IdealMemory(sim_obj, "mem2").port)
    return obj


def _drive_cache(sim_obj, obj, addrs_and_ticks, until):
    got = []
    drv = RequestPort("drv",
                      recv_timing_resp=lambda p: (got.append(
                          (sim_obj.eventq.cur_tick, p.addr, p.data)), True)[1],
                      recv_req_retry=lambda: None)
    drv.connect(obj.cpu_side[0])
    for addr, tick in addrs_and_ticks:
        sim_obj.eventq.schedule_fn(
            lambda a=addr: drv.send_timing_req(Packet(MemCmd.ReadReq, a, 8)),
            tick)
    sim_obj.startup()
    sim_obj.run(until=until)
    return got


class TestRTLObjectBatching:
    REQS = [(0x1000, 5_000), (0x2040, 220_000), (0x1000, 700_000)]

    def _run(self, batch):
        from repro.soc.simobject import Simulation

        sim = Simulation()
        obj = _cache_rig(sim, batch)
        got = _drive_cache(sim, obj, self.REQS, until=1_000_000)
        return got, obj

    def test_batched_run_matches_unbatched(self):
        """Same responses, same data, same response *ticks* — batching
        must be invisible to the rest of the SoC."""
        got1, obj1 = self._run(batch=1)
        gotN, objN = self._run(batch=64)
        assert len(got1) == len(self.REQS)
        assert got1 == gotN
        assert obj1.st_batched_ticks.value() == 0
        assert objN.st_batched_ticks.value() > 0
        # the third read re-hits the line filled by the first
        assert objN.library.sim.peek("hit_count") == 1

    def test_busy_cache_never_batches(self):
        from repro.soc.simobject import Simulation

        sim = Simulation()
        obj = _cache_rig(sim, batch=64)
        obj._waiting_fill = True
        assert obj.idle_cycles() == 1

    def test_window_clamped_by_event_horizon(self):
        """With a foreign event 10 cycles out, the window cannot jump it."""
        from repro.soc.simobject import Simulation

        sim = Simulation()
        obj = _cache_rig(sim, batch=64)
        sim.startup()
        sim.eventq.service_one()  # position time at the first tick
        sim.eventq.schedule_fn(lambda: None,
                               sim.eventq.cur_tick + 10 * obj.clock.period)
        assert obj._batch_window() == 10


class TestPMUIdleCycles:
    def _pmu(self, sim):
        return PMURTLObject(sim, "pmu", PMUSharedLibrary(), batch_cycles=32)

    def test_idle_pmu_batches(self, sim):
        assert self._pmu(sim).idle_cycles() == 32

    def test_clock_lane_runs_ahead(self, sim):
        """A clock-wired lane is the same input bit every cycle: what
        ends its window is the bridge's test of the output pins."""
        obj = self._pmu(sim)
        obj.connect_clock_event(0)
        assert obj.idle_cycles() == 32

    def test_consumed_pulse_pins_to_single_step(self, sim):
        """An interrupt or read response may repeat bit for bit; held
        against itself the repeat would read as "nothing moved"."""
        obj = self._pmu(sim)
        spec = obj.library.output_spec
        for raised in ({"irq": 1}, {"rvalid": 1, "rdata": 7}):
            obj.last_output = spec.unpack(spec.pack(**raised))
            assert obj.idle_cycles() == 1

    def test_queued_wire_pulses_pin_to_single_step(self, sim):
        obj = self._pmu(sim)
        wire = EventWire("commit")
        obj.connect_event(1, wire, lanes=4)
        assert obj.idle_cycles() == 32
        wire.pulse()
        assert obj.idle_cycles() == 1

    def test_pending_mmio_pins_to_single_step(self, sim):
        obj = self._pmu(sim)
        obj.cpu_req_queue.append(Packet(MemCmd.ReadReq, 0x1000_0000, 4))
        assert obj.idle_cycles() == 1

    def test_batched_counters_match_unbatched(self, sim):
        """Threshold interrupts still fire identically when idle stretches
        between event bursts are batched."""
        from repro.soc.simobject import Simulation

        def run(batch):
            s = Simulation()
            obj = PMURTLObject(s, "pmu", PMUSharedLibrary(),
                               clock=ClockDomain(1e9), batch_cycles=batch)
            wire = EventWire("ev")
            obj.connect_event(0, wire)
            irqs = []
            obj.on_interrupt(lambda t: irqs.append(t))
            obj.respond_cpu = lambda pkt, data=None: None  # sink write acks

            def configure():
                # threshold 3 on counter 0, then enable it
                for addr, val in ((obj.mmio_base + threshold_addr(0), 3),
                                  (obj.mmio_base + REG_ENABLE, 1)):
                    pkt = Packet(MemCmd.WriteReq, addr, 4,
                                 data=val.to_bytes(4, "little"))
                    pkt.dest_port = 0
                    obj.cpu_req_queue.append(pkt)

            s.eventq.schedule_fn(configure, 100)
            for t in (10_000, 50_000, 400_000, 410_000, 420_000, 800_000):
                s.eventq.schedule_fn(wire.pulse, t)
            s.startup()
            s.run(until=1_000_000)
            return irqs, obj

        irqs1, _ = run(1)
        irqsN, objN = run(64)
        assert irqs1 == irqsN
        assert len(irqs1) == 2  # pulses 1-3 and 4-6 each cross threshold 3
        assert objN.st_batched_ticks.value() > 0


def _clock_wired_pmu(batch, backend="codegen", vcd=None):
    """A PMU with its clock on lane 5 and wires on lanes 0 and 1, all
    three with thresholds, driven by seeded pulses, MMIO traffic and
    idle gaps.  Returns everything a single-stepped twin must equal."""
    from repro.soc.simobject import Simulation

    sim = Simulation()
    lib = PMUSharedLibrary(trace_stream=vcd, trace_enabled=vcd is not None,
                           backend=backend)
    obj = PMURTLObject(sim, "pmu", lib, clock=ClockDomain(1e9),
                       batch_cycles=batch)
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
        pkt.dest_port = 0
        obj.cpu_req_queue.append(pkt)

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
    stats.pop("system.pmu.batched_ticks")
    counters = [lib.peek_counter(i) for i in range(6)]
    return (irqs, responses, counters, stats), obj


class TestRunAheadEqualsSingleStep:
    """The run-ahead window against the schedule it replaces: the same
    model and traffic with ``batch_cycles=1``."""

    @pytest.mark.parametrize(
        "backend,opt_level",
        [("codegen", "0"), ("codegen", "2"), ("interp", "0")],
    )
    def test_clock_wired_pmu(self, monkeypatch, backend, opt_level):
        # -O2: the generated loop's quiescence fast path carries the
        # same pin test
        monkeypatch.setenv("REPRO_OPT_LEVEL", opt_level)
        stepped, _ = _clock_wired_pmu(1, backend)
        ahead, obj = _clock_wired_pmu(64, backend)
        irqs, responses, counters, stats = ahead
        assert ahead == stepped
        assert len(irqs) > 50 and counters[5] > 0
        assert any(data is not None for *_, data in responses)  # reads
        assert obj.st_batched_ticks.value() > stats["system.pmu.ticks"] // 2

    def test_with_waveforms_vcd_is_byte_identical(self):
        """An enabled VCD writer samples every cycle on the reference
        path, which takes the same early exit as the generated one."""
        vcds = [io.StringIO(), io.StringIO()]
        stepped, _ = _clock_wired_pmu(1, vcd=vcds[0])
        ahead, obj = _clock_wired_pmu(64, vcd=vcds[1])
        assert ahead == stepped
        assert obj.st_batched_ticks.value() > 0
        assert vcds[0].getvalue() == vcds[1].getvalue()
        assert len(vcds[0].getvalue()) > 10_000

    def test_early_exit_is_in_the_generated_loop(self):
        """No call, pack or struct compare per cycle of a window: the
        pin test sits inside the one generated loop."""
        lib = PMUSharedLibrary()
        source = lib._exchange.source
        loop = source[source.index("def _run_ahead("):
                      source.index("def _exchange(")]
        body = loop[loop.index("for _i in range(n):"):]
        assert ",) != _w:" in body and "return _i + 1" in body
        assert "_encode" not in loop and "_decode" not in loop
        assert "_tick_batch" not in loop and "_settle" not in loop

    def test_plain_batch_still_runs_every_cycle(self):
        """Without a struct to hold the outputs against, tick_batch is
        the n ticks it always was, whatever the pins do."""
        lib = PMUSharedLibrary()
        lib.reset()
        for offset, value in ((threshold_addr(0), 2), (REG_ENABLE, 1)):
            lib.tick(lib.input_spec.pack(awvalid=1, awaddr=offset,
                                         wdata=value))
        before = lib.ticks
        lib.tick_batch(lib.input_spec.pack(events=1), 9)
        assert lib.ticks - before == 9
        # held against the all-zero struct it stops where irq rises
        out = lib.tick_batch(lib.input_spec.pack(events=1), 9,
                             lib.output_spec.zeros())
        assert lib.output_spec.unpack(out)["irq"] == 1
        assert lib.ticks - before == 9 + 1


class TestRunEndsOnTime:
    """A window stops short of the ``until`` of the run in progress."""

    @pytest.mark.parametrize("clock_lane", [False, True])
    @pytest.mark.parametrize("k", [1, 10, 63, 65, 100, 130])
    def test_ticks_match_the_cycles_run(self, k, clock_lane):
        from repro.soc.simobject import Simulation

        sim = Simulation()
        obj = PMURTLObject(sim, "pmu", PMUSharedLibrary(), batch_cycles=64)
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
