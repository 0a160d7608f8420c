"""Trace windows: one switch for flags, Chrome tracer and VCD writers."""

import pytest

from repro.soc.simobject import SimObject, Simulation, startup_hooks
from repro.trace.chrome import ChromeTracer
from repro.trace.control import TraceWindow, register_vcd, registered_vcds
from repro.trace.flags import debug_flag, set_chrome_tracer


class FakeVCD:
    def __init__(self):
        self.calls = []

    def enable(self):
        self.calls.append("enable")

    def disable(self):
        self.calls.append("disable")


class TestTraceWindow:
    def test_immediate_open_when_no_start(self):
        sim = Simulation()
        flag = debug_flag("T.Win")
        TraceWindow(sim, ["T.Win"])
        assert flag.enabled

    def test_opens_and_closes_at_cycles(self):
        sim = Simulation()
        flag = debug_flag("T.WinSched")
        period = sim.default_clock.period
        TraceWindow(sim, ["T.WinSched"], start_cycle=100, end_cycle=200)
        sim.run(until=50 * period)
        assert not flag.enabled
        sim.run(until=150 * period)
        assert flag.enabled
        sim.run(until=250 * period)
        assert not flag.enabled

    def test_end_before_start_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            TraceWindow(sim, ["T.Bad"], start_cycle=100, end_cycle=100)

    def test_registers_unknown_flag_names_up_front(self):
        from repro.trace.flags import all_flags

        sim = Simulation()
        TraceWindow(sim, ["T.Fresh"], start_cycle=10)
        assert "T.Fresh" in all_flags()

    def test_flips_chrome_tracer(self):
        sim = Simulation()
        tracer = ChromeTracer()
        tracer.enabled = False
        set_chrome_tracer(tracer)
        period = sim.default_clock.period
        window = TraceWindow(sim, [], start_cycle=10, end_cycle=20)
        sim.run(until=15 * period)
        assert tracer.enabled and window.active
        markers = [e["name"] for e in tracer.events if e["ph"] == "i"]
        assert "trace window open" in markers
        sim.run(until=25 * period)
        assert not tracer.enabled and not window.active

    @pytest.mark.parametrize(
        "windows,spans",
        [
            # (start_cycle, end_cycle) -> (first cycle, cycles) per span
            pytest.param([(None, None)], [(1, 99)], id="whole-run"),
            pytest.param([(10, None)], [(11, 89)], id="opens"),
            pytest.param([(10, 50)], [(11, 39)], id="opens-and-closes"),
            pytest.param([(10, 50), (70, None)], [(11, 39), (71, 29)],
                         id="reopens"),
        ],
    )
    def test_rtl_busy_span_ends_with_the_window(self, windows, spans):
        # An always-busy model (the PMU ticks every cycle) coalesces
        # into one span per window; the span open when a window closes
        # is emitted, cut at the close tick.
        from repro.bridge.rtl_object import RTLObject
        from repro.models.pmu.wrapper import PMUSharedLibrary

        sim = Simulation()
        dut = RTLObject(sim, "dut", PMUSharedLibrary())
        tracer = ChromeTracer()
        tracer.enabled = False
        set_chrome_tracer(tracer)
        period = sim.default_clock.period
        for start, end in windows:
            TraceWindow(sim, [], start_cycle=start, end_cycle=end)
        sim.startup()
        sim.run(until=100 * period)
        dut.stop()
        tracer.finish()
        got = [(e["name"], e["ts"], e["dur"], e["args"]["cycles"])
               for e in tracer.events if e["name"].startswith("rtl ")]
        assert got == [("rtl busy", first * period / 1e6, n * period / 1e6, n)
                       for first, n in spans]

    def test_batched_span_and_tracepoint_say_what_ran(self):
        # An idle RTL cache lags, and its lagged edges run as one batch
        # of all-zero inputs.  RTL.Batch says the horizon proven (up to
        # the edge before the run's until); the "rtl lagged" span says
        # how many edges ran, cut short by the read at cycle 100 that
        # ends the first lag.  Every cycle is in exactly one span.
        import io

        from repro.models.rtlcache.wrapper import (
            RTLCacheObject,
            RTLCacheSharedLibrary,
        )
        from repro.soc.mem.ideal import IdealMemory
        from repro.soc.packet import MemCmd, Packet
        from repro.soc.ports import RequestPort
        from repro.trace.flags import set_flags, set_sink

        sim = Simulation()
        cache = RTLCacheObject(sim, "cache", RTLCacheSharedLibrary(idxw=4))
        cache.mem_side[0].connect(IdealMemory(sim, "mem",
                                              latency_cycles=5).port)
        cache.mem_side[1].connect(IdealMemory(sim, "mem2").port)
        resps = []
        drv = RequestPort(
            "drv", recv_timing_resp=lambda pkt: resps.append(sim.now) or True,
            recv_req_retry=lambda: None)
        drv.connect(cache.cpu_side[0])
        period = sim.default_clock.period
        sim.eventq.schedule_fn(
            lambda: drv.send_timing_req(Packet(MemCmd.ReadReq, 0x1_0000, 8)),
            100 * period)
        tracer = ChromeTracer()
        set_chrome_tracer(tracer)
        log = io.StringIO()
        set_sink(log)
        set_flags(["RTL.Batch"])
        sim.run(until=400 * period)
        cache.stop()
        tracer.finish()
        spans = [(e["name"], round(e["ts"] * 1e6) // period,
                  e["args"]["cycles"])
                 for e in tracer.events if e["name"].startswith("rtl ")]
        assert len(resps) == 1
        assert spans == [("rtl busy", 1, 1), ("rtl lagged", 2, 99),
                         ("rtl busy", 101, 9), ("rtl lagged", 110, 289),
                         ("rtl busy", 399, 1)]
        assert sum(cycles for *_, cycles in spans) == cache.st_ticks.value()
        last = 399 * period
        text = log.getvalue()
        assert (f"outputs proven still for 397 edges: lagging to tick "
                f"{last}") in text
        assert (f"outputs proven still for 289 edges: lagging to tick "
                f"{last}") in text

    def test_lagged_span_says_what_ran(self):
        # A clock-wired PMU interrupting every 41 cycles lags: the 39
        # edges before each interrupt's run at once in one "rtl lagged"
        # span when the edge that raises it fires; that edge and the
        # next, where irq falls, are stepped (one busy span); every
        # cycle is in exactly one span, and RTL.Batch says each horizon.
        import io

        from repro.models.pmu.rtl_object import PMURTLObject
        from repro.models.pmu.wrapper import (
            REG_ENABLE,
            PMUSharedLibrary,
            threshold_addr,
        )
        from repro.soc.packet import MemCmd, Packet
        from repro.trace.flags import set_flags, set_sink

        sim = Simulation()
        dut = PMURTLObject(sim, "dut", PMUSharedLibrary())
        dut.connect_clock_event(5)
        dut.respond_cpu = lambda pkt, data=None: None
        for offset, value in ((threshold_addr(5), 41), (REG_ENABLE, 1 << 5)):
            pkt = Packet(MemCmd.WriteReq, dut.mmio_base + offset, 4,
                         data=value.to_bytes(4, "little"))
            dut.cpu_side[0]._recv_timing_req(pkt)
        irqs = []
        dut.on_interrupt(irqs.append)
        tracer = ChromeTracer()
        set_chrome_tracer(tracer)
        log = io.StringIO()
        set_sink(log)
        set_flags(["RTL.Batch"])
        period = sim.default_clock.period
        sim.run(until=200 * period)
        dut.stop()
        tracer.finish()
        spans = [(e["name"], round(e["ts"] * 1e6) // period,
                  e["args"]["cycles"])
                 for e in tracer.events if e["name"].startswith("rtl ")]
        assert len(irqs) == 4
        assert sum(cycles for *_, cycles in spans) == dut.st_ticks.value()
        for irq in irqs[1:]:
            edge = irq // period
            assert ("rtl lagged", edge - 39, 39) in spans
            assert ("rtl busy", edge, 2) in spans
            assert (f"outputs proven still for 39 edges: lagging to tick "
                    f"{irq}") in log.getvalue()

    def test_a_window_sees_every_edge_of_a_lagging_model(self):
        # A window that opens and closes while the PMU lags: the edges
        # before each switch run as the switch found them, so the VCD
        # writer samples, and the tracer records, exactly the edges
        # inside the window, as for the single-stepped model.
        import io

        from repro.bridge.rtl_object import RTLObject
        from repro.models.pmu.rtl_object import PMURTLObject
        from repro.models.pmu.wrapper import (
            REG_ENABLE,
            PMUSharedLibrary,
            threshold_addr,
        )
        from repro.soc.packet import MemCmd, Packet

        class SteppedPMU(PMURTLObject):
            bridge_quiet = RTLObject.bridge_quiet

        def run(cls):
            sim = Simulation()
            stream = io.StringIO()
            # the library registers its writer, disabled until the window
            dut = cls(sim, "dut", PMUSharedLibrary(trace_stream=stream))
            dut.connect_clock_event(5)
            dut.respond_cpu = lambda pkt, data=None: None
            for offset, value in ((threshold_addr(5), 400),
                                  (REG_ENABLE, 1 << 5)):
                pkt = Packet(MemCmd.WriteReq, dut.mmio_base + offset, 4,
                             data=value.to_bytes(4, "little"))
                dut.cpu_side[0]._recv_timing_req(pkt)
            tracer = ChromeTracer()
            tracer.enabled = False
            set_chrome_tracer(tracer)
            TraceWindow(sim, [], start_cycle=300, end_cycle=700)
            period = sim.default_clock.period
            sim.run(until=1_000 * period)
            dut.stop()
            tracer.finish()
            spans = [(round(e["ts"] * 1e6), round(e["dur"] * 1e6))
                     for e in tracer.events
                     if e["name"].startswith("rtl ") and "dur" in e]
            return stream.getvalue(), spans, period

        vcd, spans, period = run(PMURTLObject)
        stepped_vcd, stepped_spans, _ = run(SteppedPMU)
        assert vcd == stepped_vcd and len(vcd) > 4_000
        # lagged and stepped edges are separate spans; they cover the
        # window as the one busy span of the stepped model does
        assert stepped_spans == [(301 * period, 399 * period)]
        assert sum(dur for _, dur in spans) == stepped_spans[0][1]
        assert all(300 * period <= ts and ts + dur <= 700 * period
                   for ts, dur in spans)

    def test_flips_registered_vcd_writers(self):
        sim = Simulation()
        vcd = FakeVCD()
        register_vcd(vcd)
        assert vcd in registered_vcds()
        period = sim.default_clock.period
        TraceWindow(sim, [], start_cycle=10, end_cycle=20)
        sim.run(until=30 * period)
        assert vcd.calls == ["enable", "disable"]


class TestPendingWindow:
    def test_attached_on_simulation_startup(self):
        flag = debug_flag("T.Pending")
        startup_hooks.append(lambda sim: TraceWindow(sim, ["T.Pending"]))
        sim = Simulation()
        sim.startup()
        assert flag.enabled

    def test_one_shot(self):
        windows = []
        startup_hooks.append(
            lambda sim: windows.append(TraceWindow(sim, ["T.Once"], 5)))
        first = Simulation()
        first.startup()
        Simulation().startup()
        assert [window.sim for window in windows] == [first]
        assert startup_hooks == []

    def test_hooks_run_after_every_startup_in_parked_order_once(self):
        log = []

        class Probe(SimObject):
            def startup(self):
                log.append(self.name)

        sim = Simulation()
        Probe(sim, "a")
        Probe(sim, "b")
        startup_hooks.append(lambda _sim: log.append("hook 1"))
        startup_hooks.append(lambda _sim: log.append("hook 2"))
        sim.startup()
        sim.startup()
        Simulation().startup()
        assert log == ["a", "b", "hook 1", "hook 2"]

    def test_cli_parks_trace_window_before_resilience(self, monkeypatch):
        import repro.cli as cli
        from repro.resilience import control as resilience

        def fig5(args):
            cli._setup_resilience(args)
            return 0

        monkeypatch.setattr(cli, "cmd_fig5", fig5)
        monkeypatch.setattr(resilience, "worker_plan", None)
        assert cli.main(["fig5", "--trace-start", "5", "--watchdog"]) == 0
        trace_hook, arm_hook = startup_hooks
        assert isinstance(trace_hook(Simulation()), TraceWindow)
        assert arm_hook.func is resilience.arm
        assert arm_hook.keywords["watchdog"] == {}

    def test_shared_library_registers_its_vcd(self):
        import io

        from repro.bridge.shared_library import RTLSharedLibrary
        from repro.bridge.structs import Field, StructSpec
        from repro.rtl.kernel import RTLModule

        m = RTLModule("m")
        m.add_signal("clk", 1, is_input=True)
        m.add_signal("x", 1, is_input=True)

        class Lib(RTLSharedLibrary):
            input_spec = StructSpec("i", [Field("x", 1)])
            output_spec = StructSpec("o", [Field("x", 1)])

        lib = Lib(m, trace_stream=io.StringIO(), trace_enabled=False)
        assert lib.sim.trace in registered_vcds()
