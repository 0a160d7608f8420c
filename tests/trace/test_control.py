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
        # A clock-wired PMU interrupting every 41 cycles asks for 64
        # cycles per window and gets 41: the span is as long as the
        # window ran, an instant marks the edge the interrupt is
        # consumed at, and RTL.Batch says the window was cut.  (The
        # PMU lags instead of running windows when it can; this one is
        # kept from lagging, test_lagged_span_says_what_ran has the lag.)
        import io

        from repro.bridge.rtl_object import RTLObject
        from repro.models.pmu.rtl_object import PMURTLObject
        from repro.models.pmu.wrapper import (
            REG_ENABLE,
            PMUSharedLibrary,
            threshold_addr,
        )
        from repro.soc.packet import MemCmd, Packet
        from repro.trace.flags import set_flags, set_sink

        class WindowedPMU(PMURTLObject):
            lag_cycles = RTLObject.lag_cycles

        sim = Simulation()
        dut = WindowedPMU(sim, "dut", PMUSharedLibrary(), batch_cycles=64)
        dut.connect_clock_event(5)
        dut.respond_cpu = lambda pkt, data=None: None
        for offset, value in ((threshold_addr(5), 41), (REG_ENABLE, 1 << 5)):
            pkt = Packet(MemCmd.WriteReq, dut.mmio_base + offset, 4,
                         data=value.to_bytes(4, "little"))
            pkt.dest_port = 0
            dut.cpu_req_queue.append(pkt)
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
                 for e in tracer.events if e["name"].startswith("rtl b")]
        moved = [round(e["ts"] * 1e6) for e in tracer.events
                 if e["name"] == "rtl output moved"]
        assert len(irqs) == 4 and moved == irqs
        assert sum(cycles for *_, cycles in spans) == dut.st_ticks.value()
        # each 41-cycle period: 40 cycles in one window (the one that
        # moved irq is its last), then the pulse's own single step
        assert ("rtl batched", irqs[0] // period + 2, 40) in spans
        text = log.getvalue()
        assert "advanced 40 RTL cycles in one pop (of 64: an output " \
               "moved at the last)" in text

    def test_lagged_span_says_what_ran(self):
        # The same PMU, lagging: the 39 edges before each interrupt's
        # run at once in one "rtl lagged" span when the edge that raises
        # it fires; that edge and the next, where irq falls, are stepped
        # (one busy span); every cycle is in exactly one span.
        from repro.models.pmu.rtl_object import PMURTLObject
        from repro.models.pmu.wrapper import (
            REG_ENABLE,
            PMUSharedLibrary,
            threshold_addr,
        )
        from repro.soc.packet import MemCmd, Packet

        sim = Simulation()
        dut = PMURTLObject(sim, "dut", PMUSharedLibrary(), batch_cycles=64)
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
