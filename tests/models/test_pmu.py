"""PMU: RTL-level behaviour of pmu.v and the wrapper contract."""

import io
import sys

import pytest

from repro.models.pmu.wrapper import (
    N_COUNTERS,
    PMUSharedLibrary,
    counter_addr,
    load_pmu_source,
    threshold_addr,
    REG_ENABLE,
)
from repro.resilience.serialize import (DeserializationContext,
                                        SerializationContext)


@pytest.fixture
def pmu() -> PMUSharedLibrary:
    lib = PMUSharedLibrary()
    lib.reset()
    return lib


def tick(lib, **fields):
    return lib.output_spec.unpack(lib.tick(lib.input_spec.pack(**fields)))


def axi_write(lib, addr, value):
    tick(lib, awvalid=1, awaddr=addr, wdata=value)


def axi_read(lib, addr) -> int:
    # the registered read data is valid after the clock edge of the
    # same wrapper tick that presented arvalid
    out = tick(lib, arvalid=1, araddr=addr)
    assert out["rvalid"] == 1
    return out["rdata"]


class TestSource:
    def test_source_is_real_verilog(self):
        src = load_pmu_source()
        assert "module pmu" in src
        assert "endmodule" in src
        assert "always @(posedge clk)" in src

    def test_parametrised_counter_count(self):
        lib = PMUSharedLibrary(n_counters=4)
        lib.reset()
        assert lib.n_counters == 4


class TestCounting:
    def test_disabled_counters_ignore_events(self, pmu):
        tick(pmu, events=0b1)
        assert pmu.peek_counter(0) == 0

    def test_enabled_counter_counts(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b1)
        for _ in range(5):
            tick(pmu, events=0b1)
        assert pmu.peek_counter(0) == 5

    def test_only_selected_events_counted(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b10)
        tick(pmu, events=0b11)
        tick(pmu, events=0b11)
        assert pmu.peek_counter(0) == 0
        assert pmu.peek_counter(1) == 2

    def test_multiple_events_same_cycle(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b1111)
        tick(pmu, events=0b1011)
        assert [pmu.peek_counter(i) for i in range(4)] == [1, 1, 0, 1]

    def test_one_cycle_recording_delay(self, pmu):
        """Events are visible one cycle after they occur (paper §6.1)."""
        axi_write(pmu, REG_ENABLE, 0b1)
        # read during the same tick the event arrives: old value
        out = tick(pmu, events=0b1, arvalid=1, araddr=counter_addr(0))
        assert out["rvalid"] == 1 and out["rdata"] == 0
        assert pmu.peek_counter(0) == 1

    def test_events_lost_during_reset(self, pmu):
        """Events arriving while rst is asserted are not counted."""
        axi_write(pmu, REG_ENABLE, 0b1)
        tick(pmu, events=0b1)
        pmu.reset()
        tick(pmu, events=0b1)  # enable was cleared by reset too
        assert pmu.peek_counter(0) == 0


class TestAXI:
    def test_counter_read_over_axi(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b1)
        for _ in range(3):
            tick(pmu, events=0b1)
        assert axi_read(pmu, counter_addr(0)) == 3

    def test_counter_write_sets_value(self, pmu):
        axi_write(pmu, counter_addr(2), 1000)
        assert axi_read(pmu, counter_addr(2)) == 1000

    def test_threshold_register_roundtrip(self, pmu):
        axi_write(pmu, threshold_addr(3), 77)
        assert axi_read(pmu, threshold_addr(3)) == 77

    def test_enable_register_roundtrip(self, pmu):
        axi_write(pmu, REG_ENABLE, 0xABCDE & ((1 << N_COUNTERS) - 1))
        assert axi_read(pmu, REG_ENABLE) == 0xABCDE & ((1 << N_COUNTERS) - 1)

    def test_unknown_address_reads_poison(self, pmu):
        assert axi_read(pmu, 0x300) == 0xDEADBEEF

    def test_addr_helpers_validate(self):
        with pytest.raises(ValueError):
            counter_addr(N_COUNTERS)
        with pytest.raises(ValueError):
            threshold_addr(-1)


class TestThresholds:
    def test_irq_on_threshold_and_auto_reset(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b1)
        axi_write(pmu, threshold_addr(0), 3)
        irqs = []
        for _ in range(9):
            out = tick(pmu, events=0b1)
            irqs.append(out["irq"])
        assert sum(irqs) == 3           # every 3 events
        assert pmu.peek_counter(0) == 0  # reset after the last crossing

    def test_irq_is_one_cycle_pulse(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b1)
        axi_write(pmu, threshold_addr(0), 1)
        out = tick(pmu, events=0b1)
        assert out["irq"] == 1
        out = tick(pmu)
        assert out["irq"] == 0

    def test_zero_threshold_disables_irq(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b1)
        for _ in range(20):
            out = tick(pmu, events=0b1)
            assert out["irq"] == 0
        assert pmu.peek_counter(0) == 20

    def test_independent_thresholds(self, pmu):
        axi_write(pmu, REG_ENABLE, 0b11)
        axi_write(pmu, threshold_addr(0), 2)
        axi_write(pmu, threshold_addr(1), 5)
        irqs = 0
        for _ in range(10):
            irqs += tick(pmu, events=0b11)["irq"]
        # counter0 fires at 2,4,6,8,10; counter1 at 5,10 (same-cycle
        # crossings produce a single pulse)
        assert irqs >= 5


class TestWaveforms:
    def test_waveform_stream_produced(self):
        stream = io.StringIO()
        lib = PMUSharedLibrary(trace_stream=stream, trace_enabled=True)
        lib.reset()
        tick(lib, events=0)
        assert "$enddefinitions" in stream.getvalue()

    def test_waveform_toggle(self):
        stream = io.StringIO()
        lib = PMUSharedLibrary(trace_stream=stream, trace_enabled=True)
        lib.reset()
        tick(lib, events=0b1)
        lib.sim.trace.disable()
        size = len(stream.getvalue())
        axi_write(lib, REG_ENABLE, 1)
        tick(lib, events=0b1)
        assert len(stream.getvalue()) == size


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode counts are pinned on CPython 3.11; another "
           "interpreter compiles the generated code to other bytecode",
)
def test_generated_bytecodes_per_pmu_cycle_stay_in_budget():
    """A count, not a timer: bytecodes run inside the PMU's generated
    code (``<codegen:...>``), wired as Fig. 5 wires it (lanes 0-5
    enabled, the clock lane's threshold armed).  One lagged edge with
    only the clock lane set, replayed, is 128 (137 in the run-ahead loop
    it replaced, 335 when every lane was tested as ``(v[11] >> k) & 1``
    and the memories staged in dicts); one single tick with four commits
    and the clock is 411 (541).  The bounds are 5 % over 133 and 423,
    the counts when codegen still had a common-subexpression pass, so
    neither can quietly grow back."""
    def generated_bytecodes(call) -> int:
        count = 0

        def trace(frame, event, arg):
            if not frame.f_code.co_filename.startswith("<codegen:"):
                return None
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return opcode

        def opcode(frame, event, arg):
            nonlocal count
            count += event == "opcode"
            return opcode

        outer = sys.gettrace()
        sys.settrace(trace)
        try:
            call()
        finally:
            sys.settrace(outer)
        return count

    lib = PMUSharedLibrary()
    lib.reset()
    pack = lib.input_spec.pack
    axi_write(lib, threshold_addr(5), 4000)
    axi_write(lib, REG_ENABLE, 0b111111)
    tick(lib)
    armed = lib.serialize(SerializationContext())
    quiet, steady = lib.input_spec.zeros(), lib.output_spec.zeros()
    windows = []
    for cycles in (8, 9):
        lib.unserialize(armed, DeserializationContext([]))
        windows.append(generated_bytecodes(lambda: lib.tick_varying(
            quiet, "events", [1 << 5] * cycles, steady)))
        assert lib.peek_counter(5) == cycles
    busy = pack(events=0b101111)
    single = generated_bytecodes(lambda: lib.tick(busy))
    assert [lib.peek_counter(i) for i in range(6)] == [1, 1, 1, 1, 0, 10]
    assert windows[1] - windows[0] <= 133 * 1.05, windows
    assert single <= 423 * 1.05, single
