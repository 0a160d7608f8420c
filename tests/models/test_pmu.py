"""PMU: RTL-level behaviour of pmu.v and the wrapper contract."""

import io

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
from tests.bytecodes import PINNED_PYTHON, generated_bytecodes


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

    def test_table2_waveform_bytes_are_pinned(self, tmp_path):
        """Table 2's waveform run (``n_sort=32``, every lane enabled, run
        to done): the lagged edges run one by one on the traced path,
        each run of equal words expanded and sampled, and the VCD is
        the bytes it was when every lagged edge was its own word."""
        import hashlib

        from repro.dse.pmu_experiment import build_pmu_system

        path = tmp_path / "table2.vcd"
        soc, pmu, drv = build_pmu_system(n_sort=32, waveform_path=str(path))
        drv.enable(0x3F)
        soc.run_until_done(cores=[soc.cores[0]], max_ticks=10**12)
        pmu.stop()
        trace = pmu.library.sim.trace
        trace.close()
        trace.stream.close()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "bf9316b900a1095e19371c2a7e4142ab"
            "53142dbac3038271b1127d57162c4a83")

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


@PINNED_PYTHON
def test_generated_bytecodes_per_pmu_cycle_stay_in_budget():
    """A count, not a timer: bytecodes run inside the PMU's generated
    code (``<codegen:...>``), wired as Fig. 5 wires it (lanes 0-5
    enabled, the clock lane's threshold armed at 4 000), the replay
    built first.  A run of lagged edges with only the clock lane set is
    one step of lowering (i): runs of 8, 9 and 3 999 edges (the longest
    such a threshold lets a lag be) cost the same 281, the call
    included.  A run (i) must step, the clock lane counting up to its
    wrap with no threshold, costs 76 an edge.  The word-per-edge replay
    before cost 96 an edge with the call's 166 beside (its pin read 63:
    a first call that built the replay against a second that did not),
    128 unfolded, 137 in the run-ahead loop before it, 335 when every
    lane was tested as ``(v[11] >> k) & 1``.  One single tick with four
    commits and the clock is 406 (541).  The bounds are 5 % over 281,
    76 and 423, the tick's count when codegen still had a
    common-subexpression pass, so none can quietly grow back."""
    lib = PMUSharedLibrary()
    lib.reset()
    pack = lib.input_spec.pack
    axi_write(lib, threshold_addr(5), 4000)
    axi_write(lib, REG_ENABLE, 0b111111)
    tick(lib)
    armed = lib.serialize(SerializationContext())
    quiet, steady = lib.input_spec.zeros(), lib.output_spec.zeros()
    lib.tick_varying(quiet, "events", [(1 << 5, 1)], steady)  # built
    runs = []
    for cycles in (8, 9, 3999):
        lib.unserialize(armed, DeserializationContext([]))
        runs.append(generated_bytecodes(lambda: lib.tick_varying(
            quiet, "events", [(1 << 5, cycles)], steady)))
        assert lib.peek_counter(5) == cycles
    assert runs[0] == runs[1] == runs[2] <= 281 * 1.05, runs
    axi_write(lib, threshold_addr(5), 0)
    axi_write(lib, counter_addr(5), (1 << 32) - 3)
    tick(lib)
    wrapping = lib.serialize(SerializationContext())
    stepped = []
    for cycles in (8, 9):
        lib.unserialize(wrapping, DeserializationContext([]))
        stepped.append(generated_bytecodes(lambda: lib.tick_varying(
            quiet, "events", [(1 << 5, cycles)], steady)))
        assert lib.peek_counter(5) == cycles - 3
    assert stepped[1] - stepped[0] <= 76 * 1.05, stepped
    lib.unserialize(armed, DeserializationContext([]))
    busy = pack(events=0b101111)
    single = generated_bytecodes(lambda: lib.tick(busy))
    assert [lib.peek_counter(i) for i in range(6)] == [1, 1, 1, 1, 0, 1]
    assert single <= 423 * 1.05, single


@PINNED_PYTHON
def test_smoke_fig5_replay_bytecodes_are_pinned():
    """The bytecodes of every lagged replay in a smoke-size Fig. 5 body
    (``run_fig5(n_sort=12, interval_cycles=2000, sleep_cycles=2000)``,
    110 replays): 493 686 with runs, where the word-per-edge replay
    before ran 2 513 789.  The bound is 5 % over; the figure itself
    must not move."""
    from repro.dse.pmu_experiment import run_fig5

    result = []
    count = generated_bytecodes(
        lambda: result.append(run_fig5(n_sort=12, interval_cycles=2000,
                                       sleep_cycles=2000)),
        lambda code: code.co_name in ("_replay", "_replay_runs"))
    assert (result[0].total_cycles, result[0].total_committed,
            result[0].pmu_total_commits) == (14_677, 6_042, 6_003)
    assert count <= 493_686 * 1.05, count
