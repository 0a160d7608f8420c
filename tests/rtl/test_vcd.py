"""VCD writer: header format, change-only emission, runtime toggling."""

import io

from repro.rtl import RTLModule, RTLSimulator, VCDWriter
from repro.rtl.vcd import _identifier


class TestIdentifiers:
    def test_unique_and_printable(self):
        ids = {_identifier(i) for i in range(2000)}
        assert len(ids) == 2000
        assert all(all(33 <= ord(c) <= 126 for c in s) for s in ids)

    def test_compact(self):
        assert len(_identifier(0)) == 1
        assert len(_identifier(93)) == 1
        assert len(_identifier(94)) == 2


def _module():
    m = RTLModule("dut")
    m.add_signal("clk", 1, is_input=True)
    m.add_signal("a", 1, is_input=True)
    m.add_signal("bus", 8)
    return m


class TestHeader:
    def test_header_contents(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.write_header()
        text = w.stream.getvalue()
        assert "$timescale 1ps $end" in text
        assert "$scope module dut $end" in text
        assert "$var wire 1" in text and "$var wire 8" in text
        assert "$enddefinitions $end" in text

    def test_header_written_once(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.write_header()
        size = len(w.stream.getvalue())
        w.write_header()
        assert len(w.stream.getvalue()) == size


class TestSampling:
    def test_only_changes_emitted(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(1, [0, 1, 0x42])
        first = w.stream.getvalue()
        w.sample(2, [0, 1, 0x42])  # identical: nothing new
        assert w.stream.getvalue() == first
        w.sample(3, [0, 0, 0x42])
        assert "#3" in w.stream.getvalue()

    def test_multibit_binary_format(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(1, [0, 0, 0b1010])
        assert "b1010 " in w.stream.getvalue()

    def test_disable_suppresses_output(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO(), enabled=False)
        w.sample(1, [1, 1, 1])
        assert w.stream.getvalue() == ""

    def test_reenable_forces_full_dump(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(1, [0, 1, 5])
        w.disable()
        w.sample(2, [1, 0, 9])
        size = len(w.stream.getvalue())
        w.enable()
        w.sample(3, [1, 0, 9])
        text = w.stream.getvalue()
        assert len(text) > size
        assert "#3" in text


def _parse_vcd(text):
    """Minimal VCD reader: declared var widths, the $dumpvars initial
    block, and every value-change line that follows.

    Returns ``(widths, initial, changes)`` where *widths* maps vcd id ->
    declared width, *initial* maps id -> value string inside the
    ``$dumpvars … $end`` block, and *changes* is a list of ``(id,
    value_str)`` for emissions after it.
    """
    widths: dict[str, int] = {}
    initial: dict[str, str] = {}
    changes: list[tuple[str, str]] = []
    in_dumpvars = False
    seen_dumpvars = False
    past_defs = False
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("$var"):
            # $var wire <width> <id> <name> $end
            parts = line.split()
            widths[parts[3]] = int(parts[2])
            continue
        if line.startswith("$enddefinitions"):
            past_defs = True
            continue
        if line == "$dumpvars":
            assert past_defs, "$dumpvars before $enddefinitions"
            assert not seen_dumpvars, "duplicate $dumpvars block"
            in_dumpvars = seen_dumpvars = True
            continue
        if line == "$end" and in_dumpvars:
            in_dumpvars = False
            continue
        if line.startswith("$") or not past_defs:
            continue
        if line.startswith("b"):
            value, _, vid = line[1:].partition(" ")
        else:
            value, vid = line[0], line[1:]
        if in_dumpvars:
            initial[vid] = value
        else:
            changes.append((vid, value))
    assert seen_dumpvars, "no $dumpvars block emitted"
    return widths, initial, changes


class TestDumpvarsBlock:
    def test_first_sample_emits_initial_values_for_all_signals(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(0, [0, 1, 0x42])
        widths, initial, changes = _parse_vcd(w.stream.getvalue())
        assert set(initial) == set(widths)  # every declared var dumped
        assert changes == []

    def test_dumpvars_emitted_once(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(0, [0, 0, 1])
        w.sample(1, [1, 0, 2])
        w.disable()
        w.enable()            # full re-dump, but no second $dumpvars
        w.sample(2, [1, 0, 2])
        text = w.stream.getvalue()
        assert text.count("$dumpvars") == 1
        _parse_vcd(text)  # parser enforces single block + $end pairing

    def test_values_confined_to_declared_width(self):
        """Negative and over-width values must be masked, never emitted
        as out-of-spec lines like ``b-101 !``."""
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(0, [0, 1, -5])       # negative on the 8-bit bus
        w.sample(1, [0, 1, 0x1FF])    # over-width on the 8-bit bus
        w.sample(2, [3, -1, 0])       # over-width/negative 1-bit values
        text = w.stream.getvalue()
        assert "-" not in text.split("$enddefinitions")[1]
        widths, initial, changes = _parse_vcd(text)
        for vid, value in list(initial.items()) + changes:
            assert set(value) <= {"0", "1"}, f"bad value {value!r}"
            assert len(value) <= widths[vid]

    def test_negative_value_emitted_as_twos_complement(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(0, [0, 0, -5])
        _, initial, _ = _parse_vcd(w.stream.getvalue())
        bus_id = [vid for vid, width in _parse_vcd(
            w.stream.getvalue())[0].items() if width == 8][0]
        assert initial[bus_id] == "11111011"  # -5 & 0xFF

    def test_masked_value_does_not_retrigger_change_emission(self):
        m = _module()
        w = VCDWriter(m, stream=io.StringIO())
        w.sample(0, [0, 0, 0xFB])
        size = len(w.stream.getvalue())
        w.sample(1, [0, 0, -5])  # same bits after masking: no change
        assert len(w.stream.getvalue()) == size

    def test_gtkwave_style_roundtrip(self):
        """Drive a real simulation and re-read the produced file."""
        m = RTLModule("m")
        clk = m.add_signal("clk", 1, is_input=True)
        c = m.add_signal("c", 4)

        def p(v, mm, nba, nbm):
            nba.append((c.index, (v[c.index] + 1) & 0xF))

        m.add_sync(p, clk, reads={c.index}, writes={c.index})
        w = VCDWriter(m, stream=io.StringIO())
        sim = RTLSimulator(m, trace=w)
        sim.tick(5)
        widths, initial, changes = _parse_vcd(w.stream.getvalue())
        assert set(initial) == set(widths)
        assert changes  # the counter kept changing after the first dump
        for vid, value in changes:
            assert len(value) <= widths[vid]


class TestIntegration:
    def test_simulator_produces_waveform(self):
        m = RTLModule("m")
        clk = m.add_signal("clk", 1, is_input=True)
        c = m.add_signal("c", 4)

        def p(v, mm, nba, nbm):
            nba.append((c.index, (v[c.index] + 1) & 0xF))

        m.add_sync(p, clk, reads={c.index}, writes={c.index})
        w = VCDWriter(m, stream=io.StringIO())
        sim = RTLSimulator(m, trace=w)
        sim.tick(4)
        text = w.stream.getvalue()
        assert text.count("#") >= 4
        assert "b1 " in text or "b10 " in text

    def test_runtime_toggle_through_shared_library_api(self):
        from repro.bridge import RTLSharedLibrary
        from repro.bridge.structs import Field, StructSpec

        m = RTLModule("m")
        m.add_signal("clk", 1, is_input=True)
        m.add_signal("x", 1, is_input=True)

        class Lib(RTLSharedLibrary):
            input_spec = StructSpec("i", [Field("x", 1)])
            output_spec = StructSpec("o", [Field("x", 1)])

        lib = Lib(m, trace_stream=io.StringIO(), trace_enabled=True)
        lib.reset()
        lib.tick(lib.input_spec.pack(x=1))
        assert lib.tracing
        lib.disable_waveforms()
        size = len(lib.sim.trace.stream.getvalue())
        lib.tick(lib.input_spec.pack(x=0))
        assert len(lib.sim.trace.stream.getvalue()) == size
        lib.enable_waveforms()
        lib.tick(lib.input_spec.pack(x=1))
        assert len(lib.sim.trace.stream.getvalue()) > size
