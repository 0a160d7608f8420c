"""Debug-flag registry: hierarchy, stickiness, tracepoint output."""

import io

import pytest

from repro.trace.flags import (
    all_flags,
    debug_flag,
    disable,
    enable,
    enabled_flags,
    parse_flags,
    reset_flags,
    set_chrome_tracer,
    set_flags,
    set_sink,
    tracepoint,
)


class TestRegistry:
    def test_registration_idempotent(self):
        a = debug_flag("T.Reg", "first")
        b = debug_flag("T.Reg", "second")
        assert a is b
        assert a.desc == "first"

    def test_desc_backfilled(self):
        flag = debug_flag("T.NoDesc")
        debug_flag("T.NoDesc", "later description")
        assert flag.desc == "later description"

    @pytest.mark.parametrize("bad", ["", " ", "has space", " lead"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ValueError):
            debug_flag(bad)

    def test_all_flags_snapshot(self):
        debug_flag("T.Snap")
        assert "T.Snap" in all_flags()


class TestHierarchy:
    def test_enable_lights_descendants(self):
        parent = debug_flag("T.H")
        child = debug_flag("T.H.Child")
        enable("T.H")
        assert parent.enabled and child.enabled
        disable("T.H")
        assert not parent.enabled and not child.enabled

    def test_child_enable_does_not_light_parent(self):
        parent = debug_flag("T.P")
        child = debug_flag("T.P.Only")
        enable("T.P.Only")
        assert child.enabled
        assert not parent.enabled

    def test_sticky_enable_is_registration_order_independent(self):
        enable("T.Late")
        flag = debug_flag("T.Late")          # registered after enable
        child = debug_flag("T.Late.Sub")     # descendant too
        assert flag.enabled and child.enabled

    def test_disable_respects_surviving_ancestor(self):
        child = debug_flag("T.A.B")
        enable("T.A")
        enable("T.A.B")
        disable("T.A.B")   # ancestor enable still covers it
        assert child.enabled
        disable("T.A")
        assert not child.enabled

    def test_strict_enable_unknown_raises_with_known_list(self):
        debug_flag("T.Known")
        with pytest.raises(ValueError, match="T.Known"):
            enable("T.DoesNotExist", strict=True)

    def test_strict_enable_accepts_pure_parent_name(self):
        flag = debug_flag("T.Parent.Leaf")
        enable("T.Parent", strict=True)  # matches only via descendants
        assert flag.enabled


class TestSetFlags:
    def test_replaces_enabled_set(self):
        a, b = debug_flag("T.SetA"), debug_flag("T.SetB")
        set_flags(["T.SetA"])
        assert a.enabled and not b.enabled
        set_flags(["T.SetB"])
        assert not a.enabled and b.enabled

    def test_reset_flags_clears_everything(self):
        flag = debug_flag("T.Reset")
        enable("T.Reset")
        reset_flags()
        assert not flag.enabled
        assert enabled_flags() == []

    def test_parse_flags(self):
        assert parse_flags("Cache, DRAM ,RTL,,") == ["Cache", "DRAM", "RTL"]


class TestTracepoint:
    def test_formats_who_flag_and_tick(self):
        flag = debug_flag("T.Fmt")
        enable("T.Fmt")
        sink = io.StringIO()
        set_sink(sink)
        tracepoint(flag, "l1d0", "miss addr=%#x", 0x40, tick=1500)
        line = sink.getvalue()
        assert "1500" in line
        assert "l1d0" in line
        assert "[T.Fmt]" in line
        assert "miss addr=0x40" in line

    def test_no_tick_renders_dash(self):
        flag = debug_flag("T.NoTick")
        enable("T.NoTick")
        sink = io.StringIO()
        set_sink(sink)
        tracepoint(flag, "port", "rejected")
        assert sink.getvalue().lstrip().startswith("-")

    def test_disabled_flag_emits_nothing(self):
        flag = debug_flag("T.Off")
        sink = io.StringIO()
        set_sink(sink)
        tracepoint(flag, "x", "should not appear", tick=1)
        assert sink.getvalue() == ""

    def test_mirrors_into_chrome_tracer(self):
        from repro.trace.chrome import ChromeTracer

        flag = debug_flag("T.Mirror")
        enable("T.Mirror")
        set_sink(io.StringIO())
        tracer = ChromeTracer()
        set_chrome_tracer(tracer)
        tracepoint(flag, "dram0", "enqueue", tick=2000)
        instants = [e for e in tracer.events if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "enqueue"
        assert instants[0]["args"]["who"] == "dram0"

    def test_tickless_tracepoint_not_mirrored(self):
        from repro.trace.chrome import ChromeTracer

        flag = debug_flag("T.NoMirror")
        enable("T.NoMirror")
        set_sink(io.StringIO())
        tracer = ChromeTracer()
        set_chrome_tracer(tracer)
        tracepoint(flag, "port", "no timestamp")
        assert not [e for e in tracer.events if e["ph"] == "i"]
