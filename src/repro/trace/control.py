"""Runtime on/off control: trace windows and the waveform registry.

The paper's headline observability feature is that tracing can be
toggled *from gem5, mid-simulation*.  :class:`TraceWindow` is that
switch generalised: given ``--trace-start``/``--trace-end`` (in cycles
of the simulation's default clock) it schedules two events that flip

* the requested debug flags,
* the installed Chrome tracer (if any), and
* every live :class:`~repro.rtl.vcd.VCDWriter` that registered itself
  (RTL shared libraries register their writers at construction)

on and off together — one switch for text tracing, trace-event JSON and
waveforms, reproducing the runtime enable/disable flow whose cost
Table 2 quantifies.

The CLI cannot build the window itself (experiment harnesses create
their :class:`~repro.soc.simobject.Simulation` internally), so
:func:`arm` parks a hook that builds one on
:data:`repro.soc.simobject.startup_hooks`; the first simulation that
starts runs it.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Optional

from .flags import (
    debug_flag,
    disable,
    enable,
    get_chrome_tracer,
    parse_flags,
    set_chrome_tracer,
    set_default_profiler,
    set_flags,
)

__all__ = [
    "TraceWindow",
    "arm",
    "register_coverage",
    "register_vcd",
    "registered_coverage",
    "registered_vcds",
]

#: live VCD writers that want to follow the global trace switch
_vcd_writers: "weakref.WeakSet" = weakref.WeakSet()

#: live coverage collectors (repro.verify) that want to follow it too
_coverage_sinks: "weakref.WeakSet" = weakref.WeakSet()


def register_vcd(writer) -> None:
    """Make *writer* (a VCDWriter-like with enable()/disable()) follow
    trace windows."""
    _vcd_writers.add(writer)


def registered_vcds() -> list:
    return list(_vcd_writers)


def register_coverage(collector) -> None:
    """Make *collector* (anything with ``enable()``/``disable()``, e.g. a
    :class:`repro.verify.coverage.CoverageCollector`) follow trace windows, so
    coverage is only accumulated while the window is open."""
    _coverage_sinks.add(collector)


def registered_coverage() -> list:
    return list(_coverage_sinks)


def arm(flag_spec: Optional[str], trace_out: Optional[str] = None,
        start: Optional[int] = None, end: Optional[int] = None):
    """The CLI's ``--debug-flags``/``--trace-*``: enable the flags of
    *flag_spec*, write a Chrome trace to *trace_out*, and with *start* or
    *end* park a :class:`TraceWindow` for the first simulation that
    starts.  Returns the installed
    :class:`~repro.trace.chrome.ChromeTracer`, if any, to ``finish()``
    once the command completes."""
    names = parse_flags(flag_spec) if flag_spec else []
    tracer = None
    if trace_out:
        from .chrome import ChromeTracer

        tracer = ChromeTracer(path=trace_out)
        set_chrome_tracer(tracer)
        set_default_profiler(tracer)
        # packet journeys are the headline spans of the JSON trace
        if "Packet" not in names:
            names.append("Packet")
    if start is not None or end is not None:
        if tracer is not None and start is not None:
            tracer.enabled = False  # the window's open() flips it on
        from ..soc.simobject import startup_hooks

        startup_hooks.append(lambda sim: TraceWindow(sim, names, start, end))
    else:
        set_flags(names)
    return tracer


class TraceWindow:
    """Turns tracing on at *start_cycle* and off at *end_cycle*.

    ``start_cycle=None`` means "on from the beginning" (applied
    immediately), ``end_cycle=None`` means "never turned off".  Cycles
    are counted on *clock* (default: the simulation's default clock)
    from the moment the window is armed.
    """

    def __init__(
        self,
        sim,
        flag_names: Iterable[str],
        start_cycle: Optional[int] = None,
        end_cycle: Optional[int] = None,
        clock=None,
    ) -> None:
        self.sim = sim
        self.flag_names = list(flag_names)
        # register up front so the lint invariant (every flag name known)
        # holds even if the traced modules load later
        for name in self.flag_names:
            debug_flag(name)
        self.clock = clock or sim.default_clock
        self.active = False
        base = sim.now
        if start_cycle is None:
            self.open()
        else:
            sim.eventq.schedule_fn(
                self.open, base + self.clock.cycles_to_ticks(start_cycle),
                name="trace.window_open",
            )
        if end_cycle is not None:
            if start_cycle is not None and end_cycle <= start_cycle:
                raise ValueError(
                    f"trace window end {end_cycle} <= start {start_cycle}"
                )
            sim.eventq.schedule_fn(
                self.close, base + self.clock.cycles_to_ticks(end_cycle),
                name="trace.window_close",
            )

    # -- the switch (also usable directly, e.g. from host software) --------

    def _catch_up(self) -> None:
        # An RTL model lagging behind the queue owes edges that precede
        # the switch: they run, and are traced, as the switch found them.
        for obj in self.sim.objects:
            obj.catch_up()

    def open(self) -> None:
        self._catch_up()
        self.active = True
        for name in self.flag_names:
            enable(name)
        tracer = get_chrome_tracer()
        if tracer is not None:
            tracer.enabled = True
            tracer.instant("trace window open", "trace", self.sim.now)
        for writer in _vcd_writers:
            writer.enable()
        for sink in _coverage_sinks:
            sink.enable()

    def close(self) -> None:
        self._catch_up()
        self.active = False
        for name in self.flag_names:
            disable(name)
        tracer = get_chrome_tracer()
        if tracer is not None:
            # first, while the tracer still accepts spans: a busy window
            # left open would be refused once ``enabled`` is False
            tracer.close_windows(self.sim.now)
            tracer.instant("trace window close", "trace", self.sim.now)
            tracer.enabled = False
        for writer in _vcd_writers:
            writer.disable()
        for sink in _coverage_sinks:
            sink.disable()
