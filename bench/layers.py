"""Per-layer host-time attribution for the traced pass.

Measured from outside the program: a profiler installed through the
public ``repro.trace.set_default_profiler`` hook (the
``EventQueue.profiler`` seam ``ChromeTracer`` uses) sees every event
callback by name; benchmark-side wrappers around ``SimObject.__init__``
(name -> owning class) and ``SharedLibrary.tick``/``tick_batch`` (time
inside the RTL / behavioural model) are installed for the pass and
removed after it.

Attribution is by the object that owns the event, inclusive of the
synchronous port calls its callback makes -- the honest limit of
measuring from outside.  ~0.5 M callbacks per run are aggregated, not
spanned.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Iterator

#: every layer a traced pass reports, in table order
LAYERS = (
    "soc.cpu", "soc.cache", "soc.interconnect", "soc.mem", "soc.iomaster",
    "coherence.l1", "coherence.directory", "coherence.driver",
    "bridge", "rtl", "models.nvdla", "resilience", "other",
)

#: module prefix (below ``repro.``) of a SimObject class -> layer
_MODULE_LAYERS = (
    ("soc.cpu", "soc.cpu"),
    ("soc.cache", "soc.cache"),
    ("soc.interconnect", "soc.interconnect"),
    ("soc.mem", "soc.mem"),
    ("soc.iomaster", "soc.iomaster"),
    ("coherence.l1", "coherence.l1"),
    ("coherence.directory", "coherence.directory"),
    ("coherence.check", "coherence.driver"),
    # watchdog, fault injector, periodic checkpointer (campaigns only)
    ("resilience", "resilience"),
)


class LayerProfiler:
    """``EventQueue.profiler`` protocol: aggregate callbacks by event name."""

    def __init__(self) -> None:
        self.events: dict[str, list] = {}      # event name -> [count, seconds]
        self.owners: dict[str, type] = {}      # SimObject name -> class
        self.lib: dict[str, list] = {}         # "rtl"/"models.*" -> [calls, cycles, seconds]
        self._depth = 0

    def host_event(self, name: str, tick: int, t0: float, dur: float) -> None:
        entry = self.events.get(name)
        if entry is None:
            self.events[name] = [1, dur]
        else:
            entry[0] += 1
            entry[1] += dur

    # -- folding ------------------------------------------------------------

    def _layer_of(self, event_name: str) -> str:
        from repro.bridge.rtl_object import RTLObject

        cls = self.owners.get(event_name.rpartition(".")[0])
        if cls is None:
            return "other"
        if issubclass(cls, RTLObject):
            return "bridge"
        module = cls.__module__.removeprefix("repro.")
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return "other"

    def fold(self) -> dict[str, dict]:
        """``{layer: {"host_s", "events"}}``; bridge excludes model time.

        ``rtl``/``models.*`` count library calls as events, and carry
        the RTL cycles those calls advanced in ``cycles``.
        """
        table = {layer: {"host_s": 0.0, "events": 0} for layer in LAYERS}
        for name, (count, seconds) in self.events.items():
            row = table[self._layer_of(name)]
            row["host_s"] += seconds
            row["events"] += count
        for layer, (calls, cycles, seconds) in self.lib.items():
            row = table[layer if layer in table else "other"]
            row["host_s"] += seconds
            row["events"] += calls
            row["cycles"] = row.get("cycles", 0) + cycles
            table["bridge"]["host_s"] -= seconds
        return table

    def reset(self) -> None:
        self.events.clear()
        self.lib.clear()


def _library_layer(cls: type) -> str:
    from repro.bridge.shared_library import RTLSharedLibrary

    if issubclass(cls, RTLSharedLibrary):
        return "rtl"  # an HDL kernel is ticking
    module = cls.__module__.removeprefix("repro.")
    return ".".join(module.split(".")[:2])  # e.g. models.nvdla


def _all_subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@contextlib.contextmanager
def traced(profiler: LayerProfiler) -> Iterator[LayerProfiler]:
    """Install the profiler and the benchmark-side wrappers; always
    restore the originals (``test_bench`` checks nothing is left)."""
    from repro.bridge.shared_library import SharedLibrary
    from repro.soc.simobject import SimObject
    from repro.trace import set_default_profiler

    patched: list[tuple[type, str, object]] = []

    def patch(cls: type, attr: str, wrapper) -> None:
        patched.append((cls, attr, cls.__dict__[attr]))
        wrapper._bench_wrapper = True
        setattr(cls, attr, wrapper)

    orig_init = SimObject.__init__

    def init(self, sim, name, *args, **kwargs):
        orig_init(self, sim, name, *args, **kwargs)
        profiler.owners[name] = type(self)

    def timed(orig, batch: bool):
        def call(self, input_bytes, *rest):
            if profiler._depth:  # a subclass delegating to its base
                return orig(self, input_bytes, *rest)
            profiler._depth = 1
            t0 = perf_counter()
            try:
                return orig(self, input_bytes, *rest)
            finally:
                dur = perf_counter() - t0
                profiler._depth = 0
                layer = _library_layer(type(self))
                entry = profiler.lib.setdefault(layer, [0, 0, 0.0])
                entry[0] += 1
                entry[1] += rest[0] if batch else 1
                entry[2] += dur
        return call

    patch(SimObject, "__init__", init)
    for cls in (SharedLibrary, *_all_subclasses(SharedLibrary)):
        for attr in ("tick", "tick_batch"):
            orig = cls.__dict__.get(attr)
            if orig is not None and not getattr(orig, "__isabstractmethod__", False):
                patch(cls, attr, timed(orig, batch=attr == "tick_batch"))
    set_default_profiler(profiler)
    try:
        yield profiler
    finally:
        set_default_profiler(None)
        for cls, attr, orig in reversed(patched):
            setattr(cls, attr, orig)


def installed() -> bool:
    """True while a profiler or a wrapper is in place (self-test hook)."""
    from repro.bridge.shared_library import SharedLibrary
    from repro.soc.simobject import SimObject
    from repro.trace.flags import get_default_profiler

    if get_default_profiler() is not None:
        return True
    return any(
        getattr(cls.__dict__.get(attr), "_bench_wrapper", False)
        for cls, attrs in (
            (SimObject, ("__init__",)),
            *((lib, ("tick", "tick_batch"))
              for lib in (SharedLibrary, *_all_subclasses(SharedLibrary))),
        )
        for attr in attrs
    )
