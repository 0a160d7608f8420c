"""Declared checkpoint state is complete.

A class saves exactly the fields its ``ckpt_state`` table and its
``ckpt_hooked`` hook declare (:class:`repro.soc.simobject.Checkpointed`).
This test steps bundled systems one event at a time and, at every
instant a checkpoint could be taken (``checkpoint_blockers`` is empty),
compares every attribute of every SimObject and checkpoint extra with
the previous such instant, descending into the objects each owns
(ports, DRAM channels, lanes, a prefetcher, an RTL object's
shared library and its kernel, the NVDLA library's core).  An attribute
that changed must be declared state or one of the kinds listed in
``NOT_STATE``; anything else would be lost by a save and a restore.
Before it steps, it checks that every ``Event`` a checkpointed object
holds is declared in ``ckpt_events`` or listed in ``TRANSIENT_EVENTS``:
an undeclared event that re-arms itself would otherwise leave no
checkpointable instant, and a save would step on until its wait runs
out.

It compares at every checkpointable instant, not at two: a field that
is None at both ends of a window (a request held at an RTL cache's
pins) can still be live at a save in between.  And every checkpointed
class under ``src/`` is built by one of the systems.
"""

import importlib
import pkgutil
import random
import re
from collections import deque

import pytest

from repro.resilience.serialize import checkpoint_blockers
from repro.rtl.codegen import CodegenProgram
from repro.rtl.kernel import CombProcess, Memory, RTLModule, Signal, SyncProcess
from repro.rtl.vcd import VCDWriter
from repro.soc.event import ClockDomain, Event, EventQueue
from repro.soc.packet import Packet
import repro
from repro.bridge.rtl_object import RTLObject
from repro.bridge.shared_library import (BehavioralSharedLibrary,
                                         RTLSharedLibrary, SharedLibrary)
from repro.soc.cache.cache import BasePrefetcher
from repro.soc.cache.core import CacheCore
from repro.soc.simobject import (EACH, OWNED, PORT_QUEUES, Checkpointed,
                                 SimObject, Simulation)
from repro.soc.stats import Stat, StatGroup
from repro.soc.system import SoC

# What a checkpoint need not carry, per class (inherited), with why:
#   memo: rebuilt from declared state after a load (or on first use);
#   owed: edges a lagging RTL model owes (SimObject.catch_up), which
#         catch_up(end=True) settles and ends before every save: the
#         owing record, and the pulses a lagging PMU logs.
# (Transient state a ckpt_veto guards never differs between two
# checkpointable instants, and statistics are Stat objects the engine
# saves on its own; neither needs listing.  A core's owed stall window
# crosses a save: the core declares it.)
OWED = dict.fromkeys(("_owed", "_owed_seq"), "owed")
NOT_STATE = {
    "SimObject": {"_ckpt_kinds": "memo"},
    "RTLObject": {"last_output": "memo", **OWED},
    "PMURTLObject": {"_log": "owed"},
    # a lagging PMU's tap on the wire it counts
    "OoOCore": {"commit_wire.lag": "owed"},
    "DRAMController": {"channels.where": "memo"},
    # the generated replay of each varied field, built on its first use
    "RTLSharedLibrary": {"_replays": "memo"},
}

#: ``Event`` attributes no ``ckpt_events`` declares, per class, with
#: why: none (a declared event held under a second name, such as the
#: ``_owed_event`` a core or an RTL object arms, is the same object)
TRANSIENT_EVENTS: dict = {}

#: what is never descended into: saved by other means, or fixed (an RTL
#: design and the code generated for it)
OPAQUE = (SimObject, Simulation, Packet, Event, ClockDomain, EventQueue,
          Stat, StatGroup, SoC, RTLModule, Signal, Memory, CombProcess,
          SyncProcess, CodegenProgram, VCDWriter)


def _declared(cls) -> set:
    """Attribute paths *cls*'s tables and hook declare.  An owned
    object's fields (OWNED, EACH) are checked against its own class."""
    out = set()
    for klass in cls.__mro__:
        for entry in klass.__dict__.get("ckpt_state", ()):
            attr, codec = entry[-2:]
            if codec is PORT_QUEUES:
                attr += ".queue"
            if codec not in (OWNED, EACH):
                out.add(attr)
        out.update(klass.__dict__.get("ckpt_hooked", ()))
    return out


def _not_state(cls) -> dict:
    out = {}
    for klass in cls.__mro__:
        out.update(NOT_STATE.get(klass.__name__, {}))
    return out


def _attrs(obj) -> dict:
    if hasattr(obj, "__dict__"):
        return vars(obj)
    return {name: getattr(obj, name) for klass in type(obj).__mro__
            for name in klass.__dict__.get("__slots__", ())
            if hasattr(obj, name)}


def _walked(value) -> bool:
    """Whether *value* is an object whose fields are compared, not a
    reference compared by identity."""
    cls = type(value)
    return (cls.__module__.startswith("repro.")
            and not isinstance(value, OPAQUE)
            and not getattr(getattr(cls, "__dataclass_params__", None),
                            "frozen", False))


class _Snapshot:
    """Flat ``(object, path) -> value`` of everything an object tree
    holds that its classes do not declare; objects saved elsewhere
    (packets, SimObjects, events) are kept by identity."""

    def __init__(self, roots: dict) -> None:
        # an object held directly by a root belongs to that root; one a
        # declared attribute holds is saved with it, however else it is
        # reached (the PMU's wired lanes are among its lanes)
        self.owner: dict = {id(root): name for name, root in roots.items()}
        self.covered = set()
        for name, root in roots.items():
            declared = _declared(type(root))
            for attr, value in _attrs(root).items():
                items = (list(value.values()) if isinstance(value, dict)
                         else value if isinstance(value, (list, tuple))
                         else (value,))
                for item in items:
                    if _walked(item):
                        self.owner.setdefault(id(item), name)
                if attr in declared:
                    self.covered.add(id(value))
                    self.covered.update(map(id, items))
        self.flat: dict = {}
        #: the class of every object compared field by field
        self.types: set = set()
        for name, root in roots.items():
            self._walk(name, root, "", "", frozenset())

    def _walk(self, top, obj, prefix, bare_prefix, skip):
        self.types.add(type(obj))
        if isinstance(obj, Checkpointed):
            skip = skip | {bare_prefix + d for d in _declared(type(obj))} \
                | {bare_prefix + k for k in _not_state(type(obj))}
        for attr, value in _attrs(obj).items():
            bare = bare_prefix + attr
            if bare not in skip:
                self.flat[top, prefix + attr] = self._value(
                    top, value, prefix + attr, bare, skip)

    def _value(self, top, value, path, bare, skip):
        if value is None or type(value) in (bool, int, float, str, bytes):
            return value
        if isinstance(value, bytearray):
            return bytes(value)
        if isinstance(value, random.Random):
            return value.getstate()
        if isinstance(value, (list, tuple, deque)):
            return (type(value).__name__, tuple(
                self._value(top, v, f"{path}[{i}]", bare, skip)
                for i, v in enumerate(value)))
        if isinstance(value, dict):
            return ("dict", tuple(
                (self._value(top, k, path, bare, skip),
                 self._value(top, v, f"{path}[{k!r}]", bare, skip))
                for k, v in value.items()))
        if isinstance(value, (set, frozenset)):
            return ("set", frozenset(
                self._value(top, v, path, bare, skip) for v in value))
        if (_walked(value) and id(value) not in self.covered
                and self.owner.get(id(value), top) == top):
            self._walk(top, value, path + ".", bare + ".", skip)
            return ("owned", id(value))
        return ("ref", id(value))


def _snapshot(sim) -> _Snapshot:
    roots = {obj.path(): obj for obj in sim.objects}
    roots.update({f"extra:{n}": x for n, x in sim.extras.items()})
    return _Snapshot(roots)


def _undeclared_events(sim) -> list:
    """``object.attribute`` of every ``Event`` a checkpointed object
    holds (descending into the checkpointed objects it holds) that its
    class neither declares in ``ckpt_events`` nor lists in
    ``TRANSIENT_EVENTS``."""
    out = []
    todo = [(obj.path(), obj) for obj in sim.objects]
    todo += [(f"extra:{name}", x) for name, x in sim.extras.items()]
    seen = set()
    while todo:
        where, obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        declared = {id(get(obj)) for get in obj._ckpt_events.values()}
        transient = {attr for klass in type(obj).__mro__
                     for attr in TRANSIENT_EVENTS.get(klass.__name__, ())}
        for attr, value in _attrs(obj).items():
            items = value if isinstance(value, (list, tuple)) else (value,)
            for item in items:
                if isinstance(item, Event):
                    if id(item) not in declared and attr not in transient:
                        out.append(f"{where}.{attr}")
                elif (isinstance(item, Checkpointed)
                      and not isinstance(item, SimObject)):
                    todo.append((f"{where}.{attr}", item))
    return sorted(out)


#: system name -> the classes its snapshots compared
BUILT: dict = {}


def _undeclared_changes(name, sim, events: int) -> tuple[dict, int]:
    """Step *events* events; return ``{(object, path): count}`` of the
    undeclared attributes that changed between consecutive
    checkpointable instants, and how many such instants there were."""
    changed: dict = {}
    instants = 0
    before = None
    for _ in range(events):
        if not checkpoint_blockers(sim):
            instants += 1
            snapshot = _snapshot(sim)
            BUILT.setdefault(name, set()).update(snapshot.types)
            now = snapshot.flat
            if before is not None:
                for key in now.keys() | before.keys():
                    if now.get(key) != before.get(key):
                        bare = (key[0], re.sub(r"\[[^\]]*\]", "", key[1]))
                        changed[bare] = changed.get(bare, 0) + 1
            before = now
        if not sim.eventq.service_one():
            break
    return changed, instants


# -- the bundled systems -----------------------------------------------------


def _pmu_lagging():
    from repro.dse.pmu_experiment import (
        COMMIT_LANES, CYCLE_LANE, MISS_LANE, build_pmu_system)

    soc, pmu, drv = build_pmu_system(n_sort=60, memory="DDR4-1ch")
    drv.enable(sum(1 << lane
                   for lane in (*COMMIT_LANES, MISS_LANE, CYCLE_LANE)))
    drv.set_threshold(CYCLE_LANE, 3_000)
    soc.sim.run(until=1_000_000)
    return soc.sim


def _nvdla(until, **kwargs):
    from repro.dse.nvdla_system import build_nvdla_system

    system = build_nvdla_system(workload="sanity3", **kwargs)
    for host in system.hosts:
        host.start()
    system.soc.sim.run(until=until)
    return system.soc.sim


def _sharing_rtl():
    from repro.coherence.check import build_sharing_system

    system = build_sharing_system(cores=2, ops=600, seed=900, rtl=1)
    system.sim.run(until=50_000)
    return system.sim


def _ecc_cache_target():
    from repro.resilience.targets import CacheRig

    rig = CacheRig({"idxw": 4, "requests": 600, "seed": 7, "gap_cycles": 3,
                    "span_lines": 8, "ecc": True})
    rig.sim.run(until=2_000)
    return rig.sim


def _rtlcache_mmio():
    from repro.models.rtlcache.wrapper import RTLCacheObject
    from repro.soc.iomaster import IOMaster
    from repro.soc.mem.ideal import IdealMemory
    from repro.soc.simobject import Simulation

    sim = Simulation()
    rtlc = RTLCacheObject(sim, "rtlc")
    mem = IdealMemory(sim, "mem", latency_cycles=4)
    io = IOMaster(sim, "io")
    io.port.connect(rtlc.cpu_side[0])
    rtlc.mem_side[0].connect(mem.port)
    sim.register_extra("physmem", mem.physmem)
    for i in range(1_000):
        io.read(0x1_0000 + 8 * (i * 5 % 48), size=8)   # no callback
    sim.startup()
    return sim


def _campaign_faults():
    """A campaign target armed as a campaign experiment arms it: flips
    at absolute cycles, and a retry storm's one-shots around them."""
    from repro.resilience.faults import Fault, FaultInjector, FaultPlan
    from repro.resilience.targets import CacheRig

    rig = CacheRig({"idxw": 4, "requests": 600, "seed": 7, "gap_cycles": 3,
                    "span_lines": 8, "ecc": False})
    plan = FaultPlan([Fault("rtl-flip", 40, 3), Fault("retry-storm", 60, 20),
                      Fault("rtl-flip", 150, 11)])
    rig.sim.startup()
    injector = FaultInjector(rig.sim, plan, absolute_cycles=True)
    injector.init()
    injector.startup()
    return rig.sim


def _pmu_armed():
    """Fig. 5's system with ``--watchdog`` and ``--checkpoint-every``
    attached the way the CLI attaches them."""
    from repro.dse.pmu_experiment import build_pmu_system
    from repro.resilience.control import arm

    soc, _pmu, _drv = build_pmu_system(n_sort=60, memory="DDR4-1ch")
    soc.sim.startup()
    arm(soc.sim, None, {"check_cycles": 200}, (400, None), None)
    soc.sim.run(until=100_000)
    return soc.sim


def _nvdla_translated():
    """An NVDLA whose DMA goes through a small TLB (``translate=True``),
    wired as ``tests/bridge/test_rtl_object.py`` wires one, with one
    layer programmed over its CSB port."""
    from repro.models.nvdla import core as regs
    from repro.models.nvdla.rtl_object import NVDLARTLObject
    from repro.soc.iomaster import IOMaster
    from repro.soc.mem.ideal import IdealMemory
    from repro.soc.tlb import TLB, PageTable

    sim = Simulation()
    table = PageTable()
    table.map(0x10_0000, 0x80_0000, 0x10_0000)
    tlb = TLB(sim, "tlb", page_table=table, entries=4)
    rtl = NVDLARTLObject(sim, "nvdla", tlb=tlb, translate=True, mmio_base=0)
    mem = IdealMemory(sim, "mem")
    rtl.mem_side[0].connect(mem.port)
    rtl.mem_side[1].connect(IdealMemory(sim, "mem2", physmem=mem.physmem).port)
    sim.register_extra("physmem", mem.physmem)
    io = IOMaster(sim, "io")
    io.port.connect(rtl.cpu_side[0])
    for reg, value in ((regs.REG_IN_ADDR_LO, 0x10_0000),
                       (regs.REG_W_ADDR_LO, 0x14_0000),
                       (regs.REG_OUT_ADDR_LO, 0x18_0000),
                       (regs.REG_IN_BLOCKS, 512), (regs.REG_W_BLOCKS, 64),
                       (regs.REG_OP_ENABLE, 1)):
        io.write_word(reg, value)
    sim.startup()
    return sim


def _bitonic():
    """The VHDL sorter's library in an RTL object, fed a new vector
    every cycle (a function of the tick: the driver holds no state)."""
    from repro.models.bitonic.wrapper import BitonicSharedLibrary

    class Sorter(RTLObject):
        def build_input(self):
            n = self.now // self.clock.period
            return self.library.input_spec.pack(
                valid_in=1, data=[(n * 7 + i * 13) % 0xFFFF for i in range(8)])

    sim = Simulation()
    Sorter(sim, "sorter", BitonicSharedLibrary(width=16))
    sim.startup()
    return sim


#: name -> (function that builds it, events to step)
SYSTEMS = {
    "pmu-lag": (_pmu_lagging, 1_500),
    # the first 800 events hold the membus's first refusal
    "nvdla4-ddr4-4ch": (lambda: _nvdla(0, n_nvdla=4, memory="DDR4-4ch",
                                       scale=0.2, timed_load=False), 800),
    "nvdla-timed-load": (lambda: _nvdla(200_000, n_nvdla=1,
                                        memory="DDR4-1ch", scale=0.2,
                                        timed_load=True), 500),
    "sharing-rtl": (_sharing_rtl, 4_000),
    "ecc-cache-target": (_ecc_cache_target, 1_500),
    "rtlcache-mmio": (_rtlcache_mmio, 1_000),
    "campaign-faults": (_campaign_faults, 1_500),
    "pmu-armed": (_pmu_armed, 1_500),
    "nvdla-translated": (_nvdla_translated, 800),
    "bitonic": (_bitonic, 100),
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_changed_attribute_is_declared(name):
    build, events = SYSTEMS[name]
    sim = build()
    undeclared = _undeclared_events(sim)
    assert not undeclared, (
        f"{name}: events neither in ckpt_events nor in TRANSIENT_EVENTS: "
        f"{undeclared}")
    changed, instants = _undeclared_changes(name, sim, events)
    assert instants > 20, (
        f"only {instants} checkpointable instants; now: "
        f"{checkpoint_blockers(sim)}")
    assert not changed, (
        f"{name}: attributes changed between checkpointable instants but "
        f"are not declared state (object, path: times): {changed}")


#: classes only ever built as a subclass
BASES = {SimObject, CacheCore, BasePrefetcher, RTLObject, SharedLibrary,
         RTLSharedLibrary, BehavioralSharedLibrary}


def test_every_checkpointed_class_is_built():
    """The systems above build every checkpointed class under ``src/``
    (those whose test ran first are not built again)."""
    _import_all()
    built = set()
    for name, (build, _events) in SYSTEMS.items():
        built |= BUILT.get(name) or _snapshot(build()).types
    classes = {cls for cls in _all_subclasses(Checkpointed)
               if cls.__module__.startswith("repro.")}
    assert BASES <= classes
    missing = sorted(cls.__name__ for cls in classes - BASES - built)
    assert not missing, f"no system builds {missing}"


#: the classes that keep a ``ckpt_save``/``ckpt_load`` hook, each for
#: state no codec can say (its ``ckpt_hooked`` comment says which)
HOOKED = {"OoOCore", "DRAMController", "RTLObject"}


def test_only_state_no_codec_can_say_is_hooked():
    _import_all()
    hooked = {cls for cls in _all_subclasses(Checkpointed)
              if cls.__module__.startswith("repro.")
              and {"ckpt_save", "ckpt_load"} & set(vars(cls))}
    assert {cls.__name__ for cls in hooked} == HOOKED
    for cls in hooked:
        assert cls.__dict__.get("ckpt_hooked"), cls.__name__


def test_not_state_never_names_declared_state():
    """Each attribute is in exactly one category."""
    import repro.models.pmu.rtl_object  # noqa: F401
    import repro.soc.mem.dram  # noqa: F401

    seen = {}
    for cls in _all_subclasses(Checkpointed):
        overlap = _declared(cls) & set(_not_state(cls))
        assert not overlap, f"{cls.__name__}: {overlap}"
        seen[cls.__name__] = cls
    for name in NOT_STATE:
        assert name in seen, f"NOT_STATE names unknown class {name}"


def _import_all() -> None:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)
