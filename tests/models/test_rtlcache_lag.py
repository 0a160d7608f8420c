"""The RTL caches lag behind the event queue while nothing is in play
(DESIGN.md "Cycles that are counted, not dispatched").

Every case runs one cache twice: as built (it lags while no request,
fill or probe is in play) and as a subclass whose ``lag_cycles`` is
``RTLObject.lag_cycles``, the single-stepped reference ticked by its
clock domain.  Seeded traffic, seeded ``stats_dump()`` probes at clock,
default and stats priority, ``run(until=)`` stops and state flips that
land inside lags; the responses, every dump, the memory image, the end
tick and the final ``stats_dump()`` must be equal.
"""

import hashlib
import random

import pytest

from repro.bridge.rtl_object import RTLObject
from repro.coherence import check
from repro.models.rtlcache import coherent
from repro.models.rtlcache.coherent import RTLCoherentCacheObject
from repro.models.rtlcache.wrapper import (
    RTLCacheECCSharedLibrary,
    RTLCacheObject,
    RTLCacheSharedLibrary,
)
from repro.resilience.faults import Fault, FaultInjector, FaultPlan
from repro.soc.event import ClockDomain, EventPriority
from repro.soc.mem.ideal import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation

PRIORITIES = (EventPriority.CLOCK, EventPriority.DEFAULT, EventPriority.STATS)
FREQS = [1e9, 2e9, 4e9]
BASE = 0x1_0000
LINES = 32  # twice the 16 sets of IDXW=4: conflicts and evictions


class SteppedCache(RTLCacheObject):
    lag_cycles = RTLObject.lag_cycles


class SteppedCoherentCache(RTLCoherentCacheObject):
    lag_cycles = RTLObject.lag_cycles


def _probes(sim, rng, cache, span, seen, mid_lag, flips, observe):
    """Seeded stats dumps (with what *observe* returns), flips and run
    stops over *span* ticks; the flips are probed a tick early, to count
    the ones that land mid-lag.  Returns the stops."""
    def dump():
        mid_lag.append(cache._lagging)
        seen.append(("dump", sim.now, sim.stats_dump(), observe()))

    for _ in range(20):
        sim.eventq.schedule_fn(dump, rng.randrange(1_000, span),
                               rng.choice(PRIORITIES))
    period = sim.default_clock.period
    faults = []
    for signal, bit in flips:
        cycle = rng.randrange(10, span // period)
        faults.append(Fault("rtl-flip", cycle, bit, signal))
        sim.eventq.schedule_fn(lambda: mid_lag.append(cache._lagging),
                               cycle * period - 1, EventPriority.STATS)
    FaultInjector(sim, FaultPlan(faults), absolute_cycles=True)
    return sorted(rng.randrange(1_000, span) for _ in range(6))


def _run_to(sim, stops, end, seen):
    sim.startup()
    for stop in stops:
        sim.run(until=stop)
        seen.append(("stop", sim.now, sim.stats_dump()))
    sim.run(until=end)


def _cache_run(cls, library, freq, seed):
    """One cache behind an ideal memory under seeded bursts of reads and
    writes with idle gaps between them."""
    sim = Simulation()
    cache = cls(sim, "cache", library(idxw=4), clock=ClockDomain(freq))
    mem = IdealMemory(sim, "mem", latency_cycles=5)
    cache.mem_side[0].connect(mem.port)
    cache.mem_side[1].connect(IdealMemory(sim, "mem2").port)
    mem.physmem.write(BASE, bytes((i * 37 + 11) & 0xFF
                                  for i in range(LINES * 64)))
    seen, mid_lag = [], []
    drv = RequestPort(
        "drv",
        recv_timing_resp=lambda pkt: seen.append(
            ("resp", sim.now, pkt.cmd.name, pkt.addr, pkt.data)) or True,
        recv_req_retry=lambda: None)
    drv.connect(cache.cpu_side[0])

    def send(addr, data):
        cmd = MemCmd.ReadReq if data is None else MemCmd.WriteReq
        drv.send_timing_req(Packet(cmd, addr, 8, data=data))

    rng = random.Random(f"{seed}-{freq}")
    span = 3_000_000
    tick = 5_000
    while tick < span:
        for _ in range(rng.randrange(1, 5)):
            addr = BASE + 8 * rng.randrange(LINES * 8)
            data = (rng.randrange(1 << 64).to_bytes(8, "little")
                    if rng.randrange(4) == 0 else None)
            sim.eventq.schedule_fn(lambda a=addr, d=data: send(a, d), tick,
                                   rng.choice(PRIORITIES))
            tick += rng.randrange(0, 4_000)
        tick += rng.randrange(0, 150_000)
    flips = [("hits", 6)] + [(f"data[{line}]", 64 * (line % 8) + 5)
                             for line in range(16)]
    stops = _probes(sim, rng, cache, span, seen, mid_lag, flips,
                    lambda: cache.inflight)
    _run_to(sim, stops, span + 200_000, seen)
    image = hashlib.sha256(mem.physmem.read(BASE, LINES * 64)).hexdigest()
    return (seen, image, sim.now, sim.stats_dump()), sim.eventq.executed, \
        sum(mid_lag)


@pytest.mark.parametrize("freq", FREQS)
@pytest.mark.parametrize("library", [RTLCacheSharedLibrary,
                                     RTLCacheECCSharedLibrary],
                         ids=["plain", "ecc"])
def test_cache_lag_matches_single_step(library, freq):
    stepped, stepped_events, _ = _cache_run(SteppedCache, library, freq, 11)
    lagged, events, mid_lag = _cache_run(RTLCacheObject, library, freq, 11)
    assert lagged == stepped
    seen = lagged[0]
    assert sum(kind == "resp" for kind, *_ in seen) > 50
    stats = lagged[3]
    assert stats["system.faultinjector.flips"] == 17
    if library is RTLCacheECCSharedLibrary:
        assert stats["system.cache.rtl_corrections"] > 0
    assert mid_lag >= 10  # probes and flips did land inside lags
    assert events < 0.5 * stepped_events


def _coherent_run(monkeypatch, cls, freq, seed):
    """The sharing stress: two MESI L1s and the coherent RTL cache under
    a snooping directory, its invalidations and grants arriving while
    the RTL cache lags."""
    monkeypatch.setattr(
        coherent, "RTLCoherentCacheObject",
        lambda *args, **kwargs: cls(*args, clock=ClockDomain(freq), **kwargs))
    system = check.build_sharing_system(cores=2, ops=150, seed=seed, rtl=1)
    sim = system.sim
    seen, mid_lag = [], []
    rng = random.Random(f"{seed}-{freq}")
    span = 1_500_000
    # flips on the design's counters only: a flipped tag or valid bit
    # is a lockstep divergence, which the campaign tests cover
    flips = [("hits", 4), ("snoops", 9)]
    cache = system.rtl

    def observe():
        # what the directory's audits see of the participant: a posted
        # store stays in flight until the edge after its ack
        check.check_coherence_invariants(system)
        return cache.quiet, list(cache.iter_lines())

    stops = _probes(sim, rng, cache, span, seen, mid_lag, flips, observe)
    _run_to(sim, stops, 4_000_000, seen)
    assert all(d.done for d in system.drivers) and cache.quiet
    check.check_coherence_invariants(system)
    layout = system.layout
    image = hashlib.sha256(system.mem.physmem.read(
        layout.shared_base, layout.shared_lines * 64)).hexdigest()
    return (seen, image, sim.now, sim.stats_dump()), sim.eventq.executed, \
        sum(mid_lag)


@pytest.mark.parametrize("freq", FREQS)
def test_coherent_cache_lag_matches_single_step(monkeypatch, freq):
    stepped, stepped_events, _ = _coherent_run(
        monkeypatch, SteppedCoherentCache, freq, 900)
    lagged, events, mid_lag = _coherent_run(
        monkeypatch, RTLCoherentCacheObject, freq, 900)
    assert lagged == stepped
    stats = lagged[3]
    assert stats["system.rtl_l1.invalidations"] > 10
    assert stats["system.faultinjector.flips"] == 2
    assert mid_lag >= 5
    assert events < stepped_events


def test_sharing_stress_event_count_is_pinned():
    """The coherence benchmark's RTL phase: two cores, 600 operations,
    seed 900.  15 946 events when the RTL cache ran ahead in windows
    and stepped between them; lagging, it is dispatched only for the
    edges where something is in play."""
    built = []
    build = check.build_sharing_system

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    check.build_sharing_system = keep
    try:
        check.run_sharing_stress(cores=2, ops=600, seed=900, rtl=1)
    finally:
        check.build_sharing_system = build
    assert built[0].sim.eventq.executed <= 10_500
