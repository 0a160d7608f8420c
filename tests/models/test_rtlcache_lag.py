"""The RTL caches lag behind the event queue while nothing is in play
(DESIGN.md "Cycles that are counted, not dispatched").

Every case runs one cache twice through the owing-versus-stepped
harness (``tests/owing.py``): as built (it lags while no request, fill
or probe is in play) and single-stepped.  Seeded traffic, the harness's
seeded ``stats_dump()`` probes, ``run(until=)`` stops and state flips
that land inside lags; the responses, every dump, the memory image, the
end tick and the final ``stats_dump()`` must be equal.
"""

import hashlib

import pytest

from repro.coherence import check
from repro.models.rtlcache import coherent
from repro.models.rtlcache.coherent import RTLCoherentCacheObject
from repro.models.rtlcache.wrapper import (
    RTLCacheECCSharedLibrary,
    RTLCacheObject,
    RTLCacheSharedLibrary,
)
from repro.soc.event import ClockDomain
from repro.soc.mem.ideal import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation
from tests.owing import (Probes, SteppedCache, SteppedCoherentCache,
                         assert_owing_matches)

FREQS = [1e9, 2e9, 4e9]
BASE = 0x1_0000
LINES = 32  # twice the 16 sets of IDXW=4: conflicts and evictions


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
    span = 3_000_000
    probes = Probes(sim, cache, f"{seed}-{freq}", span,
                    observe=lambda: cache.inflight)
    seen = probes.seen
    drv = RequestPort(
        "drv",
        recv_timing_resp=lambda pkt: seen.append(
            ("resp", sim.now, pkt.cmd.name, pkt.addr, pkt.data)) or True,
        recv_req_retry=lambda: None)
    drv.connect(cache.cpu_side[0])

    def send(addr, data):
        cmd = MemCmd.ReadReq if data is None else MemCmd.WriteReq
        drv.send_timing_req(Packet(cmd, addr, 8, data=data))

    rng = probes.rng
    tick = 5_000
    while tick < span:
        for _ in range(rng.randrange(1, 5)):
            addr = BASE + 8 * rng.randrange(LINES * 8)
            data = (rng.randrange(1 << 64).to_bytes(8, "little")
                    if rng.randrange(4) == 0 else None)
            probes.at(lambda a=addr, d=data: send(a, d), tick)
            tick += rng.randrange(0, 4_000)
        tick += rng.randrange(0, 150_000)
    flips = [("hits", 6)] + [(f"data[{line}]", 64 * (line % 8) + 5)
                             for line in range(16)]
    probes.dumps(20).flips(flips, sim.default_clock.period).stop_at(6)
    probes.run()
    sim.run(until=span + 200_000)
    image = hashlib.sha256(mem.physmem.read(BASE, LINES * 64)).hexdigest()
    return (seen, image, sim.now, sim.stats_dump()), sim.eventq.executed, \
        probes.mid


@pytest.mark.parametrize("freq", FREQS)
@pytest.mark.parametrize("library", [RTLCacheSharedLibrary,
                                     RTLCacheECCSharedLibrary],
                         ids=["plain", "ecc"])
def test_cache_lag_matches_single_step(library, freq):
    seen, _image, _now, stats = assert_owing_matches(
        lambda stepped: _cache_run(SteppedCache if stepped
                                   else RTLCacheObject, library, freq, 11),
        10, 0.5)
    assert sum(kind == "resp" for kind, *_ in seen) > 50
    assert stats["system.faultinjector.flips"] == 17
    if library is RTLCacheECCSharedLibrary:
        assert stats["system.cache.rtl_corrections"] > 0


def _coherent_run(monkeypatch, cls, freq, seed):
    """The sharing stress: two MESI L1s and the coherent RTL cache under
    a snooping directory, its invalidations and grants arriving while
    the RTL cache lags."""
    monkeypatch.setattr(
        coherent, "RTLCoherentCacheObject",
        lambda *args, **kwargs: cls(*args, clock=ClockDomain(freq), **kwargs))
    system = check.build_sharing_system(cores=2, ops=150, seed=seed, rtl=1)
    sim = system.sim
    cache = system.rtl

    def observe():
        # what the directory's audits see of the participant: a posted
        # store stays in flight until the edge after its ack
        check.check_coherence_invariants(system)
        return cache.quiet, list(cache.iter_lines())

    probes = Probes(sim, cache, f"{seed}-{freq}", 1_500_000, observe)
    # flips on the design's counters only: a flipped tag or valid bit
    # is a lockstep divergence, which the campaign tests cover
    probes.dumps(20).flips([("hits", 4), ("snoops", 9)],
                           sim.default_clock.period).stop_at(6)
    seen = probes.run()
    sim.run(until=4_000_000)
    assert all(d.done for d in system.drivers) and cache.quiet
    check.check_coherence_invariants(system)
    layout = system.layout
    image = hashlib.sha256(system.mem.physmem.read(
        layout.shared_base, layout.shared_lines * 64)).hexdigest()
    return (seen, image, sim.now, sim.stats_dump()), sim.eventq.executed, \
        probes.mid


@pytest.mark.parametrize("freq", FREQS)
def test_coherent_cache_lag_matches_single_step(monkeypatch, freq):
    stats = assert_owing_matches(
        lambda stepped: _coherent_run(
            monkeypatch, SteppedCoherentCache if stepped
            else RTLCoherentCacheObject, freq, 900), 5)[3]
    assert stats["system.rtl_l1.invalidations"] > 10
    assert stats["system.faultinjector.flips"] == 2


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
