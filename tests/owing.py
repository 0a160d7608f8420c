"""Owing versus single-stepped: one harness for the suites that check an
object that owes edges (``SimObject.catch_up``) against the same object
stepping every edge, with one stepped subclass per model.  A suite runs
its system with each class, :class:`Probes` reads both runs at the same
seeded instants, and :func:`assert_owing_matches` demands identical
results with fewer events."""

from __future__ import annotations

import random

from repro.bridge.rtl_object import RTLObject
from repro.dse import pmu_experiment
from repro.dse.pmu_experiment import (COMMIT_LANES, CYCLE_LANE, MISS_LANE,
                                      build_pmu_system)
from repro.models.pmu.rtl_object import PMURTLObject
from repro.models.rtlcache.coherent import RTLCoherentCacheObject
from repro.models.rtlcache.wrapper import RTLCacheObject
from repro.resilience.faults import Fault, FaultInjector, FaultPlan
from repro.soc import system
from repro.soc.cpu.core import OoOCore
from repro.soc.event import EventPriority

PRIORITIES = (EventPriority.CLOCK, EventPriority.DEFAULT, EventPriority.STATS)
LANES = (*COMMIT_LANES, MISS_LANE, CYCLE_LANE)


class SteppedCore(OoOCore):
    def _stall_window(self) -> int:
        return 0


class SteppedPMU(PMURTLObject):
    lag_cycles = RTLObject.lag_cycles


class SteppedCache(RTLCacheObject):
    lag_cycles = RTLObject.lag_cycles


class SteppedCoherentCache(RTLCoherentCacheObject):
    lag_cycles = RTLObject.lag_cycles


class Probes:
    """Seeded reads of one run: stats dumps at clock, default and stats
    priority, ``run(until=)`` stops on and off edges, and fault flips.
    Each probe notes whether *owner* owed edges when it came."""

    def __init__(self, sim, owner, seed, span: int, observe=None) -> None:
        self.sim = sim
        self.owner = owner
        self.rng = random.Random(seed)
        self.span = span
        self.observe = observe or (lambda: None)
        self.seen: list = []
        self.mid = 0  # probes that found *owner* owing
        self.stops: list[int] = []

    def note(self) -> None:
        self.mid += bool(self.owner._owed)

    def at(self, fn, tick: int, priority=None) -> None:
        if priority is None:  # seeded
            priority = self.rng.choice(PRIORITIES)
        self.sim.eventq.schedule_fn(fn, tick, priority)

    def dumps(self, count: int, start: int = 1_000) -> "Probes":
        def dump():
            self.note()
            self.seen.append(("dump", self.sim.now, self.sim.stats_dump(),
                              self.observe()))

        for _ in range(count):
            self.at(dump, self.rng.randrange(start, self.span))
        return self

    def stop_at(self, count: int, start: int = 1_000,
                period: int = 500) -> "Probes":
        """*count* seeded stops, plus stops on an edge, a tick either
        side of one and in mid-period."""
        rng = self.rng
        stops = {rng.randrange(start, self.span) for _ in range(count)}
        stops |= {rng.randrange(start, self.span) // period * period + d
                  for d in (0, 1, period - 1, period // 2)}
        self.stops = sorted(stops)
        return self

    def flips(self, flips, period: int) -> "Probes":
        """One ``rtl-flip`` per ``(signal, bit)`` at a seeded cycle,
        probed a tick early to count the ones that land mid-owing."""
        faults = []
        for signal, bit in flips:
            cycle = self.rng.randrange(10, self.span // period)
            faults.append(Fault("rtl-flip", cycle, bit, signal))
            self.at(self.note, cycle * period - 1, EventPriority.STATS)
        FaultInjector(self.sim, FaultPlan(faults), absolute_cycles=True)
        return self

    def run(self) -> list:
        sim = self.sim
        sim.startup()
        for stop in self.stops:
            sim.run(until=stop)
            self.note()
            self.seen.append(("stop", sim.now, sim.stats_dump(),
                              self.observe()))
        return self.seen


def assert_owing_matches(run, min_mid: int, events_below: float = 1.0):
    """``run(stepped)`` returns ``(result, events, probes mid-owing)``;
    the owing run must equal the stepped one, with at least *min_mid*
    probes landing while it owed and under *events_below* of the stepped
    run's events.  Returns the owing run's result."""
    want, stepped_events, none = run(True)
    got, events, mid = run(False)
    assert none == 0
    assert got == want
    assert mid >= min_mid, f"only {mid} probes landed mid-owing"
    assert events < events_below * stepped_events
    return got


def fig5_run(monkeypatch, stepped_core=False, stepped_pmu=False,
             pmu_freq_hz=None, seed=None, flips=(), owner="pmu"):
    """Fig. 5's wiring on the sort stream, thresholds armed, the PMU's
    interrupts running a handler on the core; with *seed*, seeded dumps,
    stops and MMIO counter reads.  Each interrupt records the counters,
    and the core's cycle when the core is the *owner* under test.
    Returns (result, events, probes that found *owner* owing)."""
    monkeypatch.setattr(system, "OoOCore",
                        SteppedCore if stepped_core else OoOCore)
    monkeypatch.setattr(pmu_experiment, "PMURTLObject",
                        SteppedPMU if stepped_pmu else PMURTLObject)
    soc, pmu, drv = build_pmu_system(n_sort=14, sleep_cycles=1_200,
                                     pmu_freq_hz=pmu_freq_hz)
    sim, core = soc.sim, soc.cores[0]
    drv.enable(sum(1 << lane for lane in LANES))
    drv.set_threshold(CYCLE_LANE, 450)
    drv.set_threshold(COMMIT_LANES[0], 200)
    span = 3_000_000
    probes = Probes(sim, pmu if owner == "pmu" else core, seed, span)
    seen = probes.seen
    # the core's cycle is what Fig. 5's interrupt-time snapshot reads
    snapshot = (lambda: core.cycle) if owner == "core" else (lambda: None)
    pmu.on_interrupt(lambda tick: seen.append(
        ("irq", tick, [pmu.library.peek_counter(lane) for lane in LANES],
         pmu.st_events_deferred.value(), pmu.st_ticks.value(), snapshot())))
    pmu.attach_core_handler(core)
    if flips:
        probes.flips(flips, sim.default_clock.period)

    def read():
        probes.note()
        drv.read_counters(list(LANES), lambda values, at=sim.now: seen.append(
            ("read", at, sim.now, sorted(values.items()))))

    if seed is not None:
        probes.dumps(30, start=10_000).stop_at(8, start=10_000)
        for _ in range(24):
            probes.at(read, probes.rng.randrange(10_000, span))
    probes.run()
    soc.run_until_done(max_ticks=10**9)
    counters = [pmu.library.peek_counter(lane) for lane in LANES]
    return (seen, counters, sim.now, sim.stats_dump()), sim.eventq.executed, \
        probes.mid
