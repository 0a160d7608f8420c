"""The PMU lags the core up to its interrupt horizon (DESIGN.md "Cycles
that are counted, not dispatched").

Every case runs Fig. 5's wiring on the sort stream twice: as built (the
PMU lags whenever it can prove no output moves) and as a subclass whose
``lag_cycles`` is ``RTLObject.lag_cycles``, the single-stepped reference
ticked by its clock domain.  Interrupt
ticks, per-lane counters at every interrupt, ``events_deferred``,
``system.pmu.ticks``, every ``stats_dump()`` taken along the way, the
end tick and the final counters must be equal.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from repro.dse import pmu_experiment
from repro.dse.pmu_experiment import (
    COMMIT_LANES, CYCLE_LANE, MISS_LANE, build_pmu_system,
)
from repro.bridge.rtl_object import RTLObject
from repro.models.pmu.rtl_object import PMURTLObject
from repro.resilience.faults import Fault, FaultInjector, FaultPlan
from repro.soc.event import EventPriority

LANES = (*COMMIT_LANES, MISS_LANE, CYCLE_LANE)
PRIORITIES = (EventPriority.CLOCK, EventPriority.DEFAULT, EventPriority.STATS)
SPAN = 3_000_000  # ticks the seeded probes spread over


class SteppedPMU(PMURTLObject):
    lag_cycles = RTLObject.lag_cycles


def _run(monkeypatch, lagging, pmu_freq_hz=None, seed=None, flips=()):
    """One Fig. 5 run; with *seed*, seeded stats dumps (at clock, default
    and stats priority), MMIO counter reads and ``run(until=)`` stops.
    Returns (what the reference must equal, events, probes mid-lag)."""
    monkeypatch.setattr(pmu_experiment, "PMURTLObject",
                        PMURTLObject if lagging else SteppedPMU)
    soc, pmu, drv = build_pmu_system(n_sort=14, sleep_cycles=1_200,
                                     pmu_freq_hz=pmu_freq_hz)
    sim = soc.sim
    drv.enable(sum(1 << lane for lane in LANES))
    drv.set_threshold(CYCLE_LANE, 450)
    drv.set_threshold(COMMIT_LANES[0], 200)
    seen = []
    mid_lag = []

    def on_irq(tick):
        seen.append(("irq", tick,
                     [pmu.library.peek_counter(lane) for lane in LANES],
                     pmu.st_events_deferred.value(), pmu.st_ticks.value()))

    pmu.on_interrupt(on_irq)
    pmu.attach_core_handler(soc.cores[0])
    if flips:
        FaultInjector(sim, FaultPlan([
            Fault("rtl-flip", cycle, bit, signal)
            for cycle, signal, bit in flips]), absolute_cycles=True)

    def dump():
        mid_lag.append(pmu._lagging)
        seen.append(("dump", sim.now, sim.stats_dump()))

    def read():
        mid_lag.append(pmu._lagging)
        drv.read_counters(list(LANES), lambda values, at=sim.now: seen.append(
            ("read", at, sim.now, sorted(values.items()))))

    stops = []
    if seed is not None:
        rng = random.Random(seed)
        for _ in range(30):
            sim.eventq.schedule_fn(dump, rng.randrange(10_000, SPAN),
                                   rng.choice(PRIORITIES))
        for _ in range(24):
            sim.eventq.schedule_fn(read, rng.randrange(10_000, SPAN),
                                   rng.choice(PRIORITIES))
        stops = sorted(rng.randrange(10_000, SPAN) for _ in range(8))
    sim.startup()
    for stop in stops:
        sim.run(until=stop)
        seen.append(("stop", sim.now, sim.stats_dump()))
    soc.run_until_done(max_ticks=10**9)
    counters = [pmu.library.peek_counter(lane) for lane in LANES]
    return (seen, counters, sim.now, sim.stats_dump()), sim.eventq.executed, \
        sum(mid_lag)


@pytest.mark.parametrize("pmu_freq_hz", [1e9, 2e9, 4e9])
def test_lag_matches_single_step(monkeypatch, pmu_freq_hz):
    stepped, stepped_events, _ = _run(monkeypatch, False, pmu_freq_hz, seed=3)
    lagged, events, mid_lag = _run(monkeypatch, True, pmu_freq_hz, seed=3)
    assert lagged == stepped
    seen = lagged[0]
    assert sum(kind == "irq" for kind, *_ in seen) > 20
    assert sum(kind == "read" for kind, *_ in seen) == 24
    assert mid_lag >= 10  # the probes did land inside lags
    assert events < 0.7 * stepped_events


@pytest.mark.parametrize("pmu_freq_hz", [1e9, 2e9])
@pytest.mark.parametrize("signal,bit", [
    ("thresholds[5]", 3), ("counters[5]", 8), ("enable", 5),
])
def test_fault_flip_mid_lag(monkeypatch, pmu_freq_hz, signal, bit):
    """A flip lands between the edges it lands between in the reference
    and the next edge proves a new horizon: a flip can shorten it
    (``thresholds``, ``counters``) or end it (``enable``)."""
    rng = random.Random(f"{signal}{bit}")
    flips = [(rng.randrange(100, 5_000), signal, bit) for _ in range(4)]
    stepped, _, _ = _run(monkeypatch, False, pmu_freq_hz, flips=flips)
    lagged, _, _ = _run(monkeypatch, True, pmu_freq_hz, flips=flips)
    assert lagged == stepped
    assert lagged[3]["system.faultinjector.flips"] == 4


def test_an_off_by_one_horizon_is_caught(monkeypatch):
    """One edge too many in the horizon runs the edge that raises irq
    inside a lag: the replay sees the output move and raises."""
    proved = PMURTLObject.lag_cycles
    monkeypatch.setattr(PMURTLObject, "lag_cycles",
                        lambda self: proved(self) + 1)
    with pytest.raises(RuntimeError, match="inside the horizon"):
        _run(monkeypatch, True)


# The bench's smoke Fig. 5 body, counted by event name through the
# profiler seam.  Each number is a property of the simulation, not of
# the host: a change that dispatches the PMU per cycle again fails here.
COUNT_EVENTS = """
import collections, json
from repro.trace import set_default_profiler

class Counter:
    def __init__(self):
        self.names = collections.Counter()

    def host_event(self, name, tick, t0, dur):
        self.names[name] += 1

counter = Counter()
set_default_profiler(counter)
from repro.dse.pmu_experiment import run_fig5
run_fig5(n_sort=12, interval_cycles=2000, sleep_cycles=2000)
names = counter.names
print(json.dumps([sum(names.values()), names["pmu.tick"],
                  names["cpu0.cycle"], names["l1d0.hit_resp"]]))
"""


def test_smoke_fig5_event_counts_are_pinned():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    counts = []
    for hashseed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", COUNT_EVENTS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    # was 12 707 events with 5 782 pmu.tick when the PMU stepped
    assert counts[0] == counts[1] == [7_113, 188, 4_602, 1_888]
