"""The PMU lags the core up to its interrupt horizon (DESIGN.md "Cycles
that are counted, not dispatched").

Every case runs Fig. 5's wiring on the sort stream twice through the
owing-versus-stepped harness (``tests/owing.py``): as built (the PMU
lags whenever it can prove no output moves) and single-stepped.
Interrupt ticks, per-lane counters at every interrupt,
``events_deferred``, ``system.pmu.ticks``, every ``stats_dump()`` taken
along the way, the end tick and the final counters must be equal.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.models.pmu.rtl_object import PMURTLObject
from tests.owing import assert_owing_matches, fig5_run


@pytest.mark.parametrize("pmu_freq_hz", [1e9, 2e9, 4e9])
def test_lag_matches_single_step(monkeypatch, pmu_freq_hz):
    seen, *_ = assert_owing_matches(
        lambda stepped: fig5_run(monkeypatch, stepped_pmu=stepped,
                                 pmu_freq_hz=pmu_freq_hz, seed=3), 10, 0.7)
    assert sum(kind == "irq" for kind, *_ in seen) > 20
    assert sum(kind == "read" for kind, *_ in seen) == 24


@pytest.mark.parametrize("pmu_freq_hz", [1e9, 2e9])
@pytest.mark.parametrize("signal,bit", [
    ("thresholds[5]", 3), ("counters[5]", 8), ("enable", 5),
])
def test_fault_flip_mid_lag(monkeypatch, pmu_freq_hz, signal, bit):
    """A flip lands between the edges it lands between in the reference
    and the next edge proves a new horizon: a flip can shorten it
    (``thresholds``, ``counters``) or end it (``enable``)."""
    stats = assert_owing_matches(
        lambda stepped: fig5_run(monkeypatch, stepped_pmu=stepped,
                                 pmu_freq_hz=pmu_freq_hz,
                                 seed=f"{signal}{bit}",
                                 flips=[(signal, bit)] * 4), 1)[3]
    assert stats["system.faultinjector.flips"] == 4


def test_an_off_by_one_horizon_is_caught(monkeypatch):
    """One edge too many in the horizon runs the edge that raises irq
    inside a lag: the replay sees the output move and raises."""
    proved = PMURTLObject.lag_cycles
    monkeypatch.setattr(PMURTLObject, "lag_cycles",
                        lambda self: proved(self) + 1)
    with pytest.raises(RuntimeError, match="inside the horizon"):
        fig5_run(monkeypatch)


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
