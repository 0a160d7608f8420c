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

from repro.bridge.rtl_object import LAG_LIMIT
from repro.models.pmu import wrapper
from repro.models.pmu.rtl_object import PMURTLObject
from repro.models.pmu.wrapper import (PMUSharedLibrary, REG_ENABLE,
                                      counter_addr, threshold_addr)
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
    """One edge too many in the derived horizon runs the edge that
    raises irq inside a lag: the replay sees the output move and
    raises."""
    derived = PMUSharedLibrary.horizon
    monkeypatch.setattr(PMUSharedLibrary, "horizon",
                        lambda self, *args: derived(self, *args) + 1)
    with pytest.raises(RuntimeError, match="inside the horizon"):
        fig5_run(monkeypatch)


# -- the horizon is the design's: two mutants of pmu.v ---------------------

#: a counter that adds 2 per event, its threshold test read at + 2
BY_TWO = (("counters[i] + 1 >=", "counters[i] + 2 >="),
          ("<= counters[i] + 1;", "<= counters[i] + 2;"))
#: ``events`` also read outside the set-bit loop's word
SEEN = (("integer i;", "integer i;\n    reg [NCOUNTERS-1:0] seen;"),
        ("irq <= 0;\n\n", "irq <= 0;\n            seen <= events;\n"))
#: the counting loop also stores what is not a count
FLAGGED = (("integer i;", "integer i;\n    reg flag;"),
           ("events[i]) begin", "events[i]) begin\n    flag <= 1;"))


def _mutant(monkeypatch, edits) -> None:
    """Every PMU built from here on elaborates ``pmu.v`` with *edits*."""
    source = wrapper.load_pmu_source()
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    monkeypatch.setattr(wrapper, "load_pmu_source", lambda: source)


def handwritten(self) -> int:
    """The horizon ``PMURTLObject.lag_cycles`` once wrote beside
    ``pmu.v``: a counter gains at most one per edge, so a lane at
    ``counter`` of ``threshold`` cannot raise irq in the next
    ``threshold - counter - 1`` edges."""
    if not self.bridge_quiet():
        return 0
    sim, memories = self.library.sim, self.library.module.memories
    counters = sim.mems[memories["counters"].index]
    thresholds = sim.mems[memories["thresholds"].index]
    lanes = sim.peek("enable") & self._tapped
    horizon = LAG_LIMIT
    while lanes:
        i = (lanes & -lanes).bit_length() - 1
        lanes &= lanes - 1
        if thresholds[i]:
            horizon = min(horizon, thresholds[i] - counters[i] - 1)
    return horizon


def _lane(lib, count: int, threshold: int) -> int:
    """Lane 0 of a reset *lib* enabled at *count* of *threshold*: its
    derived horizon."""
    lib.reset()
    for addr, value in ((counter_addr(0), count),
                        (threshold_addr(0), threshold), (REG_ENABLE, 1)):
        lib.tick(lib.input_spec.pack(awvalid=1, awaddr=addr, wdata=value))
    return lib.horizon(lib.input_spec.zeros(), "events", 1)


def test_a_counter_by_two_halves_the_horizon(monkeypatch):
    """The derived horizon follows the design: ``ceil((T - x - 2) / 2)``
    for a counter that adds 2, where ``pmu.v`` gives ``T - x - 1``; the
    mutant lags on it as its stepped twin steps."""
    assert [_lane(PMUSharedLibrary(), x, 30) for x in (4, 5)] == [25, 24]
    _mutant(monkeypatch, BY_TWO)
    for backend in ("codegen", "interp"):
        lib = PMUSharedLibrary(backend=backend)
        assert [_lane(lib, x, 30) for x in (4, 5, 29, 31)] == [12, 12, 0, -1]
    seen, *_ = assert_owing_matches(
        lambda stepped: fig5_run(monkeypatch, stepped_pmu=stepped, seed=3),
        10, 0.7)
    assert sum(kind == "irq" for kind, *_ in seen) > 20


def test_the_handwritten_horizon_is_caught_on_the_mutant(monkeypatch):
    """The formula written beside ``pmu.v`` is wrong for the counter that
    adds 2: a lag it proves runs the edge that raises irq."""
    _mutant(monkeypatch, BY_TWO)
    monkeypatch.setattr(PMURTLObject, "lag_cycles", handwritten)
    with pytest.raises(RuntimeError, match="inside the horizon"):
        fig5_run(monkeypatch)


@pytest.mark.parametrize("edits", [SEEN, FLAGGED], ids=["seen", "flagged"])
def test_a_design_that_does_more_than_count_derives_no_horizon(monkeypatch,
                                                               edits):
    """A design that reads ``events`` other than as a factor of the
    counting loop's word, or whose loop stores what more events would
    store earlier, derives 0: the PMU steps, as its twin does."""
    _mutant(monkeypatch, edits)
    assert _lane(PMUSharedLibrary(), 4, 30) == 0
    want, _, _ = fig5_run(monkeypatch, stepped_pmu=True, seed=3)
    got, _, mid = fig5_run(monkeypatch, seed=3)
    assert got == want and mid == 0


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
