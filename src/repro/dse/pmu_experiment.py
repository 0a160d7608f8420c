"""PMU experiments: Fig. 5 (IPC over time, PMU vs gem5) and Table 2
(simulation-time overhead of the PMU RTL model and waveform tracing).

The Fig. 5 flow mirrors the paper exactly: the PMU's clock-event
counter is given a threshold so it interrupts every ``interval_cycles``
cycles; the interrupt handler (host software, over MMIO) reads and
clears the commit/miss counters; simultaneously the simulator's own
statistics are snapshotted.  Both IPC series are returned for
comparison — they should overlap, with small deficits from the PMU's
1-cycle recording delay and the counter-clear window.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..experiment import Experiment, Params
from ..models.pmu.driver import PMUDriver
from ..models.pmu.rtl_object import PMURTLObject
from ..models.pmu.wrapper import PMUSharedLibrary
from ..soc.cpu.core import EventWire
from ..soc.mem.dram import MEMORY_PRESETS
from ..soc.system import SoC, SoCConfig
from ..workloads.sorting import sort_benchmark

# PMU event lane assignment (paper §4.1)
COMMIT_LANES = (0, 1, 2, 3)   # up to 4 commits/cycle -> 4 one-bit events
MISS_LANE = 4                 # L1D misses: at most one per cycle
CYCLE_LANE = 5                # the clock, for periodic interrupts

#: memories a PMU experiment accepts
MEMORIES = ("ideal", *MEMORY_PRESETS)


@dataclass
class IPCWindow:
    """One sampling interval of Fig. 5."""

    time_ms: float        # simulated time at the end of the window
    pmu_ipc: float
    gem5_ipc: float
    pmu_mpki: float
    gem5_mpki: float
    pmu_commits: int
    gem5_commits: int


@dataclass
class Fig5Result:
    windows: list[IPCWindow] = field(default_factory=list)
    total_committed: int = 0
    total_cycles: int = 0
    pmu_total_commits: int = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "Fig5Result":
        """Back from a :func:`fig5_point` dict."""
        return cls([IPCWindow(**w) for w in doc["windows"]],
                   doc["total_committed"], doc["total_cycles"],
                   doc["pmu_total_commits"])

    def lost_events(self) -> int:
        """Commits gem5 saw but the PMU missed (reset/delay losses)."""
        return self.total_committed - self.pmu_total_commits


def build_pmu_system(
    n_sort: int = 300,
    memory: str = "DDR4-2ch",
    with_pmu: bool = True,
    waveform_path: Optional[str] = None,
    sleep_cycles: int = 20_000,
    pmu_freq_hz: Optional[float] = None,
):
    """SoC + (optionally) PMU wired to core 0, running the sort benchmark.

    The PMU runs at the core clock by default so four commit lanes are
    exactly enough (Table 1 lists a 1 GHz PMU; at that ratio commit
    pulses smear across ticks — see EXPERIMENTS.md).
    """
    soc = SoC(SoCConfig(num_cores=1, memory=memory))
    core = soc.cores[0]
    core.run_stream(sort_benchmark(n=n_sort, sleep_cycles=sleep_cycles))

    if not with_pmu:
        return soc, None, None

    stream = open(waveform_path, "w") if waveform_path else None
    lib = PMUSharedLibrary(
        trace_stream=stream, trace_enabled=stream is not None
    )
    from ..soc.event import ClockDomain

    clock = (
        ClockDomain(pmu_freq_hz, "pmu_clk") if pmu_freq_hz else soc.sim.default_clock
    )
    pmu = PMURTLObject(soc.sim, "pmu", lib, clock=clock)
    soc.attach_rtl_cpu_side(pmu)

    pmu.connect_event(COMMIT_LANES[0], core.commit_wire, lanes=len(COMMIT_LANES))
    miss_wire = EventWire("l1d_miss")
    soc.l1ds[0].miss_listeners.append(lambda pkt: miss_wire.pulse())
    pmu.connect_event(MISS_LANE, miss_wire)
    pmu.connect_clock_event(CYCLE_LANE)

    drv = PMUDriver(soc.iomaster)
    return soc, pmu, drv


def run_fig5(
    n_sort: int = 300,
    interval_cycles: int = 10_000,
    memory: str = "DDR4-2ch",
    sleep_cycles: int = 20_000,
) -> Fig5Result:
    """Reproduce Fig. 5: PMU-measured vs gem5-measured IPC over time."""
    soc, pmu, drv = build_pmu_system(
        n_sort=n_sort, memory=memory, sleep_cycles=sleep_cycles
    )
    assert pmu is not None and drv is not None
    core = soc.cores[0]
    l1d = soc.l1ds[0]
    result = Fig5Result()

    drv.enable(
        sum(1 << lane for lane in COMMIT_LANES)
        | (1 << MISS_LANE)
        | (1 << CYCLE_LANE)
    )
    drv.set_threshold(CYCLE_LANE, interval_cycles)

    state = {
        "last_committed": 0,
        "last_misses": 0,
        "last_cycles": 0,
        "sampling": False,
    }

    def on_irq(tick: int) -> None:
        if state.get("finishing"):
            return  # workload done; the final drain owns the counters
        if state["sampling"]:
            return  # sample still in flight; skip this interval
        state["sampling"] = True
        # gem5-side snapshot at the interrupt instant
        committed = core.st_committed.value()
        misses = l1d.st_misses.value()
        cycles = core.st_cycles.value()
        d_committed = committed - state["last_committed"]
        d_misses = misses - state["last_misses"]
        d_cycles = max(cycles - state["last_cycles"], 1)
        state["last_committed"] = committed
        state["last_misses"] = misses
        state["last_cycles"] = cycles

        def on_values(values: dict[int, int]) -> None:
            pmu_commits = sum(values[lane] for lane in COMMIT_LANES)
            pmu_misses = values[MISS_LANE]
            result.pmu_total_commits += pmu_commits
            result.windows.append(
                IPCWindow(
                    time_ms=soc.sim.now / 1e9,
                    pmu_ipc=pmu_commits / interval_cycles,
                    gem5_ipc=d_committed / d_cycles,
                    pmu_mpki=1000.0 * pmu_misses / max(pmu_commits, 1),
                    gem5_mpki=1000.0 * d_misses / max(d_committed, 1),
                    pmu_commits=pmu_commits,
                    gem5_commits=d_committed,
                )
            )
            # clear the sampled counters (software, like the paper's dump)
            for lane in COMMIT_LANES:
                drv.clear_counter(lane)
            drv.clear_counter(MISS_LANE)
            state["sampling"] = False

        drv.read_counters(list(COMMIT_LANES) + [MISS_LANE], on_values)

    pmu.on_interrupt(on_irq)

    soc.run_until_done(cores=[core], max_ticks=10**12)
    # Quiesce: let an interval sample that just fired run to completion,
    # then ignore further interrupts so the final drain is the only
    # reader (otherwise a late interrupt would re-sample the same
    # counts the tail read is about to take).  The quiesce polls every
    # 500 cycles, and raises if a sample has not landed in 100 000.
    sim = soc.sim
    sim.run_cycles(2_000)
    state["finishing"] = True
    sim.run_on_grid(lambda: not state["sampling"] and not soc.iomaster.busy,
                    500, sim.now // sim.default_clock.period + 100_000)

    # final drain: read whatever accumulated after the last interrupt
    # (the tail of the program), like software dumping counters at exit
    tail: dict[int, int] = {}
    drv.read_counters(list(COMMIT_LANES), lambda v: tail.update(v))
    sim.run_cycles(2_000)
    result.pmu_total_commits += sum(tail.values())
    pmu.stop()

    result.total_committed = core.st_committed.value()
    result.total_cycles = core.st_cycles.value()
    return result


def fig5_point(point: tuple) -> dict:
    """Worker: one Fig. 5 series at a given sampling interval, reduced to
    its deterministic numbers (tick-derived only: no wall clock, so the
    result is cacheable and bit-identical across hosts and pool sizes)."""
    n_sort, interval, memory, sleep_cycles = point
    result = run_fig5(n_sort=n_sort, interval_cycles=interval,
                      memory=memory, sleep_cycles=sleep_cycles)
    return {"interval": interval, **asdict(result)}


def _fig5_params(params: dict) -> dict:
    p = Params("pmu_fig5", params, n=200, intervals=[10_000],
               memory="DDR4-2ch", sleep_cycles=20_000)
    return {"n": p.number("n"),
            "intervals": p.number("intervals", many=True),
            "memory": p.choice("memory", MEMORIES),
            "sleep_cycles": p.number("sleep_cycles", above=-1)}


#: Fig. 5 at several sampling intervals; each series is an independent
#: full-system run.  The payload's ``series`` maps each interval that
#: ran to its :func:`fig5_point` dict (a failed one, under
#: ``keep_going``, is left out).
FIG5 = Experiment(
    name="pmu_fig5",
    normalize=_fig5_params,
    points=lambda p: [(p["n"], iv, p["memory"], p["sleep_cycles"])
                      for iv in p["intervals"]],
    worker=fig5_point,
    point_fields=lambda p, point: {
        "design": "pmu", "experiment": "fig5_point",
        **dict(zip(("n", "interval", "memory", "sleep_cycles"), point))},
    assemble=lambda p, results: {
        "kind": "pmu_fig5", "n": p["n"], "memory": p["memory"],
        "series": {str(r["interval"]): r for r in results
                   if isinstance(r, dict)}},
)


# ---------------------------------------------------------------------------
# Table 2: simulation-time overhead
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    size: int
    t_gem5: float
    t_gem5_pmu: float
    t_gem5_pmu_waveform: float

    @property
    def pmu_overhead(self) -> float:
        return self.t_gem5_pmu / self.t_gem5

    @property
    def waveform_overhead(self) -> float:
        return self.t_gem5_pmu_waveform / self.t_gem5


def _timed_run(n_sort: int, with_pmu: bool, waveform: bool,
               memory: str) -> float:
    waveform_path = None
    if waveform:
        fd, waveform_path = tempfile.mkstemp(suffix=".vcd")
        os.close(fd)
    try:
        soc, pmu, drv = build_pmu_system(
            n_sort=n_sort, memory=memory, with_pmu=with_pmu,
            waveform_path=waveform_path,
        )
        if drv is not None:
            drv.enable((1 << 6) - 1)
        t0 = time.perf_counter()
        soc.run_until_done(cores=[soc.cores[0]], max_ticks=10**12)
        elapsed = time.perf_counter() - t0
        if pmu is not None:
            pmu.stop()
            trace = pmu.library.sim.trace  # type: ignore[union-attr]
            if trace is not None:
                trace.close()
                if hasattr(trace.stream, "close"):
                    trace.stream.close()
        return elapsed
    finally:
        if waveform_path and os.path.exists(waveform_path):
            os.unlink(waveform_path)


def _table2_row(point: tuple) -> dict:
    """Worker: one Table 2 row — all three timed configurations run in
    the same worker so the reported *ratios* share one core's load."""
    n, memory = point
    t_plain = _timed_run(n, with_pmu=False, waveform=False, memory=memory)
    t_pmu = _timed_run(n, with_pmu=True, waveform=False, memory=memory)
    t_wave = _timed_run(n, with_pmu=True, waveform=True, memory=memory)
    return asdict(Table2Row(n, t_plain, t_pmu, t_wave))


def _table2_params(params: dict) -> dict:
    p = Params("table2", params, sizes=[60, 150, 300], memory="DDR4-2ch")
    return {"sizes": p.number("sizes", many=True),
            "memory": p.choice("memory", MEMORIES)}


#: Table 2: wall-clock overhead of gem5+PMU and +waveform.  Sizes are
#: the sort-benchmark N (the paper uses 3k/30k/60k on a C++ simulator;
#: scaled here — the *ratios* are the result).  Rows are wall-clock
#: measurements, so they are never cached; the payload lists the
#: :class:`Table2Row` fields of every row that ran.
TABLE2 = Experiment(
    name="table2",
    normalize=_table2_params,
    points=lambda p: [(n, p["memory"]) for n in p["sizes"]],
    worker=_table2_row,
    point_fields=lambda p, point: {"experiment": "table2_row",
                                   "size": point[0], "memory": point[1]},
    assemble=lambda p, rows: [r for r in rows if isinstance(r, dict)],
    cacheable=False,
)
