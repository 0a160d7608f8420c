"""NVDLA design-space exploration sweeps (Figures 6/7, Table 3).

``run_dse`` regenerates one figure: for a workload and NVDLA count it
sweeps the maximum in-flight requests {1,4,8,16,32,64,128,240} across
the five memory technologies, normalising each point to the ideal
1-cycle-memory run — exactly the paper's y-axis.

Every point is an independent full-system simulation, so the sweep
fans out over :func:`repro.parallel.runner.run_points` process workers
(``jobs=N``) and the per-point tick counts go through
:class:`repro.parallel.cache.ResultCache`; the merge is by point index, so a
parallel run is bit-identical to a serial one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..parallel.cache import ResultCache, cached_run
from ..parallel.runner import PointFailure, run_points
from .nvdla_system import build_nvdla_system

#: the paper's x-axis
INFLIGHT_SWEEP = (1, 4, 8, 16, 32, 64, 128, 240)
#: the paper's memory technologies
MEMORIES = ("DDR4-1ch", "DDR4-2ch", "DDR4-4ch", "GDDR5", "HBM")
#: NVDLA instance counts of the (a)/(b)/(c) subfigures
NVDLA_COUNTS = (1, 2, 4)

#: default workload scales: full-size sanity3; GoogleNet shrunk for
#: wall-clock (the stream is still ~19x the 240-deep in-flight window)
DEFAULT_SCALES = {"sanity3": 1.0, "googlenet": 0.35}


def measure_exec_ticks(
    workload: str,
    n_nvdla: int,
    memory: str,
    max_inflight: int,
    scale: float,
) -> int:
    """One DSE point: slowest instance's doorbell-to-IRQ time."""
    system = build_nvdla_system(
        workload, n_nvdla=n_nvdla, memory=memory,
        max_inflight=max_inflight, scale=scale,
    )
    system.run_to_completion()
    return max(host.exec_ticks() for host in system.hosts)


@dataclass
class DSEResult:
    """One subfigure: normalized performance[memory][inflight].

    ``wall_seconds`` is *elapsed* wall time for the whole sweep;
    ``point_seconds`` is the aggregate wall time spent inside the
    simulated points (cache hits contribute their originally measured
    time).  ``point_seconds / wall_seconds`` therefore shows the
    parallel/cache speedup directly in the rendered figure.
    """

    workload: str
    n_nvdla: int
    ideal_ticks: int
    normalized: dict[str, dict[int, float]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    point_seconds: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0

    def series(self, memory: str) -> list[float]:
        return [self.normalized[memory][m] for m in INFLIGHT_SWEEP]

    @property
    def points(self) -> int:
        return 1 + sum(len(series) for series in self.normalized.values())

    @property
    def speedup(self) -> float:
        """Aggregate point time over elapsed time (>1 when parallel
        fan-out or cache hits paid off)."""
        return self.point_seconds / self.wall_seconds if self.wall_seconds else 0.0


def _point_fields(experiment: str, names: tuple[str, ...]):
    """Cache-key fields: *experiment* plus the point's items by *names*."""
    return lambda point: {"experiment": experiment, **dict(zip(names, point))}


def _dse_point(point: tuple) -> dict:
    """Worker: one simulation point -> {ticks, seconds}.

    Module-level so it pickles into pool workers; returns the
    deterministic tick count plus the (host-dependent, never cached
    *into* the tick data) wall cost of producing it.
    """
    workload, n_nvdla, memory, inflight, scale = point
    t0 = time.perf_counter()
    ticks = measure_exec_ticks(workload, n_nvdla, memory, inflight, scale)
    return {"ticks": ticks, "seconds": time.perf_counter() - t0}


def run_dse(
    workload: str,
    n_nvdla: int,
    inflight_sweep: tuple[int, ...] = INFLIGHT_SWEEP,
    memories: tuple[str, ...] = MEMORIES,
    scale: float | None = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    point_timeout: float | None = None,
    keep_going: bool = False,
    progress=None,
    stats=None,
) -> DSEResult:
    """Regenerate one subfigure of Fig. 6 (googlenet) / Fig. 7 (sanity3).

    ``jobs > 1`` fans the points over worker processes; ``cache``
    short-circuits points already simulated by this code version.
    Results are bit-identical regardless of either option.  With
    ``keep_going=True`` a failed point shows up as NaN in the
    normalised sweep instead of aborting it (the ideal-memory baseline
    is the one point that must succeed).
    """
    if scale is None:
        scale = DEFAULT_SCALES.get(workload, 1.0)
    t0 = time.perf_counter()
    # Point 0 is the ideal-memory normalisation baseline.
    points: list[tuple] = [
        (workload, n_nvdla, "ideal", max(inflight_sweep), scale)
    ]
    points += [
        (workload, n_nvdla, memory, inflight, scale)
        for memory in memories
        for inflight in inflight_sweep
    ]

    found = cached_run(
        cache, points,
        _point_fields("dse_point",
                      ("workload", "n_nvdla", "memory", "inflight", "scale")),
        lambda todo: run_points(
            todo, _dse_point, jobs=jobs, point_timeout=point_timeout,
            keep_going=keep_going, progress=progress, stats=stats),
        progress=progress,
    )
    measured = found.results
    if isinstance(measured[0], PointFailure):
        raise measured[0]  # nothing to normalise against
    ideal = measured[0]["ticks"]
    result = DSEResult(workload, n_nvdla, ideal, jobs=jobs)
    cursor = 1
    for memory in memories:
        result.normalized[memory] = {}
        for inflight in inflight_sweep:
            m = measured[cursor]
            result.normalized[memory][inflight] = (
                float("nan") if isinstance(m, PointFailure)
                else ideal / m["ticks"]
            )
            cursor += 1
    result.point_seconds = sum(
        m["seconds"] for m in measured if not isinstance(m, PointFailure)
    )
    result.wall_seconds = time.perf_counter() - t0
    result.cache_misses = len(found.executed)
    result.cache_hits = len(found.hits)
    return result


# ---------------------------------------------------------------------------
# Coherence axis: sharer-count sweeps of the MESI sharing stress
# ---------------------------------------------------------------------------

#: default sharer counts for the coherence axis
SHARERS_SWEEP = (1, 2, 4)


def _coherence_point(point: tuple) -> dict:
    """Worker: one sharing-stress point -> its full result dict.

    Module-level so it pickles into pool workers.  The embedded stats
    dump is deterministic, so serial and pooled sweeps merge
    bit-identically (and cache safely)."""
    from ..coherence.check import run_sharing_stress

    sharers, ops, seed, rtl = point
    t0 = time.perf_counter()
    result = run_sharing_stress(cores=int(sharers), ops=int(ops),
                                seed=int(seed), rtl=bool(rtl))
    result["seconds"] = time.perf_counter() - t0
    return result


def run_coherence_sweep(
    sharers: tuple[int, ...] = SHARERS_SWEEP,
    ops: int = 400,
    seed: int = 0,
    rtl: bool = False,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    point_timeout: float | None = None,
    keep_going: bool = False,
    progress=None,
    stats=None,
) -> dict[int, dict]:
    """Sweep the sharer count through the MESI sharing stress.

    Each point is one :func:`repro.coherence.check.run_sharing_stress` run
    (protocol invariants audited throughout, golden memory compared at
    the end); points fan out over ``run_points`` workers and
    short-circuit through *cache* exactly like the NVDLA DSE points.
    Returns ``{sharers: result_dict}``; a failed point (only possible
    with ``keep_going=True``) is reported as ``None``.
    """
    points = [(n, ops, seed, rtl) for n in sharers]
    found = cached_run(
        cache, points,
        _point_fields("coherence_point", ("sharers", "ops", "seed", "rtl")),
        lambda todo: run_points(
            todo, _coherence_point, jobs=jobs, point_timeout=point_timeout,
            keep_going=keep_going, progress=progress, stats=stats),
        progress=progress,
    )
    return {
        n: (None if isinstance(m, PointFailure) else m)
        for n, m in zip(sharers, found.results)
    }


# ---------------------------------------------------------------------------
# Table 3: simulation-time overhead vs standalone "Verilator" run
# ---------------------------------------------------------------------------


@dataclass
class Table3Result:
    workload: str
    t_standalone: float
    t_perfect_memory: float
    t_ddr4: float

    @property
    def perfect_overhead(self) -> float:
        return self.t_perfect_memory / self.t_standalone

    @property
    def ddr4_overhead(self) -> float:
        return self.t_ddr4 / self.t_standalone


def run_standalone(workload: str, scale: float) -> float:
    """Standalone accelerator simulation (the paper's plain-Verilator
    baseline): the *same* model + wrapper (struct boundary included,
    like nvdla.cpp driving the verilated model), against an ideal
    zero-latency testbench memory — no SoC, no trace-load phase, it
    'reads the trace directly'."""
    from ..models.nvdla.trace import RegWrite, WaitIrq
    from ..models.nvdla.workloads import WORKLOADS
    from ..models.nvdla.wrapper import NVDLASharedLibrary, RESP_LANES

    trace = WORKLOADS[workload](scale=scale)
    lib = NVDLASharedLibrary()
    lib.reset()
    in_spec, out_spec = lib.input_spec, lib.output_spec

    t0 = time.perf_counter()
    pending: list[int] = []
    unacked = 0
    for cmd in trace.commands():
        if isinstance(cmd, RegWrite):
            lib.tick(in_spec.pack(csb_valid=1, csb_write=1,
                                  csb_addr=cmd.addr, csb_wdata=cmd.value))
        elif isinstance(cmd, WaitIrq):
            # the testbench memory: every request completes next cycle
            for _ in range(10_000_000):  # bounded spin
                seqs = pending[:RESP_LANES]
                pending = pending[RESP_LANES:]
                out = out_spec.unpack(lib.tick(in_spec.pack(
                    credit=255,
                    rd_resp_count=len(seqs),
                    rd_resp_seqs=seqs + [0] * (RESP_LANES - len(seqs)),
                    wr_acks=min(unacked, 7),
                )))
                unacked -= min(unacked, 7)
                pending.extend(out["rd_seqs"][: out["rd_count"]])
                unacked += out["wr_count"]
                if out["irq"]:
                    break
            else:  # pragma: no cover - defensive
                raise RuntimeError("standalone run did not complete")
    return time.perf_counter() - t0


def run_full_system(workload: str, memory: str, scale: float) -> float:
    """gem5+NVDLA wall time, including the timed trace-load phase."""
    system = build_nvdla_system(
        workload, n_nvdla=1, memory=memory, max_inflight=240,
        timed_load=True, scale=scale,
    )
    t0 = time.perf_counter()
    system.run_to_completion()
    return time.perf_counter() - t0


def _table3_row(point: tuple) -> Table3Result:
    """Worker: one Table 3 row.  The three timed runs stay inside one
    worker so their *ratio* (the reported result) is taken on a single,
    equally loaded core."""
    workload, scale = point
    t_alone = run_standalone(workload, scale)
    t_perfect = run_full_system(workload, "ideal", scale)
    t_ddr4 = run_full_system(workload, "DDR4-4ch", scale)
    return Table3Result(workload, t_alone, t_perfect, t_ddr4)


def run_table3(
    workloads: tuple[str, ...] = ("sanity3", "googlenet"),
    scales: dict[str, float] | None = None,
    jobs: int = 1,
    point_timeout: float | None = None,
    keep_going: bool = False,
    progress=None,
    stats=None,
) -> list[Table3Result]:
    """Reproduce Table 3: full-system overhead vs standalone simulation.

    Rows are wall-clock measurements, so they are never cached; with
    ``jobs > 1`` each row runs in its own worker (ratios within a row
    remain honest — all three timings share one worker's core).  With
    ``keep_going=True`` failed rows are dropped from the result.
    """
    scales = scales or DEFAULT_SCALES
    points = [(w, scales.get(w, 1.0)) for w in workloads]
    rows = run_points(points, _table3_row, jobs=jobs,
                      point_timeout=point_timeout, keep_going=keep_going,
                      progress=progress, stats=stats)
    return [r for r in rows if not isinstance(r, PointFailure)]
