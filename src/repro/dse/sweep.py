"""NVDLA design-space exploration (Figures 6/7, Table 3) and the
coherence sweep, as :class:`~repro.experiment.Experiment` records.

:data:`DSE` regenerates one figure: for a workload and NVDLA count it
sweeps the maximum in-flight requests {1,4,8,16,32,64,128,240} across
the five memory technologies, normalising each point to the ideal
1-cycle-memory run — exactly the paper's y-axis.

Every point is an independent full-system simulation, so
:func:`repro.experiment.run` fans the points over process workers
(``jobs=N``) and the per-point tick counts go through
:class:`repro.parallel.cache.ResultCache`; the merge is by point index, so a
parallel run is bit-identical to a serial one.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from ..experiment import Experiment, Param, checked, run
from ..models.nvdla.workloads import WORKLOADS
from ..soc.mem.dram import MEMORY_PRESETS
from .nvdla_system import build_nvdla_system

#: the paper's x-axis
INFLIGHT_SWEEP = (1, 4, 8, 16, 32, 64, 128, 240)
#: the paper's memory technologies
MEMORIES = ("DDR4-1ch", "DDR4-2ch", "DDR4-4ch", "GDDR5", "HBM")
#: NVDLA instance counts of the (a)/(b)/(c) subfigures
NVDLA_COUNTS = (1, 2, 4)

#: the workloads a DSE sweeps (the paper's Figs. 7 and 6) and their
#: default scales: full-size sanity3; GoogleNet shrunk for wall-clock
#: (the stream is still ~19x the 240-deep in-flight window)
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

    @classmethod
    def from_payload(cls, payload: dict, **run_facts) -> "DSEResult":
        """A :data:`DSE` payload, plus how the sweep ran (*run_facts*:
        ``wall_seconds``, ``jobs``, ``cache_hits``)."""
        return cls(payload["workload"], payload["n_nvdla"],
                   payload["ideal_ticks"],
                   {memory: dict(zip(payload["inflight"], series))
                    for memory, series in payload["normalized"].items()},
                   point_seconds=payload["point_seconds"], **run_facts)

    @property
    def points(self) -> int:
        return 1 + sum(len(series) for series in self.normalized.values())

    @property
    def cache_misses(self) -> int:
        return self.points - self.cache_hits

    @property
    def speedup(self) -> float:
        """Aggregate point time over elapsed time (>1 when parallel
        fan-out or cache hits paid off)."""
        return self.point_seconds / self.wall_seconds if self.wall_seconds else 0.0


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


def _dse_scale(p: dict) -> dict:
    """No scale given: the workload's default one."""
    if p["scale"] is None:
        p["scale"] = DEFAULT_SCALES[p["workload"]]
    return p


def _dse_points(p: dict) -> list[tuple]:
    w, n, scale = p["workload"], p["n_nvdla"], p["scale"]
    # Point 0 is the ideal-memory normalisation baseline.
    return [(w, n, "ideal", max(p["inflight"]), scale)] + [
        (w, n, memory, inflight, scale)
        for memory in p["memories"] for inflight in p["inflight"]
    ]


def _dse_payload(p: dict, measured: list) -> dict:
    ideal = measured[0]
    if not isinstance(ideal, dict):
        raise ideal  # nothing to normalise against
    width = len(p["inflight"])
    normalized = {
        memory: [ideal["ticks"] / m["ticks"] if isinstance(m, dict)
                 else float("nan")
                 for m in measured[1 + k * width:1 + (k + 1) * width]]
        for k, memory in enumerate(p["memories"])
    }
    return {"workload": p["workload"], "n_nvdla": p["n_nvdla"],
            "inflight": p["inflight"], "ideal_ticks": ideal["ticks"],
            "normalized": normalized,
            "point_seconds": sum(m["seconds"] for m in measured
                                 if isinstance(m, dict))}


#: One subfigure of Fig. 6 (googlenet) / Fig. 7 (sanity3).  The payload's
#: ``normalized`` maps each memory to its series in ``inflight`` order; a
#: point that failed under ``keep_going`` reads NaN (the ideal baseline
#: is the one point that must succeed).  ``point_seconds`` is the
#: points' measured wall time, as first simulated.
DSE = Experiment(
    name="dse",
    params=(
        Param("workload", "sanity3", str, choices=tuple(DEFAULT_SCALES),
              flags=("--workload",)),
        Param("n_nvdla", 1, flags=("--nvdla",)),
        Param("inflight", list(INFLIGHT_SWEEP), many=True,
              flags=("--inflight",)),
        Param("memories", list(MEMORIES), str, many=True,
              choices=tuple(MEMORY_PRESETS), flags=("--memories",)),
        Param("scale", None, float, flags=("--scale",)),
    ),
    rules=_dse_scale,
    points=_dse_points,
    worker=_dse_point,
    point_fields=lambda p, point: {"experiment": "dse_point", **dict(zip(
        ("workload", "n_nvdla", "memory", "inflight", "scale"), point))},
    assemble=_dse_payload,
)


def run_dse(workload: str, n_nvdla: int,
            inflight_sweep: tuple[int, ...] = INFLIGHT_SWEEP,
            memories: tuple[str, ...] = MEMORIES, scale: float | None = None,
            jobs: int = 1, cache=None, progress=None) -> DSEResult:
    """:data:`DSE` as a :class:`DSEResult`.  This front exists because
    ``bench/`` calls it by name and reads the result's ``points``,
    ``cache_hits``, ``cache_misses``, ``ideal_ticks`` and ``normalized``."""
    t0 = time.perf_counter()
    hits = cache.stats.hits if cache is not None else 0
    payload = run(DSE, {"workload": workload, "n_nvdla": n_nvdla,
                        "inflight": inflight_sweep, "memories": memories,
                        "scale": scale}, jobs=jobs, cache=cache,
                  progress=progress)
    return DSEResult.from_payload(
        payload, wall_seconds=time.perf_counter() - t0, jobs=jobs,
        cache_hits=cache.stats.hits - hits if cache is not None else 0)


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


#: The sharer count swept through the MESI sharing stress.  Each point
#: is one :func:`repro.coherence.check.run_sharing_stress` run (protocol
#: invariants audited throughout, golden memory compared at the end).
#: The payload maps ``str(sharers)`` to the point's result dict, or to
#: None for a point that failed under ``keep_going``.
COHERENCE = Experiment(
    name="coherence",
    params=(
        Param("sharers", list(SHARERS_SWEEP), many=True,
              help="comma-separated sharer counts (default 1,2,4)",
              flags=("--sharers",), metavar="LIST"),
        Param("ops", 400, help="random sharing ops per driver",
              flags=("--ops",)),
        Param("seed", 0, above=None, flags=("--seed",)),
        Param("rtl", False, bool, choices=(False, True)),
    ),
    points=lambda p: [(n, p["ops"], p["seed"], p["rtl"])
                      for n in p["sharers"]],
    worker=_coherence_point,
    point_fields=lambda p, point: {"experiment": "coherence_point", **dict(
        zip(("sharers", "ops", "seed", "rtl"), point))},
    assemble=lambda p, results: {
        str(n): r if isinstance(r, dict) else None
        for n, r in zip(p["sharers"], results)},
)


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
    from ..models.nvdla.wrapper import NVDLASharedLibrary, RESP_LANES

    trace = WORKLOADS[workload](scale=scale)
    lib = NVDLASharedLibrary()
    lib.reset()
    no_seqs = (0,) * RESP_LANES

    t0 = time.perf_counter()
    pending: list[int] = []
    unacked = 0
    for cmd in trace.commands():
        if isinstance(cmd, RegWrite):
            # the library's struct form: NVDLA_INPUT's fields in order
            lib.tick((1, 1, cmd.addr, cmd.value, 0, 0, no_seqs, 0))
        elif isinstance(cmd, WaitIrq):
            # the testbench memory: every request completes next cycle
            for _ in range(10_000_000):  # bounded spin
                seqs = pending[:RESP_LANES]
                pending = pending[RESP_LANES:]
                acks = min(unacked, 7)
                (_, _, rd_count, rd_seqs, _, _, wr_count, _, irq) = lib.tick(
                    (0, 0, 0, 0, 255, len(seqs),
                     (*seqs, *no_seqs[len(seqs):]), acks))
                unacked += wr_count - acks
                pending.extend(rd_seqs[:rd_count])
                if irq:
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


def _table3_row(point: tuple) -> dict:
    """Worker: one Table 3 row.  The three timed runs stay inside one
    worker so their *ratio* (the reported result) is taken on a single,
    equally loaded core."""
    workload, scale = point
    t_alone = run_standalone(workload, scale)
    t_perfect = run_full_system(workload, "ideal", scale)
    t_ddr4 = run_full_system(workload, "DDR4-4ch", scale)
    return asdict(Table3Result(workload, t_alone, t_perfect,
                                           t_ddr4))


def _table3_scales(p: dict) -> dict:
    """``scales`` holds a scale for each named workload, by default the
    workload's own."""
    p["scales"] = checked("table3 scales", [
        Param(w, DEFAULT_SCALES.get(w, 1.0), float) for w in p["workloads"]
    ], p["scales"])
    return p


#: Table 3: full-system overhead vs standalone simulation.  Rows are
#: wall-clock measurements, so they are never cached; each row runs in
#: one worker (ratios within a row remain honest — all three timings
#: share one worker's core).  The payload lists the
#: :class:`Table3Result` fields of every row that ran.
TABLE3 = Experiment(
    name="table3",
    params=(
        Param("workloads", ["sanity3", "googlenet"], str, many=True,
              choices=tuple(WORKLOADS)),
        Param("scales", {}, dict),
    ),
    rules=_table3_scales,
    points=lambda p: [(w, p["scales"][w]) for w in p["workloads"]],
    worker=_table3_row,
    point_fields=lambda p, point: {"experiment": "table3_row",
                                   "workload": point[0], "scale": point[1]},
    assemble=lambda p, rows: [r for r in rows if isinstance(r, dict)],
    cacheable=False,
)
