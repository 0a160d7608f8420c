"""Timing, spans and hermetic scratch state shared by every benchmark process.

Nothing here imports ``repro``: the calibration kernel and the clock
must not change when the program under test does.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import os
import pathlib
import shutil
import signal
import statistics
import struct
import tempfile
import time
from typing import Iterator, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: End-to-end metrics only some workloads have (``null`` elsewhere).
#: The driver's contract wants every ``BENCHMARK.json`` metric from every
#: workload with one direction, so these are not in it: ``run.py`` prints
#: and records them and ``compare.py`` judges them where they exist.
WORKLOAD_METRICS = (
    # simulated kilo-cycles per second of the ``wall_s`` body
    {"name": "sim_khz", "unit": "kcycles/s", "better": "higher", "bound": 0.20},
    # pmu_fig5 only: +PMU run / plain run, Table 2's number
    {"name": "pmu_overhead_ratio", "unit": "ratio", "better": "lower",
     "bound": 0.10},
)


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place that names the workloads (with
    their why) and the contract metrics (unit, direction, bound)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def median_spread(values: list[float]) -> float:
    """Scale of the uncertainty of the median of *values*, as a share of
    it: the distance between their quartiles / sqrt(n).  Unlike a
    min-max it does not grow with the number of repeats."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / len(values) ** 0.5 / statistics.median(values)


#: calibration-kernel CPU seconds at the reference host speed (2 vCPU
#: Xeon 2.1 GHz, CPython 3.11, sampled inside a running simulation);
#: every reported time is scaled to this speed
CALIB_REF_S = 0.00075
#: a timed span samples the host speed this often while it runs
SAMPLE_PERIOD_S = 0.025


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------
#
# The sandbox this benchmark runs in is a shared 2-vCPU VM whose
# effective speed steps between discrete levels (0.65 .. 0.85 of one
# another, 2x apart under a noisy neighbour), sometimes within a
# second, sometimes for a whole run.  Medians of raw wall (or CPU)
# seconds over ten runs of one commit spread 5-35 % between their
# quartiles and 18-85 % end to end, wider than any bound worth having
# (table in bench/README.md); medians over repeats do not help when a
# whole run sits in one regime.  A fixed pure-Python kernel with the
# simulator's instruction mix (heap, dict, method call, struct pack)
# tracks the level, so a timed span runs it from an interval timer
# every 25 ms (3 % overhead, subtracted) and reports the work it did
# at the reference speed: (wall - sampling) x mean(ref / kernel time).
# The same runs then spread 1.9-7.3 %.  Under the heaviest neighbour
# seen (factor >= 1.45 for minutes) the bodies slow down more than the
# kernel and scaled times read ~20 % high; kernels with a larger
# working set tracked worse.  Raw wall and CPU seconds are kept and
# printed beside every scaled time.


class _CalibObj:
    __slots__ = ("acc", "seen")

    def __init__(self) -> None:
        self.acc = 0
        self.seen: dict[int, int] = {}

    def step(self, key: int) -> int:
        self.acc += key & 3
        self.seen[key & 1023] = self.acc
        return self.acc


def _calib_kernel(n: int = 1000) -> int:
    heap: list = []
    obj = _CalibObj()
    push, pop, pack = heapq.heappush, heapq.heappop, struct.pack
    acc = 0
    for i in range(n):
        key = (i * 7919) & 4095
        push(heap, (key, i, obj))
        if len(heap) > 64:
            tick, _seq, owner = pop(heap)
            acc += owner.step(tick)
        acc ^= len(pack("<IHB", acc & 0xFFFFFFFF, key, i & 255))
    return acc


class SpeedSampler:
    """Samples host speed from ``ITIMER_REAL`` while a timed span runs.

    Main thread only (signal handlers run there); one at a time.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []   # reference speed / current speed
        self.overhead_s = 0.0          # spent sampling between start and stop
        self._old = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        c0 = time.process_time()
        _calib_kernel()
        # CPU time, not wall: the kernel is shorter than a steal burst
        self.rates.append(CALIB_REF_S / (time.process_time() - c0))
        self.overhead_s += time.perf_counter() - t0

    def start(self) -> None:
        self.sample()
        self.overhead_s = 0.0
        if hasattr(signal, "setitimer"):
            self._old = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        if self._old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        inside = self.overhead_s
        self.sample()
        self.overhead_s = inside

    @property
    def speed(self) -> float:
        """Host slowness over the span: >1 means slower than reference."""
        return 1.0 / statistics.fmean(self.rates)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    """One traced interval: name, start, end, the span that caused it."""

    __slots__ = ("id", "parent", "name", "args", "t0", "t1", "cpu_s",
                 "sampling_s", "speed")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 args: dict) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.args = args
        self.t0 = self.t1 = 0.0
        self.cpu_s = self.sampling_s = 0.0
        self.speed = 1.0

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def s(self) -> float:
        """Reference-speed seconds: (wall - sampling) / host speed."""
        return (self.wall_s - self.sampling_s) / self.speed


class Spans:
    """In-memory span recorder that doubles as the benchmark's stopwatch.

    ``timed=True`` spans are the measured bodies (leaves, main thread):
    they sample host speed while they run.
    Plain spans only record start/end.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._epoch = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, timed: bool = False, **args) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), parent, name, args)
        self.spans.append(sp)
        self._stack.append(sp.id)
        sampler = SpeedSampler() if timed else None
        cpu0 = 0.0
        if sampler is not None:
            cpu0 = time.process_time()
            sampler.start()
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            self._stack.pop()
            if sampler is not None:
                sampler.stop()
                sp.sampling_s = sampler.overhead_s
                sp.cpu_s = max(time.process_time() - cpu0 - sampler.overhead_s, 0.0)
                sp.speed = sampler.speed

    def add(self, name: str, t0: float, t1: float, **args) -> None:
        """Record an already-finished child interval (perf_counter times)."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), parent, name, args)
        sp.t0, sp.t1 = t0, t1
        self.spans.append(sp)

    def to_chrome(self, other: dict) -> dict:
        """Chrome trace-event document (loadable in ui.perfetto.dev)."""
        events = [
            {
                "name": sp.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (sp.t0 - self._epoch) * 1e6,
                "dur": sp.wall_s * 1e6,
                "args": {"id": sp.id, "parent": sp.parent, **sp.args},
            }
            for sp in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}


# ---------------------------------------------------------------------------
# Hermetic scratch state
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def scratch(tag: str) -> Iterator[pathlib.Path]:
    """A fresh directory under ``bench/out`` holding the cache, campaign,
    checkpoint and temp dirs of one cold measurement; removed afterwards.

    Never the repo's ``benchmarks/out/cache``: a stale hit there would
    read as a speed-up.
    """
    OUT_DIR.mkdir(exist_ok=True)
    root = pathlib.Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))
    try:
        for sub in ("cache", "campaign", "ckpt", "tmp"):
            (root / sub).mkdir()
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def scratch_env(root: pathlib.Path) -> dict[str, str]:
    """Environment pointing every on-disk side effect of ``repro`` at *root*."""
    return {
        "REPRO_CACHE_DIR": str(root / "cache"),
        "REPRO_CAMPAIGN_DIR": str(root / "campaign"),
        "TMPDIR": str(root / "tmp"),
    }


@contextlib.contextmanager
def applied_env(env: dict[str, str]) -> Iterator[None]:
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    tempfile.tempdir = None  # re-read TMPDIR
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # dict/set iteration order is part of the host-time profile
    env["PYTHONHASHSEED"] = "0"
    # one thread per process, like jobs=1: numpy's OpenBLAS would start
    # a pool thread per CPU at import, 45 ms of a 310 ms set-up that is
    # not the program's and moves with the host's state
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("REPRO_OPT_LEVEL", None)
    env.pop("REPRO_ELAB_CACHE", None)
    return env


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------


def sim_digest(payload) -> str:
    """sha256 over the integer simulated results of a workload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb(children: bool = False) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB
