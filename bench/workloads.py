"""The four benchmark workloads.

Each workload drives ``repro`` strictly through public entry points.
A *repeat* is one timed body made of two phases, ``a`` and ``b``; which
phases are which is in the table in ``bench/README.md``, and why each
workload is here in ``BENCHMARK.json``.  All four are closed loops driven by a single
process with ``jobs=1``; ``serve_campaign`` adds one helper process (the
server), because an in-thread server would share the GIL with the load
generator and inflate the cold campaign by ~20 %.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

import harness
from harness import Span, Spans

#: named size constants.  ``default`` is sized for the driver's budget
#: (92 runs inside 3420 s, so ~20 s per run on the reference host) and
#: for the sandbox's noise: host speed moves between levels within a
#: second, so many ~0.5-1 s bodies, each sampling the host speed while
#: it runs, give a steadier median than three 10 s bodies (ISSUE 11's
#: sizing, which does not fit the budget).  ``smoke`` is the self-test.
#: Shrink these, never the workload or metric set.
SIZES = {
    "smoke": dict(
        n_sort=12, interval=2_000, sleep=2_000,
        dse_counts=(1, 2), dse_inflight=(240,),
        sw_ops=400, rtl_ops=100,
        camp_n_sort=8, camp_budget=2, camp_ckpt=2_000, warm=5,
    ),
    "default": dict(
        n_sort=32, interval=4_000, sleep=4_000,
        dse_counts=(1, 4), dse_inflight=(240,),
        sw_ops=4_000, rtl_ops=600,
        camp_n_sort=12, camp_budget=6, camp_ckpt=3_000, warm=100,
    ),
}

DSE_MEMORIES = ("DDR4-4ch", "HBM")
#: sanity3 at full scale; a point simulates 20k cycles whatever the
#: scale (the run loop's step), so shrinking it would save nothing
DSE_SCALE = 1.0


@dataclass
class Repeat:
    """One timed body."""

    a: Span
    b: Span
    cycles: int                 # simulated cycles behind ``wall_s`` (0: not known)
    payload: object             # integer simulated results -> sim_digest
    attempted: int
    failures: list[str] = field(default_factory=list)
    b_s: Optional[float] = None  # overrides ``b.s`` (serve: warm p50)
    extra: dict = field(default_factory=dict)

    @property
    def phase_b_s(self) -> float:
        return self.b.s if self.b_s is None else self.b_s


class Ctx:
    """What a workload body needs: sizes, seed, the span recorder and,
    during the traced pass, the layer profiler."""

    def __init__(self, size: dict, seed: int, profiler=None) -> None:
        self.size = size
        self.seed = seed
        self.spans = Spans()
        self.profiler = profiler
        self.layer_phases: dict[str, dict] = {}
        self.phase_s: list[float] = []

    @contextlib.contextmanager
    def phase(self, name: str, **args) -> Iterator[Span]:
        """A timed phase; in the traced pass also one attribution window."""
        if self.profiler is not None:
            self.profiler.reset()
        with self.spans.span(name, timed=True, **args) as sp:
            yield sp
        self.phase_s.append(sp.s)
        if self.profiler is not None:
            self.layer_phases[name] = _layer_table(self.profiler, sp)


def _layer_table(profiler, sp: Span) -> dict:
    """Fold the profiler into ``{layer: {host_s, events}}`` for one phase.

    Callback times are raw ``perf_counter`` seconds; they are scaled by
    the phase's own raw -> reference-speed factor so the layers, with
    ``soc.event`` (the phase minus every callback: heap, run loop,
    driver glue), add up to the phase's ``s``.
    """
    table = profiler.fold()
    callbacks = sum(row["host_s"] for row in table.values())
    events = sum(row["events"] for layer, row in table.items()
                 if "cycles" not in row)
    scale = sp.s / sp.wall_s if sp.wall_s else 1.0
    for row in table.values():
        row["host_s"] *= scale
    table["soc.event"] = {
        "host_s": (sp.wall_s - callbacks) * scale,
        "events": events,
    }
    table["_phase"] = {"wall_s": sp.s, "raw_wall_s": sp.wall_s,
                       "callback_raw_s": callbacks}
    return table


class PointSpans:
    """``run_points`` progress sink: one child span per finished point."""

    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name
        self.count = 0
        self._t = time.perf_counter()

    def update(self, *_args, **_kwargs) -> None:
        now = time.perf_counter()
        self.spans.add(self.name, self._t, now, index=self.count)
        self.count += 1
        self._t = now


class Workload:
    name = ""
    #: phases whose sum is ``wall_s``
    wall_phases: tuple[str, ...] = ("a",)
    #: what the two phases are, for the printed table
    phase_names = ("a", "b")
    #: the body runs in a server subprocess started by every repeat: no
    #: warm-up, set-up is spawn -> healthy, memory is the children's
    served = False

    def setup(self, ctx: Ctx) -> None:
        """Imports, HDL compile (elaboration cache cleared), system build."""
        raise NotImplementedError

    def repeat(self, ctx: Ctx, index: int) -> Repeat:
        raise NotImplementedError

    def traced_repeat(self, ctx: Ctx) -> Repeat:
        return self.repeat(ctx, 0)


@contextlib.contextmanager
def _guard(failures: list[str], what: str) -> Iterator[None]:
    """An exception in an operation is a failed operation, not a dead
    benchmark."""
    try:
        yield
    except Exception as err:  # boundary: record and keep measuring
        failures.append(f"{what}: {type(err).__name__}: {err}")


def _cycle_period() -> int:
    from repro.soc.simobject import Simulation

    return Simulation().default_clock.period


# ---------------------------------------------------------------------------
# pmu_fig5
# ---------------------------------------------------------------------------


class PmuFig5(Workload):
    name = "pmu_fig5"
    wall_phases = ("a",)
    phase_names = ("+PMU run_fig5", "plain run_until_done")

    def setup(self, ctx: Ctx) -> None:
        from repro.dse.pmu_experiment import build_pmu_system
        from repro.hdl.elaborator import ELAB_CACHE

        ELAB_CACHE.clear()
        build_pmu_system(n_sort=ctx.size["n_sort"],
                         sleep_cycles=ctx.size["sleep"])

    def repeat(self, ctx: Ctx, index: int) -> Repeat:
        from repro.dse.pmu_experiment import build_pmu_system, run_fig5

        n, sleep = ctx.size["n_sort"], ctx.size["sleep"]
        failures: list[str] = []
        state: dict = {}

        def with_pmu() -> None:
            with ctx.phase("pmu", n_sort=n) as sp, _guard(failures, "run_fig5"):
                state["fig5"] = run_fig5(
                    n_sort=n, interval_cycles=ctx.size["interval"],
                    sleep_cycles=sleep)
            state["a"] = sp

        def plain() -> None:
            with ctx.phase("plain", n_sort=n) as sp, _guard(failures, "plain"):
                soc, _pmu, _drv = build_pmu_system(
                    n_sort=n, with_pmu=False, sleep_cycles=sleep)
                core = soc.cores[0]
                soc.run_until_done(cores=[core], max_ticks=10**12)
                state["plain"] = (int(core.st_cycles.value()),
                                  int(core.st_committed.value()))
            state["b"] = sp

        # inputs are the paper's fixed sort; the seed only decides which
        # side of the pair runs first, alternating from there
        order = (with_pmu, plain) if (ctx.seed + index) % 2 == 0 else (plain, with_pmu)
        for run in order:
            run()

        cycles, payload = 0, None
        if not failures:
            r = state["fig5"]
            cycles = r.total_cycles
            payload = [r.total_cycles, r.total_committed,
                       r.pmu_total_commits, len(r.windows), *state["plain"]]
            # below ten sampling windows the sleeps between the sorts
            # dominate and the two IPC series are not comparable
            gaps = [abs(w.pmu_ipc - w.gem5_ipc) for w in r.windows]
            if len(gaps) >= 10 and statistics.median(gaps) >= 0.01:
                failures.append("median |PMU-gem5| IPC >= 0.01")
            if r.lost_events() >= 0.01 * r.total_committed:
                failures.append(f"PMU lost {r.lost_events()} events (>= 1 %)")
            if state["plain"][1] != r.total_committed:
                failures.append("plain run committed a different µop count")
        return Repeat(state["a"], state["b"], cycles, payload,
                      attempted=2, failures=failures)


# ---------------------------------------------------------------------------
# nvdla_dse
# ---------------------------------------------------------------------------


class NvdlaDse(Workload):
    name = "nvdla_dse"
    wall_phases = ("a", "b")
    phase_names = ("1-NVDLA sweep (latency-bound)",
                   "4-NVDLA sweep (bandwidth-bound)")

    def setup(self, ctx: Ctx) -> None:
        from repro.dse.nvdla_system import build_nvdla_system

        build_nvdla_system("sanity3", n_nvdla=max(ctx.size["dse_counts"]),
                           memory=DSE_MEMORIES[0], max_inflight=240,
                           scale=DSE_SCALE)

    def repeat(self, ctx: Ctx, index: int) -> Repeat:
        from repro.dse.sweep import run_dse

        inflight = tuple(ctx.size["dse_inflight"])
        failures: list[str] = []
        spans: dict[int, Span] = {}
        results: dict = {}
        few, many = ctx.size["dse_counts"]
        # the paper's fixed trace; the seed only decides which sweep
        # runs first, alternating from there
        for n in (few, many) if (ctx.seed + index) % 2 == 0 else (many, few):
            with ctx.phase(f"n{n}", n_nvdla=n) as sp, \
                    _guard(failures, f"run_dse n={n}"):
                results[n] = run_dse(
                    "sanity3", n, inflight_sweep=inflight,
                    memories=DSE_MEMORIES, scale=DSE_SCALE,
                    jobs=1, cache=None,
                    progress=PointSpans(ctx.spans, "point"),
                )
            spans[n] = sp

        ticks_total, payload, attempted = 0, [], 0
        for n in (few, many):
            res = results.get(n)
            if res is None:
                attempted += 1
                continue
            attempted += res.points
            if res.cache_hits or res.cache_misses != res.points:
                failures.append(f"n={n}: sweep was not cold")
            point_ticks = [res.ideal_ticks]
            for memory in DSE_MEMORIES:
                for depth in inflight:
                    norm = res.normalized[memory][depth]
                    if not 0.0 < norm <= 1.0:
                        failures.append(
                            f"n={n} {memory}@{depth}: normalised {norm}")
                        continue
                    point_ticks.append(round(res.ideal_ticks / norm))
            ticks_total += sum(point_ticks)
            payload.append([n, point_ticks])
        big = results.get(many)
        if big is not None:
            for depth in inflight:
                if big.normalized["HBM"][depth] < big.normalized["DDR4-4ch"][depth]:
                    failures.append(f"HBM slower than DDR4-4ch at {depth} in flight")
        return Repeat(spans[few], spans[many], ticks_total // _cycle_period(),
                      None if failures else payload,
                      attempted=attempted, failures=failures)


# ---------------------------------------------------------------------------
# coherence_stress
# ---------------------------------------------------------------------------


class CoherenceStress(Workload):
    name = "coherence_stress"
    wall_phases = ("a", "b")
    phase_names = ("sw: 4 coherent L1s", "rtl: 2 L1s + HDL cache")

    def setup(self, ctx: Ctx) -> None:
        from repro.coherence import build_sharing_system
        from repro.hdl.elaborator import ELAB_CACHE

        ELAB_CACHE.clear()
        build_sharing_system(cores=2, ops=ctx.size["rtl_ops"],
                             seed=ctx.seed, rtl=1)

    def repeat(self, ctx: Ctx, index: int) -> Repeat:
        from repro.coherence import run_sharing_stress

        failures: list[str] = []
        out: dict = {}
        # golden-memory compare and invariant sweeps are inside the call
        with ctx.phase("sw", ops=ctx.size["sw_ops"]) as a, \
                _guard(failures, "stress sw"):
            out["sw"] = run_sharing_stress(
                cores=4, ops=ctx.size["sw_ops"], seed=ctx.seed)
        with ctx.phase("rtl", ops=ctx.size["rtl_ops"]) as b, \
                _guard(failures, "stress rtl"):
            out["rtl"] = run_sharing_stress(
                cores=2, ops=ctx.size["rtl_ops"], seed=ctx.seed, rtl=1)
        ticks = sum(r["ticks"] for r in out.values())
        payload = None if failures else [
            [key, out[key]["ticks"], out[key]["memory"], out[key]["checksums"]]
            for key in ("sw", "rtl")
        ]
        return Repeat(a, b, ticks // _cycle_period(), payload,
                      attempted=2, failures=failures)


# ---------------------------------------------------------------------------
# serve_campaign
# ---------------------------------------------------------------------------


class Server:
    """``repro serve --port 0 --jobs 1`` as a subprocess on fresh state."""

    def __init__(self, root) -> None:
        from repro.serve import ServeClient

        env = harness.child_env()
        env.update(harness.scratch_env(root))
        self.client = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--checkpoint-dir", str(root / "ckpt")],
            env=env, cwd=str(harness.ROOT), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = self.proc.stderr.readline()
            match = re.search(r"listening on (http://\S+)", banner)
            if match is None:
                raise RuntimeError(f"server did not come up: {banner!r}")
            self.client = ServeClient(match.group(1), timeout=150.0)
            self.client.wait_healthy(timeout=30.0, poll=0.01)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Shut down and reap; never leaves a process behind."""
        if self.proc.poll() is None:
            try:
                if self.client is None:
                    raise RuntimeError("never became reachable")
                self.client.shutdown()
                self.proc.wait(timeout=20)
            except Exception:  # boundary: fall back to a hard stop
                self.proc.kill()
        self.proc.wait()
        self.proc.stderr.close()


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Pin this process, and the server it starts meanwhile, to one CPU.

    Client and server take turns anyway (the client blocks on the
    server), and on one CPU the host-speed samples taken here interrupt
    the server where it runs, as they interrupt an in-process body.
    Sampled from an idle CPU the factor read 1.27 for a quarter of an
    hour in which busy processes read 1.0: waking up was slow, running
    was not (bench/README.md).
    """
    if not hasattr(os, "sched_setaffinity"):  # not Linux: sample where we are
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


#: one fixed campaign.  A campaign's work moves 1.6x with its seed (the
#: sampled injection cycles decide how much of the run every experiment
#: re-simulates: cold wall 1.34-2.14 s over ten seeds), which would
#: drown any bound; ``--seed`` only names the tenant.
CAMPAIGN_SEED = 0


def _campaign_params(ctx: Ctx) -> dict:
    return {
        "target": "pmu",
        "params": {"n_sort": ctx.size["camp_n_sort"]},
        "budget": ctx.size["camp_budget"],
        "seed": CAMPAIGN_SEED,
        "checkpoint_every": ctx.size["camp_ckpt"],
    }


def _campaign_payload(report: dict, failures: list[str]) -> list:
    """sim_digest payload of a campaign report: histogram + report sha256."""
    from repro.resilience.campaign import render_report

    if report["histogram"]["infra"]:
        failures.append(f"{report['histogram']['infra']} infra outcomes")
    sha = hashlib.sha256(render_report(report).encode()).hexdigest()
    return [report["histogram"], sha]


class ServeCampaign(Workload):
    name = "serve_campaign"
    wall_phases = ("a",)
    phase_names = ("cold submit->result", "warm resubmit round trip (p50)")
    served = True

    def setup(self, ctx: Ctx) -> None:
        # server spawn -> healthy is measured inside every repeat
        import repro.serve  # noqa: F401

    def repeat(self, ctx: Ctx, index: int) -> Repeat:
        params = _campaign_params(ctx)
        tenant = f"bench{ctx.seed}"
        budget = params["budget"]
        warm_n = ctx.size["warm"]
        failures: list[str] = []
        extra: dict = {}
        payload = None
        with harness.scratch(f"serve-{index}") as root, _one_cpu():
            with ctx.spans.span("server_up", timed=True) as up:
                server = Server(root)
            extra["setup_s"] = up.s
            try:
                client = server.client
                t0 = time.perf_counter()
                client.healthy()
                health_s = time.perf_counter() - t0
                cold = None
                with ctx.phase("cold", budget=budget) as a, \
                        _guard(failures, "cold job"):
                    job = client.submit(tenant, "campaign", params)
                    submit_s = time.perf_counter() - a.t0
                    status = client.wait(job["id"], timeout=150.0)
                    cold = client.result(job["id"])
                if cold is not None:
                    extra["health_ms"] = health_s / a.speed * 1e3
                    extra["submit_ms"] = submit_s / a.speed * 1e3
                    if status["state"] != "done":
                        failures.append(f"cold job {status['state']}")
                    if cold["cache_hits"] or cold["executed_points"] != budget:
                        failures.append("cold job was not cold")
                    payload = _campaign_payload(cold["payload"], failures)
                    extra["queue_wait_ms"] = _queue_wait_ms(client, job["id"])

                samples: list[float] = []
                warm: list[float] = []
                # one failed round trip ends the phase: the rest would fail too
                with ctx.phase("warm", jobs=warm_n) as b, \
                        _guard(failures, "warm job"):
                    for _ in range(warm_n if cold is not None else 0):
                        t0 = time.perf_counter()
                        job = client.submit(tenant, "campaign", params)
                        client.wait(job["id"], timeout=150.0)
                        again = client.result(job["id"])
                        samples.append(time.perf_counter() - t0)
                        if again["cache_hits"] != budget or again["executed_points"]:
                            raise RuntimeError("warm job re-simulated")
                        if again["payload"] != cold["payload"]:
                            raise RuntimeError("warm report differs from cold")
                warm = sorted(s / b.speed for s in samples)
            finally:
                server.stop()
        extra["server_rss_mb"] = harness.peak_rss_mb(children=True)
        warm_p50 = None
        if warm:
            warm_p50 = statistics.median(warm)
            extra["warm_p95_ms"] = warm[int(0.95 * (len(warm) - 1))] * 1e3
        else:
            failures.append("no warm round trip completed")
        return Repeat(a, b, 0, None if failures else payload,
                      attempted=1 + budget + warm_n, failures=failures,
                      b_s=warm_p50, extra=extra)

    def traced_repeat(self, ctx: Ctx) -> Repeat:
        """The same campaign without the server, so the event-queue
        profiler (in-process only) can see it."""
        from repro.parallel import ResultCache
        from repro.resilience.campaign import run_campaign

        params = _campaign_params(ctx)
        failures: list[str] = []
        payload = None
        with harness.scratch("direct") as root, \
                harness.applied_env(harness.scratch_env(root)):
            with ctx.phase("cold_direct", budget=params["budget"]) as a, \
                    _guard(failures, "run_campaign"):
                report = run_campaign(
                    "pmu", params=params["params"], budget=params["budget"],
                    seed=params["seed"],
                    checkpoint_every=params["checkpoint_every"],
                    jobs=1, cache=ResultCache(root / "cache"),
                )
                payload = _campaign_payload(report, failures)
        return Repeat(a, a, 0, None if failures else payload,
                      attempted=1 + params["budget"], failures=failures)


def _queue_wait_ms(client, job_id: str) -> Optional[float]:
    """Submit -> first ``running`` event, from the job's own event log."""
    queued = None
    for event in client.events(job_id):
        if event.get("type") != "state":
            continue
        if event.get("state") == "queued" and queued is None:
            queued = event["time"]
        elif event.get("state") == "running" and queued is not None:
            return (event["time"] - queued) * 1e3
    return None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PmuFig5(), NvdlaDse(), CoherenceStress(), ServeCampaign())
}
