"""Layer probes: each drives one layer's public API in isolation.

Run once per traced invocation, in their own child process.  Every
number is in reference-speed time (see ``harness``).  Which legacy
``benchmarks/out/BENCH_*.json`` file a probe supersedes is listed in
``bench/README.md``.
"""

from __future__ import annotations

import statistics
from typing import Callable

import harness
from harness import Spans
from workloads import CAMPAIGN_SEED, Ctx, ServeCampaign


def _per_iter(spans: Spans, name: str, n: int, body: Callable[[], None],
              unit: float) -> float:
    """Time *body* (which performs *n* iterations) and return the cost
    of one iteration in *unit* seconds (1e-6 -> µs, 1e-3 -> ms)."""
    with spans.span(name, timed=True, iterations=n) as sp:
        body()
    return sp.s / n / unit


# ---------------------------------------------------------------------------
# hdl / rtl / bridge
# ---------------------------------------------------------------------------


def probe_hdl(spans: Spans, k: float) -> dict:
    """All five bundled designs through the HDL front ends, cache cleared."""
    from repro.hdl.elaborator import ELAB_CACHE
    from repro.verify.designs import DESIGNS

    def compile_all() -> None:
        ELAB_CACHE.clear()
        for design in DESIGNS.values():
            design.compile()

    return {"hdl.compile_ms": _per_iter(spans, "hdl.compile", 1, compile_all, 1e-3)}


def probe_rtl(spans: Spans, k: float) -> dict:
    from repro.rtl.simulator import RTLSimulator
    from repro.verify.designs import get_design

    out: dict = {}
    pmu = get_design("pmu").compile()
    builds = max(2, int(10 * k))
    out["rtl.build_ms"] = _per_iter(
        spans, "rtl.build", builds,
        lambda: [RTLSimulator(pmu, backend="codegen") for _ in range(builds)],
        1e-3)

    def pmu_loop(sim, n: int, active: bool) -> Callable[[], None]:
        sim.reset("rst")
        sim.poke("awvalid", 0)
        sim.poke("arvalid", 0)

        def run() -> None:
            poke, settle, tick = sim.poke, sim.settle, sim.tick
            for i in range(n):
                poke("events", (i * 37) & 0x3F if active else 0x2A)
                settle()
                tick()
        return run

    n = int(60_000 * k)
    sim = RTLSimulator(pmu, backend="codegen")
    out["rtl.pmu_active_us"] = _per_iter(
        spans, "rtl.pmu_active", n, pmu_loop(sim, n, True), 1e-6)
    out["rtl.pmu_quiet_us"] = _per_iter(
        spans, "rtl.pmu_quiet", n, pmu_loop(sim, n, False), 1e-6)
    n = int(6_000 * k)
    interp = RTLSimulator(pmu, backend="interp")
    out["rtl.interp_us"] = _per_iter(
        spans, "rtl.interp", n, pmu_loop(interp, n, True), 1e-6)

    cache = RTLSimulator(get_design("rtlcache_coh").compile(), backend="codegen")
    cache.reset("rst")
    n = int(20_000 * k)

    def cache_stream() -> None:
        poke, settle, tick = cache.poke, cache.settle, cache.tick
        for i in range(n):
            # a read/write mix over 32 lines: every cycle has a live request
            poke("req_valid", 1)
            poke("req_write", i & 1)
            poke("req_addr", ((i * 29) & 31) << 6)
            poke("req_wdata", i)
            poke("fill_valid", (i >> 1) & 1)
            poke("fill_data", i * 0x9E3779B97F4A7C15)
            settle()
            tick()

    out["rtl.cache_req_us"] = _per_iter(spans, "rtl.cache_req", n, cache_stream, 1e-6)
    return out


def probe_bridge(spans: Spans, k: float) -> dict:
    from repro.models.pmu import PMUSharedLibrary

    out: dict = {}
    lib = PMUSharedLibrary()
    lib.reset()
    in_spec, out_spec = lib.input_spec, lib.output_spec
    n = int(60_000 * k)

    def packs() -> None:
        pack = in_spec.pack
        for i in range(n):
            pack(events=i & 0x3F, arvalid=1, araddr=i & 0xFF)

    out["bridge.pack_us"] = _per_iter(spans, "bridge.pack", n, packs, 1e-6)
    data = out_spec.pack(rvalid=1, rdata=12345, irq=1)

    def unpacks() -> None:
        unpack = out_spec.unpack
        for _ in range(n):
            unpack(data)

    out["bridge.unpack_us"] = _per_iter(spans, "bridge.unpack", n, unpacks, 1e-6)

    n = int(40_000 * k)
    bufs = [in_spec.pack(events=i) for i in (0b111011, 0b010101)]

    def ticks() -> None:
        tick = lib.tick
        for i in range(n):
            tick(bufs[i & 1])

    out["bridge.lib_tick_us"] = _per_iter(spans, "bridge.lib_tick", n, ticks, 1e-6)
    batches = int(2_000 * k)

    def batch() -> None:
        for i in range(batches):
            lib.tick_batch(bufs[i & 1], 64)

    out["bridge.lib_batch_us"] = _per_iter(
        spans, "bridge.lib_batch", batches * 64, batch, 1e-6)
    return out


# ---------------------------------------------------------------------------
# soc
# ---------------------------------------------------------------------------


def probe_soc(spans: Spans, k: float) -> dict:
    from repro.soc.cache import Cache
    from repro.soc.event import EventQueue
    from repro.soc.mem import DRAMController, IdealMemory, ddr4_2400
    from repro.soc.packet import MemCmd, Packet
    from repro.soc.ports import RequestPort
    from repro.soc.simobject import Simulation

    out: dict = {}
    n = int(100_000 * k)

    def dispatch() -> None:
        # a populated heap: a real SoC keeps hundreds of resident events
        q = EventQueue()
        for i in range(512):
            q.schedule_fn(lambda: None, 10**12 + i)
        count = 0

        def cb() -> None:
            nonlocal count
            count += 1
            if count < n:
                q.schedule_fn(cb, q.cur_tick + 10)

        q.schedule_fn(cb, 0)
        q.run(until=10**11)

    out["soc.event.dispatch_us"] = _per_iter(
        spans, "soc.event.dispatch", n, dispatch, 1e-6)

    sim = Simulation()
    cache = Cache(sim, "c", 64 * 1024, 4, 1, mshrs=16)
    mem = IdealMemory(sim, "m", latency_cycles=1)
    cache.mem_side.connect(mem.port)
    port = RequestPort("d", recv_timing_resp=lambda pkt: True,
                       recv_req_retry=lambda: None)
    port.connect(cache.cpu_side)
    port.send_timing_req(Packet(MemCmd.ReadReq, 0, 8))
    sim.run(until=sim.now + 10**6)  # warm the line
    n = int(20_000 * k)

    def hits() -> None:
        for _ in range(n):
            port.send_timing_req(Packet(MemCmd.ReadReq, 0, 8))
            sim.run(until=sim.now + 2000)

    out["soc.cache.access_us"] = _per_iter(spans, "soc.cache.access", n, hits, 1e-6)

    n = int(12_000 * k)

    def dram(address: Callable[[int], int]) -> Callable[[], None]:
        def run() -> None:
            dsim = Simulation()
            ctrl = DRAMController(dsim, "m", ddr4_2400(2))
            served = 0

            def resp(pkt) -> bool:
                nonlocal served
                served += 1
                return True

            dport = RequestPort("d", recv_timing_resp=resp,
                                recv_req_retry=lambda: None)
            dport.connect(ctrl.port)
            issued = 0

            def pump() -> None:
                nonlocal issued
                while issued < n:
                    pkt = Packet(MemCmd.ReadReq, address(issued), 64)
                    if not dport.send_timing_req(pkt):
                        dsim.eventq.schedule_fn(pump, dsim.now + 20_000)
                        return
                    issued += 1

            pump()
            while served < n:
                dsim.run(until=dsim.now + 10**7)
        return run

    out["soc.mem.dram_req_us"] = _per_iter(
        spans, "soc.mem.dram_stream", n,
        dram(lambda i: (i * 64) % (1 << 22)), 1e-6)
    out["soc.mem.dram_random_us"] = _per_iter(
        spans, "soc.mem.dram_random", n,
        dram(lambda i: ((i * 0x9E3779B1) & 0x3FFFFF) & ~63), 1e-6)
    return out


# ---------------------------------------------------------------------------
# parallel
# ---------------------------------------------------------------------------


def _noop_point(point):
    return point


def probe_parallel(spans: Spans, k: float) -> dict:
    from repro.parallel import ResultCache, run_points

    out: dict = {}
    with harness.scratch("probe-cache") as root:
        cache = ResultCache(root / "cache")
        n = int(1_500 * k)
        keys = [cache.key(experiment="probe", index=i) for i in range(n)]
        payload = {"ticks": 123456789, "outcome": "masked", "bit": 3}
        out["parallel.cache_put_us"] = _per_iter(
            spans, "parallel.cache_put", n,
            lambda: [cache.put(key, payload) for key in keys], 1e-6)
        out["parallel.cache_get_us"] = _per_iter(
            spans, "parallel.cache_get", n,
            lambda: [cache.get(key) for key in keys], 1e-6)
    n = int(20_000 * k)
    out["parallel.run_points_us"] = _per_iter(
        spans, "parallel.run_points", n,
        lambda: run_points(list(range(n)), _noop_point, jobs=1), 1e-6)
    out["parallel.pool_start_ms"] = _per_iter(
        spans, "parallel.pool_start", 1,
        lambda: run_points([0, 1], _noop_point, jobs=2), 1e-3)
    return out


# ---------------------------------------------------------------------------
# resilience / serve (the heavy ones: a small campaign, direct and served)
# ---------------------------------------------------------------------------


def probe_resilience(spans: Spans, size: dict) -> dict:
    from repro.dse.pmu_experiment import build_pmu_system
    from repro.parallel import ResultCache
    from repro.resilience.campaign import (
        campaign_config, campaign_points, campaign_root, ensure_golden,
        run_campaign, run_experiment,
    )
    from repro.resilience.targets import get_target

    out: dict = {}
    n_sort = size["camp_n_sort"]
    with harness.scratch("probe-ckpt") as root:
        # mid-sort, PMU attached and counting
        soc, _pmu, drv = build_pmu_system(n_sort=n_sort)
        drv.enable(0x3F)
        soc.sim.run_cycles(3_000)
        path = root / "ckpt" / "probe.ckpt"
        with spans.span("resilience.ckpt_save", timed=True) as save:
            soc.save_checkpoint(path)
        fresh, _pmu, drv = build_pmu_system(n_sort=n_sort)
        drv.enable(0x3F)
        with spans.span("resilience.ckpt_restore", timed=True) as restore:
            fresh.restore(path)
        out["resilience.ckpt_save_ms"] = save.s * 1e3
        out["resilience.ckpt_restore_ms"] = restore.s * 1e3
        out["resilience.ckpt_kb"] = path.stat().st_size / 1024.0

    cfg = campaign_config(
        "pmu", params={"n_sort": n_sort}, budget=size["camp_budget"],
        seed=CAMPAIGN_SEED, checkpoint_every=size["camp_ckpt"])
    target = get_target("pmu")
    with harness.scratch("probe-golden") as root, \
            harness.applied_env(harness.scratch_env(root)):
        golden_root = campaign_root(target, cfg["params"],
                                    cfg["checkpoint_every"], cfg["max_cycles"])
        with spans.span("resilience.golden", timed=True) as golden:
            ensure_golden(golden_root, target, cfg["params"],
                          cfg["checkpoint_every"], cfg["max_cycles"])
        out["resilience.golden_s"] = golden.s
        times = []
        for index, point in enumerate(campaign_points(cfg)):
            with spans.span("resilience.experiment", timed=True,
                            index=index) as sp:
                run_experiment(point)
            times.append(sp.s)
        out["resilience.experiment_p50_ms"] = statistics.median(times) * 1e3

    with harness.scratch("probe-direct") as root, \
            harness.applied_env(harness.scratch_env(root)):
        with spans.span("resilience.campaign_direct", timed=True) as direct:
            run_campaign(
                "pmu", params=cfg["params"], budget=cfg["budget"],
                seed=cfg["seed"],
                checkpoint_every=cfg["checkpoint_every"], jobs=1,
                cache=ResultCache(root / "cache"))
        out["resilience.campaign_direct_s"] = direct.s
    return out


def probe_serve(spans: Spans, size: dict, seed: int, direct_s: float) -> dict:
    """One cold campaign through a server subprocess, then 3x the warm
    resubmits of a benchmark repeat: at the default size 300 samples,
    so the p95 has 15 beyond it."""
    ctx = Ctx(dict(size, warm=3 * size["warm"]), seed)
    ctx.spans = spans
    rep = ServeCampaign().repeat(ctx, 0)
    if rep.failures:
        raise RuntimeError(f"serve probe failed: {rep.failures}")
    return {
        "serve.health_ms": rep.extra["health_ms"],
        "serve.submit_ms": rep.extra["submit_ms"],
        "serve.roundtrip_p95_ms": rep.extra["warm_p95_ms"],
        "serve.queue_wait_ms": rep.extra["queue_wait_ms"],
        "serve.cold_overhead_s": rep.a.s - direct_s,
        "serve.server_rss_mb": rep.extra["server_rss_mb"],
    }


def run_all(size: dict, seed: int, k: float) -> tuple[dict, Spans]:
    """Every probe; *k* scales the iteration counts (smoke: 0.1)."""
    spans = Spans()
    out: dict = {}
    with spans.span("probes"):
        for probe in (probe_hdl, probe_rtl, probe_bridge, probe_soc,
                      probe_parallel):
            with spans.span(probe.__name__):
                out.update(probe(spans, k))
        with spans.span("probe_resilience"):
            out.update(probe_resilience(spans, size))
        with spans.span("probe_serve"):
            out.update(probe_serve(spans, size, seed,
                                   out["resilience.campaign_direct_s"]))
    return out, spans
