"""End-to-end benchmark with per-layer host-time attribution.

    python3 bench/run.py                         every workload, both passes
    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1

The second form is the driver's contract: the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}`` with
every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) of ``BENCHMARK.json``, which is where names, units,
directions and bounds are kept.  See ``bench/README.md`` for what each
name means.

Every measurement runs in a child process of this one (``--child`` is
the internal entry point); the parent only orchestrates, checks the
outputs and prints.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import harness

#: setup is measured in this many extra fresh processes per run (plus
#: the measuring child's own), and reported as their median
SETUP_RUNS = 6
MIN_REPEATS = 3
MAX_REPEATS = 12
#: a child that is still repeating after this long stops, whatever
#: ``--seconds`` said: the driver allows one run 180 s
CHILD_DEADLINE_S = 120.0


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def spawn(mode: str, args: argparse.Namespace, timeout: float = 150.0) -> dict:
    """Run one child to completion and return the JSON document it printed."""
    cmd = [
        sys.executable, os.path.join(harness.BENCH_DIR, "run.py"),
        "--child", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--size", args.size,
        "--spawned", repr(time.perf_counter()),
    ]
    proc = subprocess.run(
        cmd, env=harness.child_env(), cwd=str(harness.ROOT),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child {mode!r} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_sample(workload, ctx, spawned: float) -> dict:
    """Parent's spawn (its ``perf_counter``, the same clock here) ->
    ready for the first timed body: raw and reference-speed seconds."""
    sampler = harness.SpeedSampler()
    sampler.start()
    workload.setup(ctx)
    sampler.stop()
    wall = time.perf_counter() - spawned - sampler.overhead_s
    return {"setup_s": wall / sampler.speed, "setup_wall_s": wall}


def _repeat_doc(rep) -> dict:
    return {
        "a": _span_doc(rep.a), "b": _span_doc(rep.b),
        "phase_b_s": rep.phase_b_s, "cycles": rep.cycles,
        "digest": None if rep.payload is None else harness.sim_digest(rep.payload),
        "attempted": rep.attempted, "failures": rep.failures,
        "extra": rep.extra,
    }


def _span_doc(sp) -> dict:
    return {"s": sp.s, "wall_s": sp.wall_s, "cpu_s": sp.cpu_s,
            "speed": sp.speed}


def child_main(args: argparse.Namespace) -> dict:
    from workloads import SIZES, WORKLOADS, Ctx

    size = SIZES[args.size]
    if args.child == "probes":
        import probes

        values, spans = probes.run_all(
            size, args.seed, 0.1 if args.size == "smoke" else 1.0)
        _write_trace("probes", spans, {"probes": values})
        return {"probes": values}

    workload = WORKLOADS[args.workload]
    ctx = Ctx(size, args.seed)
    doc = _setup_sample(workload, ctx, args.spawned)
    if args.child == "setup":
        return doc

    started = time.perf_counter()
    if args.child == "measure":
        with ctx.spans.span(args.workload, seed=args.seed, size=args.size):
            if not workload.served:
                with ctx.spans.span("warmup"):
                    workload.repeat(Ctx(SIZES["smoke"], args.seed), 0)
            reps, timed = [], 0.0
            while len(reps) < MIN_REPEATS or (
                    timed < args.seconds and len(reps) < MAX_REPEATS
                    and time.perf_counter() - started < CHILD_DEADLINE_S):
                with ctx.spans.span("repeat", index=len(reps)):
                    rep = workload.repeat(ctx, len(reps))
                timed += rep.a.wall_s + rep.b.wall_s
                reps.append(_repeat_doc(rep))
        doc["repeats"] = reps
        doc["peak_rss_mb"] = harness.peak_rss_mb(children=workload.served)
        return doc

    assert args.child == "traced"
    import layers

    with ctx.spans.span(args.workload, seed=args.seed, size=args.size, traced=True):
        with ctx.spans.span("untraced"):
            ref = workload.traced_repeat(ctx)
        untraced_s = sum(ctx.phase_s)
        profiler = layers.LayerProfiler()
        ctx.profiler = profiler
        with ctx.spans.span("traced"), layers.traced(profiler):
            traced = workload.traced_repeat(ctx)
        ctx.profiler = None
    doc.update(
        untraced=_repeat_doc(ref), traced=_repeat_doc(traced),
        phases=ctx.layer_phases, still_installed=layers.installed(),
        untraced_s=untraced_s, traced_s=sum(ctx.phase_s) - untraced_s,
    )
    _write_trace(args.workload, ctx.spans, {"layers": ctx.layer_phases})
    return doc


def _write_trace(name: str, spans, other: dict) -> None:
    harness.OUT_DIR.mkdir(exist_ok=True)
    path = harness.OUT_DIR / f"trace-{name}.json"
    path.write_text(json.dumps(spans.to_chrome(other)), encoding="utf-8")


# ---------------------------------------------------------------------------
# One workload, one pass
# ---------------------------------------------------------------------------


def _expected_digest(workload, args) -> str | None:
    """The pinned sim_digest, or None when this (size, seed) is not pinned."""
    with open(harness.BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        pinned = json.load(fh).get(args.size, {}).get(workload.name)
    if isinstance(pinned, dict):  # seeded workload: one digest per seed
        pinned = pinned.get(str(args.seed))
    return pinned


def _check_digests(workload, args, reps: list[dict]) -> tuple[str | None, bool]:
    """Simulated results repeat exactly: every repeat must agree with
    the first and with the pinned value.  A mismatch fails that repeat.
    Returns the digest and whether this (size, seed) is pinned."""
    pinned = _expected_digest(workload, args)
    first = next((r["digest"] for r in reps if r["digest"]), None)
    for rep in reps:
        if rep["digest"] is None:
            continue  # already failed, with its reason
        if rep["digest"] != first:
            rep["failures"].append("sim_digest differs between repeats")
        elif pinned is not None and rep["digest"] != pinned:
            rep["failures"].append(
                f"sim_digest {rep['digest'][:12]} != pinned {pinned[:12]}")
    return first, pinned is not None


def _tally(reps: list[dict]) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(min(len(r["failures"]), r["attempted"]) for r in reps)
    return attempted, failed


def run_end_to_end(args: argparse.Namespace) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setups = []
    if not workload.served:
        setups = [spawn("setup", args)["setup_s"] for _ in range(SETUP_RUNS)]
    doc = spawn("measure", args)
    reps = doc["repeats"]
    if workload.served:
        setups = [r["extra"]["setup_s"] for r in reps]  # spawn -> healthy
    else:
        setups.append(doc["setup_s"])
    digest, pinned = _check_digests(workload, args, reps)
    attempted, failed = _tally(reps)

    # repeat-level series; a workload without the quantity has none
    series = {
        "wall_s": [sum(r[p]["s"] for p in workload.wall_phases) for r in reps],
        "setup_s": setups,
        "phase_b_s": [r["phase_b_s"] for r in reps if r["phase_b_s"]],
    }
    series["sim_khz"] = [r["cycles"] / 1e3 / w
                         for r, w in zip(reps, series["wall_s"]) if r["cycles"]]
    if workload.name == "pmu_fig5":
        series["pmu_overhead_ratio"] = [
            r["a"]["s"] / r["b"]["s"] for r in reps if r["b"]["s"]]
    values = {name: statistics.median(xs) if xs else None
              for name, xs in series.items()}
    values["peak_rss_mb"] = doc["peak_rss_mb"]
    for metric in harness.WORKLOAD_METRICS:
        values.setdefault(metric["name"], None)
    return {
        "workload": workload.name, "trace": 0, "seed": args.seed,
        "size": args.size, "sim_digest": digest,
        # how far this run's own repeats leave each median uncertain:
        # above a metric's bound, compare.py says unresolved
        "spread": {name: harness.median_spread(xs)
                   for name, xs in series.items() if xs},
        "pinned": pinned,
        "attempted": attempted, "failed": failed,
        "failures": sorted({f for r in reps for f in r["failures"]}),
        "values": values, "repeats": reps, "setup_samples_s": setups,
    }


def run_per_layer(args: argparse.Namespace, probe_values: dict) -> dict:
    from layers import LAYERS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    doc = spawn("traced", args)
    reps = [doc["untraced"], doc["traced"]]
    digest, pinned = _check_digests(workload, args, reps)
    attempted, failed = _tally(reps)
    failures = sorted({f for r in reps for f in r["failures"]})
    if doc["still_installed"]:
        failed += 1
        failures.append("profiler or wrappers still installed after the pass")

    values = dict(probe_values)
    totals = {layer: {"host_s": 0.0, "events": 0, "cycles": 0}
              for layer in (*LAYERS, "soc.event")}
    for table in doc["phases"].values():
        for layer, row in table.items():
            if layer != "_phase":
                for key, value in row.items():
                    totals[layer][key] += value
    for layer, row in totals.items():
        values[f"{layer}.host_s"] = row["host_s"]
        if layer != "soc.event":
            values[f"{layer}.events"] = row["events"]

    def per(numerator: float, count: int) -> float:
        return numerator / count * 1e6 if count else 0.0

    values["bridge.us_per_tick"] = per(
        totals["bridge"]["host_s"], totals["bridge"]["events"])
    values["rtl.us_per_tick"] = per(
        totals["rtl"]["host_s"], totals["rtl"]["cycles"])
    values["soc.event.us_per_event"] = per(
        totals["soc.event"]["host_s"], totals["soc.event"]["events"])
    values["trace.wall_s"] = doc["traced_s"]
    values["trace.overhead_frac"] = doc["traced_s"] / doc["untraced_s"] - 1.0

    names = [m["name"] for m in harness.load_spec()["per_layer"]]
    missing = sorted(set(names) - set(values))
    if missing:
        failed += len(missing)
        failures.append(f"metrics not produced: {missing}")
    return {
        "workload": workload.name, "trace": 1, "seed": args.seed,
        "size": args.size, "sim_digest": digest,
        "pinned": pinned,
        "attempted": attempted + len(names), "failed": failed,
        "failures": failures, "values": values,
        "phases": doc["phases"], "probe_names": sorted(probe_values),
    }


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _pass_metrics(result: dict) -> list[dict]:
    """The ``BENCHMARK.json`` metrics of the pass *result* came from."""
    return harness.load_spec()["per_layer" if result["trace"] else "end_to_end"]


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    metrics = {
        m["name"]: {"value": result["values"].get(m["name"]), "unit": m["unit"]}
        for m in _pass_metrics(result)
    }
    healthy = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                  for m in metrics.values())
    return json.dumps({
        "correct": result["failed"] == 0 and healthy,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: dict, probes: bool = True) -> None:
    """The human-readable block; *probes* False leaves out the layer
    probes (printed once when several workloads share them)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[result["workload"]]
    print(f"== {workload.name}  trace={result['trace']}  seed={result['seed']}"
          f"  size={result['size']}")
    if result["trace"] == 0:
        print(f"   a = {workload.phase_names[0]};  b = {workload.phase_names[1]};"
              f"  wall_s = {' + '.join(workload.wall_phases)}")
        for i, rep in enumerate(result["repeats"]):
            cells = "  ".join(
                f"{p}: {rep[p]['s']:.3f}s (wall {rep[p]['wall_s']:.3f} "
                f"cpu {rep[p]['cpu_s']:.3f} x{rep[p]['speed']:.2f})"
                for p in ("a", "b"))
            print(f"   repeat {i}: {cells}")
        for m in (*_pass_metrics(result), *harness.WORKLOAD_METRICS):
            value = result["values"][m["name"]]
            arrow = "↓" if m["better"] == "lower" else "↑"
            text = "null" if value is None else f"{value:>12.4f}"
            print(f"   {m['name']:<19} {arrow} {text:>12} {m['unit']}"
                  f"  [bound {m['bound']:.0%}]")
        if workload.name == "pmu_fig5":
            print("   pmu_overhead_ratio is Table 2's gem5+PMU / gem5; the "
                  "paper reports 1.09-1.24x")
    else:
        for m in _pass_metrics(result):
            value = result["values"].get(m["name"])
            if probes or m["name"] not in result["probe_names"]:
                text = "missing" if value is None else f"{value:>14.4f}"
                print(f"   {m['name']:<30} ↓ {text} {m['unit']}")
        for phase, table in result["phases"].items():
            wall = table["_phase"]["wall_s"]
            shares = ", ".join(
                f"{layer} {row['host_s'] / wall:.0%}"
                for layer, row in sorted(
                    table.items(), key=lambda kv: -kv[1].get("host_s", 0))
                if layer != "_phase" and row["host_s"] > 0.005 * wall)
            print(f"   phase {phase}: {wall:.3f}s traced = {shares}")
    pinned = "pinned" if result.get("pinned") else "not pinned for this seed/size"
    print(f"   sim_digest {str(result['sim_digest'])[:16]} ({pinned});  "
          f"failed {result['failed']} / {result['attempted']} operations")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


# ---------------------------------------------------------------------------
# History
# ---------------------------------------------------------------------------


def _git(*cmd: str) -> str:
    try:
        return subprocess.run(
            ["git", *cmd], cwd=str(harness.ROOT), capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def record(results: list[dict]) -> str:
    """Append this run as one line of the host class's history file."""
    cpus = os.cpu_count() or 1
    py = f"{sys.version_info.major}.{sys.version_info.minor}"
    entry = {
        "sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "cpus": cpus, "python": platform.python_version(),
        "platform": platform.platform(), "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": [
            {key: r[key] for key in
             ("workload", "trace", "seed", "size", "sim_digest", "attempted",
              "failed", "values")}
            | ({"spread": r["spread"]} if r["trace"] == 0 else {})
            for r in results
        ],
    }
    path = harness.BENCH_DIR / "history" / f"{cpus}cpu-py{py}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run keeps repeating its timed body")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                             "default: both")
    parser.add_argument("--size", choices=("smoke", "default"),
                        default="default")
    parser.add_argument("--record", action="store_true",
                        help="append the results to bench/history/")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.child is not None:
        print(json.dumps(child_main(args)))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = (0, 1) if args.trace is None else (args.trace,)
    results, probe_values = [], None
    for name in names:
        args.workload = name
        for trace in passes:
            if trace == 0:
                result = run_end_to_end(args)
            else:
                if probe_values is None:  # once per invocation
                    probe_values = spawn("probes", args)["probes"]
                result = run_per_layer(args, probe_values)
            print_result(result, probes=not any(r["trace"] for r in results))
            results.append(result)
    harness.OUT_DIR.mkdir(exist_ok=True)
    (harness.OUT_DIR / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    if args.record:
        print(f"recorded in {record(results)}")
    if len(results) == 1:
        print(contract_line(results[0]))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
