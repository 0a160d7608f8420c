"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``   compile a Verilog/VHDL file and print the elaborated design
              (optionally free-run it and dump a VCD)
``fig5``      PMU-vs-gem5 IPC series (paper Fig. 5)
``table2``    PMU / waveform simulation-time overheads (paper Table 2)
``dse``       one NVDLA design-space-exploration subfigure (Figs. 6/7)
``table3``    full-system vs standalone overheads (paper Table 3)
``verify``    RTL verification: ``lint`` / ``cover`` / ``fuzz`` /
              ``equiv`` over the bundled designs, plus ``coherence``
              (MESI invariants under random sharing; repro.verify)
``campaign``  fault-injection campaign: golden run, triaged experiments,
              per-signal vulnerability report (repro.resilience.campaign)
``serve``     run the simulation-as-a-service job server (repro.serve)
``submit``    submit a job to a running server and optionally wait
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional


# argparse ``type=`` converters: a malformed value exits 2 with a usage
# line instead of a traceback from inside a command.

def _int_list(text: str) -> tuple[int, ...]:
    """``"60,150,300"`` -> ``(60, 150, 300)``; blank items are skipped."""
    try:
        values = tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers")
    return values


def _name_int(pair: str) -> tuple[str, int]:
    """``"W=0x10"`` -> ``("W", 16)``."""
    name, _, value = pair.partition("=")
    try:
        return name, int(value, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --param {pair!r}; expected NAME=INT") from None


def _memory_list(text: str) -> tuple[str, ...]:
    """Comma-separated memory preset names, each checked."""
    from .soc.mem import MEMORY_PRESETS

    names = tuple(text.split(","))
    for name in names:
        if name not in MEMORY_PRESETS:
            raise argparse.ArgumentTypeError(
                f"unknown memory {name!r}; presets: "
                f"{', '.join(MEMORY_PRESETS)}")
    return names


def _json_object(text: str) -> dict:
    import json

    try:
        value = json.loads(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not valid JSON: {err}") from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"{text!r} is not a JSON object")
    return value


class _DesignArg(argparse.Action):
    """The ``verify`` subcommands' design names.  The help lists the
    registry, imported only when help is printed: it imports every model
    wrapper, a tenth of a second on each CLI start."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)

    def _help(self) -> str:
        from .verify.designs import design_names

        names = ", ".join(design_names())
        return f"bundled design name(s): {names} (default: all)"

    help = property(_help, lambda self, _value: None)


def cmd_compile(args: argparse.Namespace) -> int:
    from .hdl.common import HDLError
    from .rtl import RTLSimulator, VCDWriter

    params = dict(args.param)
    if args.file.endswith((".vhd", ".vhdl")):
        from .hdl.vhdl import compile_vhdl as compile_fn

        flow = "VHDL (GHDL-equivalent)"
    else:
        from .hdl.verilog import compile_verilog as compile_fn

        flow = "Verilog (Verilator-equivalent)"
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
        rtl = compile_fn(source, top=args.top, params=params or None,
                         filename=args.file)
    except (HDLError, OSError) as err:
        print(f"repro compile: error: {err}", file=sys.stderr)
        return 2
    print(f"compiled {args.file} with the {flow} flow")
    print(f"  top module : {rtl.name}")
    print(f"  signals    : {len(rtl.signals)} "
          f"({len(rtl.inputs)} inputs, {len(rtl.outputs)} outputs)")
    print(f"  memories   : {len(rtl.memories)}")
    print(f"  processes  : {len(rtl.comb_procs)} comb, "
          f"{len(rtl.sync_procs)} sync")
    if args.show_code:
        print("\n-- generated model code " + "-" * 40)
        print(rtl.generated_source or "<none>")
    if args.area:
        from .rtl.synth import estimate_area

        if args.file.endswith((".vhd", ".vhdl")):
            print("\n(area estimation currently walks the Verilog AST only)")
        else:
            from .hdl.verilog.parser import parse as vparse

            report = estimate_area(vparse(source), rtl.name, params or None)
            print()
            print(report.format_text())
    if args.ticks:
        trace = None
        stream = None
        if args.vcd:
            stream = open(args.vcd, "w", encoding="utf-8")
            trace = VCDWriter(rtl, stream=stream)
        sim = RTLSimulator(rtl, trace=trace)
        sim.reset()
        sim.tick(args.ticks)
        print(f"\nfree-ran {args.ticks} cycles; outputs:")
        for sig in rtl.outputs:
            print(f"  {sig.name} = {sim.peek(sig.name):#x}")
        if stream is not None:
            trace.close()
            stream.close()
            print(f"waveform written to {args.vcd}")
    return 0


def _progress(total: int, label: str):
    from .parallel import ProgressReporter

    return ProgressReporter(total, label=label)


def _list_debug_flags() -> None:
    """Print every registered debug flag (``--debug-flags='?'``)."""
    import importlib

    # flags register at module import; pull in everything that has one
    for mod in ("repro.soc.system", "repro.soc.ports", "repro.soc.tlb",
                "repro.soc.iomaster", "repro.bridge.rtl_object",
                "repro.trace.packets"):
        importlib.import_module(mod)
    from .trace.flags import all_flags

    for name, flag in sorted(all_flags().items()):
        print(f"{name:<12} {flag.desc}")


def _setup_tracing(args: argparse.Namespace):
    """Arm the repro.trace layer from ``--debug-flags``/``--trace-*``.

    Returns the installed :class:`~repro.trace.ChromeTracer`, if any, so
    the caller can ``finish()`` it once the command completes.
    """
    flag_spec = getattr(args, "debug_flags", None)
    trace_out = getattr(args, "trace_out", None)
    start = getattr(args, "trace_start", None)
    end = getattr(args, "trace_end", None)
    if flag_spec and flag_spec.strip() == "?":
        _list_debug_flags()
        raise SystemExit(0)
    if not flag_spec and not trace_out and start is None and end is None:
        return None
    from .trace import ChromeTracer, set_pending_window
    from .trace.flags import (
        parse_flags,
        set_chrome_tracer,
        set_default_profiler,
        set_flags,
    )

    names = parse_flags(flag_spec) if flag_spec else []
    tracer = None
    if trace_out:
        tracer = ChromeTracer(path=trace_out)
        set_chrome_tracer(tracer)
        set_default_profiler(tracer)
        # packet journeys are the headline spans of the JSON trace
        if "Packet" not in names:
            names.append("Packet")
    if start is not None or end is not None:
        if tracer is not None and start is not None:
            tracer.enabled = False  # the window's open() flips it on
        set_pending_window(names, start, end)
    else:
        set_flags(names)
    return tracer


def _setup_resilience(args: argparse.Namespace):
    """Park ``--inject``/``--watchdog``/``--checkpoint-*``/``--restore-from``
    with :mod:`repro.resilience.control`; the first simulation that starts
    (per process — workers inherit the parked state on fork) arms them.

    Returns the :class:`~repro.parallel.RunStats` instance that sweep
    commands should thread into their runner, so ``--keep-going`` /
    ``--point-timeout`` outcomes can be summarised after the run.
    """
    from .parallel import RunStats

    inject = getattr(args, "inject", None)
    seed = getattr(args, "inject_seed", None)
    watchdog = getattr(args, "watchdog", False)
    interval = getattr(args, "watchdog_interval", None)
    every = getattr(args, "checkpoint_every", None)
    restore = getattr(args, "restore_from", None)
    stats = RunStats()
    if not (inject or seed is not None or watchdog or every or restore):
        return stats
    from .resilience import FaultPlan, control

    if inject:
        try:
            plan = FaultPlan.parse(inject.split(","), seed=seed or 0)
        except ValueError as err:
            print(f"repro: --inject: {err}", file=sys.stderr)
            raise SystemExit(2)
        control.set_pending_plan(plan)
    elif seed is not None:
        plan = FaultPlan.generate(seed)
        print(f"injecting generated plan (seed={seed}): "
              f"{', '.join(f.spec() for f in plan.faults)}", file=sys.stderr)
        control.set_pending_plan(plan)
    if watchdog or interval is not None:
        kwargs = {}
        if interval is not None:
            kwargs["check_cycles"] = interval
        control.set_pending_watchdog(**kwargs)
    if every:
        control.set_pending_checkpoints(every, args.checkpoint_dir)
    if restore:
        control.set_pending_restore(restore)
    return stats


def _report_run_stats(stats) -> None:
    """One stderr line when a sweep had to retry, kill or skip points."""
    if not (stats.failed or stats.timeout_kills or stats.pool_restarts
            or stats.soft_retries):
        return
    requeued = sum(stats.requeues.values())
    print(f"sweep resilience: {stats.completed}/{stats.points} completed, "
          f"{stats.failed} failed, {stats.soft_retries} soft retries, "
          f"{stats.timeout_kills} timeout kills, "
          f"{stats.pool_restarts} pool restarts, "
          f"{requeued} innocent requeues", file=sys.stderr)


def cmd_fig5(args: argparse.Namespace) -> int:
    from .dse import render_fig5, run_fig5, run_fig5_series

    intervals = args.intervals
    stats = _setup_resilience(args)
    if len(intervals) == 1:
        results = {intervals[0]: run_fig5(n_sort=args.n,
                                          interval_cycles=intervals[0])}
    else:
        results = run_fig5_series(
            intervals, n_sort=args.n, jobs=args.jobs,
            point_timeout=args.point_timeout, keep_going=args.keep_going,
            progress=_progress(len(intervals), "fig5"), stats=stats,
        )
        _report_run_stats(stats)
    for interval, result in results.items():
        if len(results) > 1:
            print(f"\n== sampling interval: {interval} cycles ==")
        print(render_fig5(result, max_rows=args.rows))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from .dse import render_table2
    from .dse.pmu_experiment import run_table2

    sizes = args.sizes
    stats = _setup_resilience(args)
    rows = run_table2(sizes=sizes, jobs=args.jobs,
                      point_timeout=args.point_timeout,
                      keep_going=args.keep_going,
                      progress=_progress(len(sizes), "table2"), stats=stats)
    _report_run_stats(stats)
    print(render_table2(rows))
    return 0


def cmd_dse(args: argparse.Namespace) -> int:
    from .dse import render_dse, run_dse
    from .parallel import ResultCache

    inflight, memories = args.inflight, args.memories
    cache = None if args.no_cache else ResultCache()
    n_points = len(inflight) * len(memories) + 1
    stats = _setup_resilience(args)
    result = run_dse(
        args.workload, args.nvdla, inflight_sweep=inflight,
        memories=memories, scale=args.scale,
        jobs=args.jobs, cache=cache,
        point_timeout=args.point_timeout, keep_going=args.keep_going,
        progress=_progress(n_points, "dse"), stats=stats,
    )
    _report_run_stats(stats)
    print(render_dse(result, inflight_sweep=inflight))
    line = (f"\n({result.wall_seconds:.1f}s wall for {n_points} simulations "
            f"at jobs={args.jobs}")
    if cache is not None:
        line += (f"; cache: {result.cache_hits} hit(s), "
                 f"{result.cache_misses} miss(es) under {cache.root}")
    print(line + ")")
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from .dse import render_table3, run_table3

    stats = _setup_resilience(args)
    rows = run_table3(jobs=args.jobs, point_timeout=args.point_timeout,
                      keep_going=args.keep_going, stats=stats)
    _report_run_stats(stats)
    print(render_table3(rows))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .parallel import ResultCache, RunStats
    from .resilience.campaign import render_report, run_campaign
    from .resilience.targets import TARGETS

    if args.list_targets:
        width = max(len(name) for name in TARGETS)
        for name in sorted(TARGETS):
            target = TARGETS[name]
            defaults = ", ".join(
                f"{k}={v}" for k, v in sorted(target.defaults.items())
            )
            print(f"{name:<{width}}  {target.description}")
            print(f"{'':<{width}}  defaults: {defaults}")
        return 0
    if not args.target:
        print("repro: campaign: a TARGET is required "
              "(see --list-targets)", file=sys.stderr)
        return 2

    overrides = {}
    for pair in args.param:
        if "=" not in pair:
            print(f"repro: campaign: bad --param {pair!r}; "
                  f"expected NAME=VALUE", file=sys.stderr)
            return 2
        name, _, value = pair.partition("=")
        overrides[name] = value
    cache = None if args.no_cache else ResultCache()
    stats = RunStats()
    try:
        report = run_campaign(
            args.target, params=overrides, budget=args.budget,
            seed=args.seed, jobs=args.jobs, cache=cache,
            checkpoint_every=args.checkpoint_every,
            max_cycles=args.max_cycles,
            watchdog_interval=args.watchdog_interval,
            wall_timeout=args.wall_timeout,
            point_timeout=args.point_timeout,
            progress=_progress(args.budget, "campaign"), stats=stats,
        )
    except ValueError as err:
        print(f"repro: campaign: {err}", file=sys.stderr)
        return 2
    _report_run_stats(stats)

    hist = report["histogram"]
    parts = ", ".join(f"{name} {hist[name]}" for name in hist if hist[name])
    print(f"campaign: {args.target} seed={args.seed} "
          f"budget={report['campaign']['budget']}")
    print(f"outcomes: {parts or 'none'}")
    avf = report["avf"]
    low, high = report["avf_ci95"]
    if avf is not None:
        print(f"AVF: {avf:.4f} (95% CI [{low:.4f}, {high:.4f}] "
              f"over {report['valid_samples']} experiments)")
    width = max((len(name) for name in report["signals"]), default=6)
    print(f"{'signal':<{width}}  {'n':>4}  {'vuln':>4}  "
          f"{'avf':>7}  ci95")
    for name, entry in report["signals"].items():
        savf = entry["avf"]
        slo, shi = entry["avf_ci95"]
        print(f"{name:<{width}}  {entry['valid_samples']:>4}  "
              f"{entry['vulnerable']:>4}  "
              f"{'-' if savf is None else f'{savf:>7.4f}'}  "
              f"[{slo:.4f}, {shi:.4f}]")
    if args.report:
        os.makedirs(os.path.dirname(args.report) or ".", exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
        print(f"report written to {args.report}")
    return 0


def _verify_targets(names: list[str]):
    """Resolve design-name arguments (empty = every bundled design)."""
    from .verify import design_names, get_design

    if not names:
        names = design_names()
    try:
        return [get_design(n) for n in names]
    except ValueError as err:
        raise SystemExit(str(err))


def _load_waivers(path: Optional[str]):
    from .verify import parse_waiver_file

    if not path:
        return []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_waiver_file(fh.read(), path)
    except (OSError, ValueError) as err:
        raise SystemExit(f"cannot load waivers: {err}")


def _write_json(path: Optional[str], text: str) -> None:
    if not path:
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    print(f"json report written to {path}")


def cmd_verify_lint(args: argparse.Namespace) -> int:
    from .verify import LintReport, lint_source

    waivers = _load_waivers(args.waivers)
    findings = []
    if args.file:
        for path in args.file:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
            except OSError as err:
                raise SystemExit(f"cannot read {path}: {err}")
            findings.extend(
                lint_source(source, path, waivers=waivers).findings
            )
    else:
        for design in _verify_targets(args.design):
            findings.extend(
                lint_source(design.source(), design.filename,
                            design.frontend, waivers=waivers,
                            params=design.params).findings
            )
    report = LintReport(findings)
    print(report.format_text())
    _write_json(args.json, report.to_json())
    return 0 if report.clean else 1


def _covered_report(design, backend: str, seed: int, cycles: int):
    from .hdl.common import CoverageOptions
    from .verify import CoverageCollector, Stimulus

    sim = design.make_sim(backend=backend, instrument=CoverageOptions())
    collector = CoverageCollector(sim)
    Stimulus("uniform", seed, cycles).apply(sim, collector)
    return collector.report()


def cmd_verify_cover(args: argparse.Namespace) -> int:
    import json as _json

    status = 0
    docs = []
    for design in _verify_targets(args.design):
        if args.backend == "both":
            interp = _covered_report(design, "interp", args.seed, args.cycles)
            report = _covered_report(design, "codegen", args.seed,
                                     args.cycles)
            a, b = interp.to_dict(), report.to_dict()
            a.pop("backend"), b.pop("backend")
            if a != b:
                print(f"{design.name}: COVERAGE MISMATCH between backends "
                      "(this is a simulator bug — please report it)")
                status = 1
                continue
            print(f"{design.name}: interp and codegen coverage identical")
        else:
            report = _covered_report(design, args.backend, args.seed,
                                     args.cycles)
        print(report.format_text())
        docs.append(report.to_dict())
    _write_json(args.json, _json.dumps(docs, indent=2, sort_keys=True))
    return status


def cmd_verify_fuzz(args: argparse.Namespace) -> int:
    import json as _json

    from .hdl.common import CoverageOptions
    from .verify import fuzz, save_corpus

    status = 0
    docs = []
    for design in _verify_targets(args.design):
        result = fuzz(
            lambda: design.make_sim(instrument=CoverageOptions()),
            seed=args.seed, runs=args.runs, cycles=args.cycles,
        )
        stmt = result.summary["statement"]
        print(f"{design.name}: fuzz seed={args.seed}: "
              f"{len(result.corpus)} corpus entries from {result.runs} "
              f"runs; statement {stmt['covered']}/{stmt['total']} "
              f"({stmt['pct']}%), "
              f"toggle {result.summary['toggle']['pct']}%")
        if args.corpus_dir:
            os.makedirs(args.corpus_dir, exist_ok=True)
            path = os.path.join(args.corpus_dir, f"{design.name}.json")
            save_corpus(path, design.name, args.seed, result)
            print(f"  corpus written to {path}")
        if args.min_statement is not None and \
                stmt["pct"] < args.min_statement:
            print(f"  FAIL: statement coverage {stmt['pct']}% below "
                  f"required {args.min_statement}%")
            status = 1
        docs.append({"design": design.name, "seed": args.seed,
                     "corpus": len(result.corpus), **result.summary})
    _write_json(args.json, _json.dumps(docs, indent=2, sort_keys=True))
    return status


def cmd_verify_equiv(args: argparse.Namespace) -> int:
    from .verify import check_equivalence, load_corpus

    status = 0
    for design in _verify_targets(args.design):
        corpus = []
        if args.corpus_dir:
            path = os.path.join(args.corpus_dir, f"{design.name}.json")
            if os.path.exists(path):
                corpus = load_corpus(path)
        result = check_equivalence(
            design.make_sim, design=design.name, stimuli=corpus,
            seed=args.seed, random_runs=args.runs, cycles=args.cycles,
        )
        print(result.format())
        if not result.ok:
            status = 1
    return status


def cmd_verify_coherence(args: argparse.Namespace) -> int:
    """MESI invariants under seeded random sharing, serial vs pooled."""
    from .coherence import ProtocolError, run_sharing_stress

    status = 0
    serial: dict[int, dict] = {}
    for n in args.sharers:
        try:
            result = run_sharing_stress(
                cores=n, ops=args.ops, seed=args.seed, rtl=args.rtl,
            )
        except (ProtocolError, TimeoutError) as err:
            print(f"sharers={n}: FAIL: {err}")
            status = 1
            continue
        serial[n] = result
        cycles = result["ticks"] // 500
        print(f"sharers={n}: invariants ok over {args.ops} ops/driver "
              f"({cycles} cycles), memory {result['memory']}")
    if args.jobs > 1 and serial:
        from .dse.sweep import run_coherence_sweep

        pooled = run_coherence_sweep(
            sharers=tuple(serial), ops=args.ops, seed=args.seed,
            rtl=args.rtl, jobs=args.jobs, keep_going=True,
        )
        for n, want in serial.items():
            got = pooled.get(n)
            if got is not None:
                got = {k: v for k, v in got.items() if k != "seconds"}
            if got != want:
                print(f"sharers={n}: FAIL: pooled run is not bit-identical "
                      "to the serial run")
                status = 1
            else:
                print(f"sharers={n}: pooled ({args.jobs} workers) "
                      "bit-identical to serial")
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .parallel import ResultCache
    from .serve import Scheduler, ServeServer, TenantRegistry

    cache = None if args.no_cache else ResultCache()
    tenants = (TenantRegistry.from_file(args.tenants)
               if args.tenants else TenantRegistry())
    scheduler = Scheduler(
        worker_jobs=args.jobs,
        fleet_slots=args.fleet,
        shard_points=args.shard_points,
        point_timeout=args.point_timeout,
        cache=cache,
        tenants=tenants,
        checkpoint_root=args.checkpoint_dir,
        maintenance_interval=args.maintenance_interval,
    )
    server = ServeServer(scheduler, host=args.host, port=args.port)

    async def _main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(f"repro serve listening on {server.address} "
              f"(fleet={args.fleet} x jobs={args.jobs}, "
              f"cache={'off' if cache is None else cache.root})",
              file=sys.stderr, flush=True)
        await server.wait_closed()
        print("repro serve: clean shutdown", file=sys.stderr)

    asyncio.run(_main())
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from .serve import ServeClient, ServeError

    params: dict = {}
    if args.params_json:
        params.update(args.params_json)
    for pair in args.param:
        if "=" not in pair:
            raise SystemExit(f"bad --param {pair!r}; expected NAME=VALUE")
        name, _, value = pair.partition("=")
        try:
            params[name] = _json.loads(value)
        except ValueError:
            # unquoted strings and comma lists are a CLI convenience
            params[name] = value.split(",") if "," in value else value
    client = ServeClient(args.url)
    try:
        job = client.submit(args.tenant, args.kind, params,
                            priority=args.priority)
        if not args.wait:
            print(_json.dumps(job, indent=2, sort_keys=True))
            return 0
        if args.events:
            for event in client.events(job["id"]):
                print(_json.dumps(event, sort_keys=True), file=sys.stderr)
                if event.get("type") == "state" and event.get("state") in (
                        "done", "failed", "cancelled"):
                    break
        status = client.wait(job["id"], timeout=args.timeout)
        if status["state"] == "done":
            print(_json.dumps(client.result(job["id"]),
                              indent=2, sort_keys=True))
            return 0
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 1
    except ServeError as err:
        print(f"submit failed: {err}", file=sys.stderr)
        return 3 if err.status == 429 else 1
    except (ConnectionError, OSError) as err:
        print(f"cannot reach {args.url}: {err}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="gem5+rtl reproduction: RTL models inside a "
                    "full-system simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an HDL file")
    p.add_argument("file", help=".v/.sv or .vhd/.vhdl source")
    p.add_argument("--top", default=None, help="top module/entity")
    p.add_argument("--param", action="append", default=[], type=_name_int,
                   metavar="NAME=INT", help="parameter/generic override")
    p.add_argument("--ticks", type=int, default=0,
                   help="free-run N cycles after reset")
    p.add_argument("--vcd", default=None, help="waveform output path")
    p.add_argument("--show-code", action="store_true",
                   help="print the generated model code")
    p.add_argument("--area", action="store_true",
                   help="print a structural LUT/FF area estimate")
    p.set_defaults(fn=cmd_compile)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan independent simulations over N "
                            "worker processes (default 1 = serial)")

    def add_trace_opts(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group("tracing (repro.trace)")
        g.add_argument("--debug-flags", default=None,
                       metavar="FLAG[,FLAG...]",
                       help="enable tracepoints, e.g. Cache,DRAM,RTL; "
                            "a name also enables its dotted children "
                            "(Cache lights Cache.MSHR)")
        g.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON "
                            "(load in ui.perfetto.dev)")
        g.add_argument("--trace-start", type=int, default=None,
                       metavar="CYC",
                       help="open the trace window at this cycle "
                            "(default: traced from the start)")
        g.add_argument("--trace-end", type=int, default=None,
                       metavar="CYC",
                       help="close the trace window at this cycle")

    def add_resilience_opts(p: argparse.ArgumentParser) -> None:
        g = p.add_argument_group("resilience (repro.resilience)")
        g.add_argument("--inject", default=None,
                       metavar="SPEC[,SPEC...]",
                       help="deterministic fault injection, e.g. "
                            "dram-drop@100 dram-delay@50:2000 "
                            "retry-storm@10000:5000 rtl-flip@20000:3 "
                            "(kind@trigger[:arg])")
        g.add_argument("--inject-seed", type=int, default=None, metavar="N",
                       help="generate a seeded random fault plan "
                            "(or seed --inject parsing)")
        g.add_argument("--watchdog", action="store_true",
                       help="attach the hang watchdog: raises a "
                            "SimulationHang with a structured report on "
                            "deadlock/livelock")
        g.add_argument("--watchdog-interval", type=int, default=None,
                       metavar="CYC",
                       help="watchdog progress-check interval in cycles "
                            "(default 50000; implies --watchdog)")
        g.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="CYC",
                       help="save a full-system checkpoint every N cycles")
        g.add_argument("--checkpoint-dir", default="benchmarks/out/ckpt",
                       metavar="DIR",
                       help="directory for --checkpoint-every snapshots")
        g.add_argument("--restore-from", default=None, metavar="PATH",
                       help="restore simulation state from a checkpoint "
                            "before running (system must be built with "
                            "the same configuration)")
        g.add_argument("--point-timeout", type=float, default=None,
                       metavar="SEC",
                       help="with --jobs > 1: kill and retry any sweep "
                            "point exceeding this wall-clock budget")
        g.add_argument("--keep-going", action="store_true",
                       help="record failed sweep points and continue "
                            "instead of aborting the whole sweep")

    p = sub.add_parser("fig5", help="PMU vs gem5 IPC series")
    p.add_argument("--n", type=int, default=200, help="sort size")
    p.add_argument("--intervals", "--interval", default="10000",
                   type=_int_list, dest="intervals", metavar="CYC[,CYC...]",
                   help="sampling interval(s); several run in parallel")
    p.add_argument("--rows", type=int, default=40)
    add_jobs(p)
    add_trace_opts(p)
    add_resilience_opts(p)
    p.set_defaults(fn=cmd_fig5)

    p = sub.add_parser("table2", help="PMU/waveform overheads")
    p.add_argument("--sizes", default="60,150,300", type=_int_list)
    add_jobs(p)
    add_trace_opts(p)
    add_resilience_opts(p)
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("dse", help="NVDLA design-space exploration")
    p.add_argument("--workload", choices=("sanity3", "googlenet"),
                   default="sanity3")
    p.add_argument("--nvdla", type=int, default=1)
    p.add_argument("--inflight", default="1,4,8,16,32,64,128,240",
                   type=_int_list)
    p.add_argument("--memories",
                   default="DDR4-1ch,DDR4-2ch,DDR4-4ch,GDDR5,HBM",
                   type=_memory_list)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the on-disk point cache "
                        "(benchmarks/out/cache)")
    add_jobs(p)
    add_trace_opts(p)
    add_resilience_opts(p)
    p.set_defaults(fn=cmd_dse)

    p = sub.add_parser("table3", help="full-system vs standalone overhead")
    add_jobs(p)
    add_trace_opts(p)
    add_resilience_opts(p)
    p.set_defaults(fn=cmd_table3)

    p = sub.add_parser(
        "campaign",
        help="fault-injection campaign with triage and AVF report",
    )
    p.add_argument("target", nargs="?", default=None,
                   help="campaign target name (see --list-targets)")
    p.add_argument("--list-targets", action="store_true",
                   help="list registered campaign targets and exit")
    p.add_argument("--budget", type=int, default=32, metavar="N",
                   help="number of fault-injection experiments "
                        "(default 32)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (same seed => same faults => "
                        "byte-identical report)")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="target parameter override (repeatable)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the full JSON vulnerability report here")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="CYC",
                   help="golden checkpoint cadence "
                        "(default: per-target)")
    p.add_argument("--max-cycles", type=int, default=None, metavar="CYC",
                   help="per-experiment cycle budget "
                        "(default: per-target)")
    p.add_argument("--watchdog-interval", type=int, default=2_000,
                   metavar="CYC",
                   help="hang-watchdog check interval (default 2000)")
    p.add_argument("--wall-timeout", type=float, default=600.0,
                   metavar="SEC",
                   help="per-experiment wall-clock budget "
                        "(default 600)")
    p.add_argument("--point-timeout", type=float, default=None,
                   metavar="SEC",
                   help="with --jobs > 1: kill and retry any "
                        "experiment exceeding this wall clock")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the shared result "
                        "cache (experiments always re-run)")
    add_jobs(p)
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "verify",
        help="RTL verification: lint, coverage, fuzz, equivalence",
    )
    vsub = p.add_subparsers(dest="verify_command", required=True)

    def add_design_arg(vp: argparse.ArgumentParser) -> None:
        vp.add_argument("design", nargs="*", default=[],
                        action=_DesignArg)

    vp = vsub.add_parser("lint", help="static lint (waivable findings)")
    add_design_arg(vp)
    vp.add_argument("--file", action="append", default=[], metavar="PATH",
                    help="lint an HDL file instead of a bundled design "
                         "(frontend chosen by extension; repeatable)")
    vp.add_argument("--waivers", default=None, metavar="PATH",
                    help="waiver file of RULE[:FILE_GLOB[:LINE]] entries")
    vp.add_argument("--json", default=None, metavar="PATH",
                    help="also write the findings as JSON")
    vp.set_defaults(fn=cmd_verify_lint)

    vp = vsub.add_parser(
        "cover", help="statement/toggle/FSM coverage report"
    )
    add_design_arg(vp)
    vp.add_argument("--backend", choices=("interp", "codegen", "both"),
                    default="both",
                    help="backend to run (both = also check the "
                         "cross-backend identity invariant)")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--cycles", type=int, default=256,
                    help="stimulus length in clock cycles")
    vp.add_argument("--json", default=None, metavar="PATH")
    vp.set_defaults(fn=cmd_verify_cover)

    vp = vsub.add_parser(
        "fuzz", help="coverage-guided fuzz (deterministic, seeded)"
    )
    add_design_arg(vp)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--runs", type=int, default=32)
    vp.add_argument("--cycles", type=int, default=64,
                    help="cycles per fuzz run")
    vp.add_argument("--corpus-dir", default=os.path.join(
                        "benchmarks", "out", "corpus"),
                    metavar="DIR",
                    help="persist the minimised corpus here "
                         "('' disables)")
    vp.add_argument("--min-statement", type=float, default=None,
                    metavar="PCT",
                    help="fail unless statement coverage reaches PCT%%")
    vp.add_argument("--json", default=None, metavar="PATH")
    vp.set_defaults(fn=cmd_verify_fuzz)

    vp = vsub.add_parser(
        "equiv", help="interp vs codegen lockstep equivalence"
    )
    add_design_arg(vp)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--runs", type=int, default=4,
                    help="extra random stimuli beyond corners + corpus")
    vp.add_argument("--cycles", type=int, default=64)
    vp.add_argument("--corpus-dir", default=os.path.join(
                        "benchmarks", "out", "corpus"),
                    metavar="DIR",
                    help="replay persisted fuzz corpora from here")
    vp.set_defaults(fn=cmd_verify_equiv)

    vp = vsub.add_parser(
        "coherence",
        help="MESI protocol invariants under seeded random sharing",
    )
    vp.add_argument("--sharers", default="2,4", type=_int_list,
                    metavar="LIST",
                    help="comma-separated sharer counts (default 2,4)")
    vp.add_argument("--ops", type=int, default=400,
                    help="random sharing ops per driver")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--rtl", action="store_true",
                    help="include the RTL cache as an extra coherence "
                         "participant (lockstep-checked)")
    vp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="also fan the sweep over N pool workers and "
                         "require bit-identical results")
    vp.set_defaults(fn=cmd_verify_coherence)

    p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service job server (repro.serve)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="pool workers per running job's shard "
                        "(default 2)")
    p.add_argument("--fleet", type=int, default=1, metavar="M",
                   help="jobs running concurrently; peak host load is "
                        "M x N workers (default 1)")
    p.add_argument("--shard-points", type=int, default=None, metavar="K",
                   help="points per shard — the preemption/progress "
                        "granularity (default: N, one pool wavefront)")
    p.add_argument("--point-timeout", type=float, default=None,
                   metavar="SEC",
                   help="kill and retry any point exceeding this wall "
                        "clock; hangs surface as job 'hang' events")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="root for per-shard REPRO_POINT_CKPT_DIR "
                        "checkpoint dirs (enables timeout-kill resume)")
    p.add_argument("--tenants", default=None, metavar="PATH",
                   help="JSON quota file: {\"default\": {...}, "
                        "\"tenants\": {NAME: {...}}}")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the shared ResultCache (every job "
                        "re-simulates; dedup of live jobs still works)")
    p.add_argument("--maintenance-interval", type=float, default=60.0,
                   metavar="SEC",
                   help="cache tmp-reap + terminal-job GC period")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job to a running repro serve instance",
    )
    p.add_argument("--url", default="http://127.0.0.1:8321")
    p.add_argument("--tenant", required=True)
    p.add_argument("--kind", required=True,
                   help="job kind, e.g. pmu_fig5 (GET /kinds lists them)")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="job parameter (JSON value, bare string, or "
                        "comma list; repeatable)")
    p.add_argument("--params-json", default=None, type=_json_object,
                   metavar="JSON",
                   help="job parameters as one JSON object")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--wait", action="store_true",
                   help="follow the job and print its result payload")
    p.add_argument("--events", action="store_true",
                   help="with --wait: mirror the event stream to stderr")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="give up waiting after this long")
    p.set_defaults(fn=cmd_submit)
    return parser


HANG_REPORT_PATH = os.path.join("benchmarks", "out", "hang-report.txt")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tracer = _setup_tracing(args)
    try:
        return args.fn(args)
    except TimeoutError as err:
        # SimulationHang: persist the structured report so CI (and
        # operators) can collect it alongside the last checkpoint.
        report = getattr(err, "report", None)
        if report is None:
            raise
        os.makedirs(os.path.dirname(HANG_REPORT_PATH), exist_ok=True)
        with open(HANG_REPORT_PATH, "w", encoding="utf-8") as fh:
            fh.write(report.format() + "\n")
        print(str(err), file=sys.stderr)
        print(f"hang report written to {HANG_REPORT_PATH}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            path = tracer.finish()
            if path:
                print(f"trace written to {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
