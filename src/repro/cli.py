"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``   compile a Verilog/VHDL file and print the elaborated design
              (optionally free-run it and dump a VCD)
``fig5``      PMU-vs-gem5 IPC series (paper Fig. 5)
``table2``    PMU / waveform simulation-time overheads (paper Table 2)
``dse``       one NVDLA design-space-exploration subfigure (Figs. 6/7)
``table3``    full-system vs standalone overheads (paper Table 3)
``campaign``  fault-injection campaign: golden run, triaged experiments,
              per-signal vulnerability report (repro.resilience.campaign)
``verify``    RTL verification: ``lint`` / ``cover`` / ``fuzz`` /
              ``equiv`` over the bundled designs, plus ``coherence``
              (MESI invariants under random sharing; repro.verify)
``serve``     run the simulation-as-a-service job server (repro.serve)
``submit``    submit a job to a running server and optionally wait

An experiment command's flags are its record's ``params`` rows, with
their defaults and checks, and their values are the request ``normalize``
reads, as a served job's are; the command adds its own flags and renders
the payload.  A subcommand adds its arguments when it is named, so only
the named record's module is imported.

The experiments build their :class:`~repro.soc.simobject.Simulation`
internally, so the tracing and resilience flags cannot attach to it
here.  They park ``hook(sim)`` callables on
:data:`repro.soc.simobject.startup_hooks` instead: the trace window in
:func:`main`, the resilience hooks when a sweep command starts.  The
first simulation that starts runs them in that order.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional


# argparse ``type=`` converters: a malformed value exits 2 with a usage
# line instead of a traceback from inside a command.

def _name_value(pair: str) -> tuple[str, str]:
    """``"W=0x10"`` -> ``("W", "0x10")``."""
    name, sep, value = pair.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"bad --param {pair!r}; expected NAME=VALUE")
    return name, value


def _name_int(pair: str) -> tuple[str, int]:
    """``"W=0x10"`` -> ``("W", 16)``."""
    name, value = _name_value(pair)
    try:
        return name, int(value, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --param {pair!r}; expected NAME=INT") from None


def _json_object(text: str) -> dict:
    import json

    try:
        value = json.loads(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not valid JSON: {err}") from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"{text!r} is not a JSON object")
    return value


class _Command(argparse.ArgumentParser):
    """A subcommand that adds its arguments, ``add_arguments(parser)``,
    when it is named: an experiment's come from its record's module."""

    add_arguments = None

    def parse_known_args(self, args=None, namespace=None):
        if self.add_arguments is not None:
            add, self.add_arguments = self.add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _add_param(parser: argparse.ArgumentParser, row) -> None:
    """*row*'s flag: a ``dict`` row repeats ``NAME=VALUE``, a choice is
    argparse's, any other value is checked as ``normalize`` checks it
    (a ``many`` row's as a comma list)."""
    def parse(text: str):
        items = [item.strip() for item in text.split(",") if item.strip()]
        try:
            value = row.check(items if row.many else text, "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {row.want}, got {text!r}") from None
        return tuple(value) if row.many else value

    kw = {"default": row.default, "type": parse}
    if row.kind is dict:
        kw = {"action": "append", "default": [], "type": _name_value}
    elif row.choices is not None and not row.many:
        kw = {"default": row.default, "choices": row.choices}
    if not row.flags[0].startswith("-"):
        kw["nargs"] = "?"
    parser.add_argument(*row.flags, help=row.help, metavar=row.metavar, **kw)


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
    from .rtl.simulator import RTLSimulator
    from .rtl.vcd import VCDWriter

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
    """Arm the repro.trace layer from ``--debug-flags``/``--trace-*``
    (:func:`repro.trace.control.arm`); returns its Chrome tracer, if any."""
    spec, out, start, end = (getattr(args, name, None) for name in (
        "debug_flags", "trace_out", "trace_start", "trace_end"))
    if spec and spec.strip() == "?":
        _list_debug_flags()
        raise SystemExit(0)
    if not spec and not out and start is None and end is None:
        return None
    from .trace.control import arm

    return arm(spec, out, start, end)


def _setup_resilience(args: argparse.Namespace) -> None:
    """Park ``--inject``/``--watchdog``/``--checkpoint-*``/``--restore-from``
    as one :func:`repro.resilience.control.arm` hook."""
    seed = args.inject_seed
    plan = watchdog = checkpoints = None
    if args.inject or seed is not None:
        from .resilience.faults import FaultPlan

        if args.inject:
            try:
                plan = FaultPlan.parse(args.inject.split(","), seed=seed or 0)
            except ValueError as err:
                print(f"repro: --inject: {err}", file=sys.stderr)
                raise SystemExit(2)
        else:
            plan = FaultPlan.generate(seed)
            print(f"injecting generated plan (seed={seed}): "
                  f"{', '.join(f.spec() for f in plan.faults)}",
                  file=sys.stderr)
    if args.watchdog or args.watchdog_interval is not None:
        watchdog = {}
        if args.watchdog_interval is not None:
            watchdog["check_cycles"] = args.watchdog_interval
    if args.checkpoint_every:
        checkpoints = (args.checkpoint_every, args.checkpoint_dir)
    if (plan is not None or watchdog is not None or checkpoints
            or args.restore_from):
        from .resilience.control import park

        park(plan, watchdog=watchdog, checkpoints=checkpoints,
             restore=args.restore_from or None)


def _params(args: argparse.Namespace):
    """The command's record, and the canonical params its flags name."""
    from .experiment import get

    exp, request = get(args.record), {}
    for row in exp.params:
        if row.flags:
            value = getattr(args, row.dest)
            request[row.name] = dict(value) if row.kind is dict else value
    return exp, exp.normalize(request)


def _run_experiment(args: argparse.Namespace, cache: bool = False,
                    total=None):
    """Run the command's record; returns the canonical params, the
    payload and the ResultCache it went through (None: none).

    Parks the resilience hooks, paints progress over the record's points
    (or ``total(params)``) and summarises retries on stderr.  *cache* is
    the command's default, which ``--no-cache`` turns off; a run that
    parked a hook (``--inject``, the watchdog, a trace window, ...) is
    not the clean run its cache keys name, so it does not use the cache.
    """
    from . import experiment
    from .parallel.cache import ResultCache
    from .parallel.progress import ProgressReporter
    from .parallel.runner import RunStats
    from .soc.simobject import startup_hooks

    exp, params = _params(args)
    if hasattr(args, "inject"):  # campaign's --checkpoint-every is its own
        _setup_resilience(args)
    store = None
    if cache and not args.no_cache and not startup_hooks:
        store = ResultCache()
    stats = RunStats()
    points = total(params) if total else len(exp.points(params))
    payload = experiment.run(
        exp, params, jobs=args.jobs, cache=store,
        point_timeout=args.point_timeout,
        # campaign has no --keep-going: a failed experiment is an infra row
        keep_going=getattr(args, "keep_going", True),
        progress=ProgressReporter(points, label=args.command), stats=stats)
    if stats.summary() is not None:
        print(stats.summary(), file=sys.stderr)
    return params, payload, store


def cmd_fig5(args: argparse.Namespace) -> int:
    from .dse.pmu_experiment import Fig5Result
    from .dse.render import render_fig5

    exp, p = _params(args)
    if len(p["intervals"]) == 1:
        # in-process: a SimulationHang reaches main() as itself
        _setup_resilience(args)
        series = [exp.worker(point) for point in exp.points(p)]
    else:
        series = list(_run_experiment(args)[1]["series"].values())
    for one in series:
        if len(series) > 1:
            print(f"\n== sampling interval: {one['interval']} cycles ==")
        print(render_fig5(Fig5Result.from_dict(one), max_rows=args.rows))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from .dse.pmu_experiment import Table2Row
    from .dse.render import render_table2

    _, rows, _ = _run_experiment(args)
    print(render_table2(Table2Row(**row) for row in rows))
    return 0


def cmd_dse(args: argparse.Namespace) -> int:
    import time

    from .dse.render import render_dse
    from .dse.sweep import DSEResult

    t0 = time.perf_counter()
    p, payload, cache = _run_experiment(args, cache=True)
    result = DSEResult.from_payload(
        payload, wall_seconds=time.perf_counter() - t0, jobs=args.jobs,
        cache_hits=cache.stats.hits if cache is not None else 0)
    print(render_dse(result, inflight_sweep=p["inflight"]))
    line = (f"\n({result.wall_seconds:.1f}s wall for {result.points} "
            f"simulations at jobs={args.jobs}")
    if cache is not None:
        line += (f"; cache: {cache.stats.hits} hit(s), "
                 f"{cache.stats.misses} miss(es) under {cache.root}")
    print(line + ")")
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from .dse.render import render_table3
    from .dse.sweep import Table3Result

    _, rows, _ = _run_experiment(args)
    print(render_table3(Table3Result(**row) for row in rows))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .resilience.campaign import render_report, render_summary
    from .resilience.targets import TARGETS

    if args.list_targets:
        width = max(map(len, TARGETS))
        for name, target in sorted(TARGETS.items()):
            defaults = ", ".join(f"{k}={v}" for k, v in
                                 sorted(target.defaults.items()))
            print(f"{name:<{width}}  {target.description}\n"
                  f"{'':<{width}}  defaults: {defaults}")
        return 0
    if not args.target:
        print("repro: campaign: a TARGET is required "
              "(see --list-targets)", file=sys.stderr)
        return 2

    try:
        _, report, _ = _run_experiment(
            args, cache=True, total=lambda cfg: cfg["budget"])
    except ValueError as err:
        print(f"repro: campaign: {err}", file=sys.stderr)
        return 2
    print(render_summary(report))
    if args.report:
        os.makedirs(os.path.dirname(args.report) or ".", exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
        print(f"report written to {args.report}")
    return 0


def _verify_targets(names: list[str]):
    """Resolve design-name arguments (empty = every bundled design)."""
    from .verify.designs import design_names, get_design

    if not names:
        names = design_names()
    try:
        return [get_design(n) for n in names]
    except ValueError as err:
        raise SystemExit(str(err))


def _load_waivers(path: Optional[str]):
    from .verify.findings import parse_waiver_file

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
    from .verify.findings import LintReport
    from .verify.lint import lint_source

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
    from .verify.coverage import CoverageCollector
    from .verify.stimulus import Stimulus

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
    from .verify.stimulus import fuzz, save_corpus

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
    from .verify.equiv import check_equivalence
    from .verify.stimulus import load_corpus

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
    from .coherence.check import run_sharing_stress
    from .coherence.protocol import ProtocolError

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
        from .dse.sweep import COHERENCE
        from .experiment import run

        pooled = run(COHERENCE, {"sharers": list(serial), "ops": args.ops,
                                 "seed": args.seed, "rtl": args.rtl},
                     jobs=args.jobs, keep_going=True)
        for n, want in serial.items():
            got = pooled.get(str(n))
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
    import importlib
    import signal

    # load the simulator core before announcing the port, so a passing
    # /healthz means the first job runs at full speed instead of paying
    # these imports inside its own wall time
    for mod in ("repro.soc.system", "repro.bridge.rtl_object",
                "repro.rtl.simulator"):
        importlib.import_module(mod)
    from .parallel.cache import ResultCache
    from .serve.scheduler import Scheduler
    from .serve.server import ServeServer
    from .serve.tenants import TenantRegistry

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

    from .serve.client import ServeClient, ServeError

    params: dict = {}
    if args.params_json:
        params.update(args.params_json)
    for name, value in args.param:
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
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Command)

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

    def add_experiment(name: str, help: str, fn, record: str = "",
                       flags=(), sweep: bool = True) -> None:
        """Command *name* runs *record* (default: *name*): its table's
        flags, then its own ``(flag, keywords)``, jobs and, for a sweep,
        tracing and resilience."""
        def add_arguments(p: argparse.ArgumentParser) -> None:
            from .experiment import get

            for row in get(record or name).params:
                if row.flags:
                    _add_param(p, row)
            for flag, kw in flags:
                p.add_argument(flag, **kw)
            add_jobs(p)
            if sweep:
                add_trace_opts(p)
                add_resilience_opts(p)
            p.set_defaults(fn=fn, record=record or name)

        sub.add_parser(name, help=help).add_arguments = add_arguments

    add_experiment("fig5", "PMU vs gem5 IPC series", cmd_fig5, "pmu_fig5",
                   [("--rows", {"type": int, "default": 40})])
    add_experiment("table2", "PMU/waveform overheads", cmd_table2)
    add_experiment("dse", "NVDLA design-space exploration", cmd_dse, flags=[
        ("--no-cache", {"action": "store_true", "help": "ignore and do not "
                        "write the on-disk point cache (benchmarks/out/cache)"})])
    add_experiment("table3", "full-system vs standalone overhead", cmd_table3)
    add_experiment(
        "campaign", "fault-injection campaign with triage and AVF report",
        cmd_campaign, sweep=False, flags=[
            ("--list-targets", {
                "action": "store_true",
                "help": "list registered campaign targets and exit"}),
            ("--report", {
                "metavar": "PATH",
                "help": "write the full JSON vulnerability report here"}),
            ("--point-timeout", {
                "type": float, "metavar": "SEC",
                "help": "with --jobs > 1: kill and retry any experiment "
                        "exceeding this wall clock"}),
            ("--no-cache", {
                "action": "store_true",
                "help": "ignore and do not write the shared result cache "
                        "(experiments always re-run)"})])

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

    def add_coherence_arguments(vp: argparse.ArgumentParser) -> None:
        from .experiment import get

        for row in get("coherence").params:
            if row.flags:
                _add_param(vp, row)
        vp.add_argument("--rtl", action="store_true",
                        help="include the RTL cache as an extra coherence "
                             "participant (lockstep-checked)")
        vp.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="also fan the sweep over N pool workers and "
                             "require bit-identical results")
        vp.set_defaults(fn=cmd_verify_coherence)

    vsub.add_parser(
        "coherence",
        help="MESI protocol invariants under seeded random sharing",
    ).add_arguments = add_coherence_arguments

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
                        "checkpoint dirs (no bundled job kind resumes "
                        "from them yet)")
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
                   type=_name_value, metavar="NAME=VALUE",
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
