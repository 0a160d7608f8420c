"""Soft-error fault-injection campaigns with automated outcome triage.

A campaign answers the reliability question the paper's full-system RTL
integration makes possible: *what happens to the system when one bit of
this hardware block flips under real traffic?*  The flow:

1. **Golden run** — the target rig runs fault-free once per
   ``(target, params)`` configuration, recording its architectural
   observables digest, a ladder of periodic checkpoints (with the
   *actual* save ticks — IO vetoes can slide a save past its nominal
   cycle) with the canonical state digest of each rung
   (:func:`~repro.resilience.serialize.canonical_digest`), and where
   its last grid window without watchdog progress ends.
2. **Fault-space enumeration** — every flip target is a
   ``(signal, bit, cycle)`` triple drawn from the elaborated design's
   signal table (:func:`~repro.resilience.faults.flip_targets`), so a
   sample resolves to the same flop on every backend and ``-O`` level.
3. **Experiments** — each sampled fault restores the newest golden
   checkpoint strictly before its injection cycle, fast-forwards,
   flips, and runs under a hang watchdog, a simulated cycle budget, and
   a host wall-clock backstop — to completion, or to the first rung
   after the flip whose digest equals golden's while the watchdog
   provably cannot trip (:func:`_rejoin_check`).  From there the run
   would be golden's, so it ends ``masked`` with golden's detection
   counters: exactly what running on would report.
4. **Triage** — outcomes are classified as ``masked`` (observables
   match golden), ``sdc`` (they diverge), ``detected_corrected``
   (observables match and a detection counter moved), ``detected_hang``
   (watchdog report / budget trip), or ``crash`` (the simulated system
   raised).  Infrastructure failures (worker death, host OOM) are
   retried by the runner and reported as ``infra`` if they persist —
   never miscounted as simulated crashes, never cached.

:data:`CAMPAIGN` is the campaign's :class:`~repro.experiment.Experiment`
record: experiments fan out through :func:`repro.experiment.run` (or a
serve job); each result is content-addressed in the
:class:`~repro.parallel.cache.ResultCache` so a killed campaign resumes
without re-executing finished experiments.
The per-signal vulnerability report carries AVF estimates with Wilson
95 % confidence intervals.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import tempfile
import time
from typing import Callable, Optional

from ..experiment import Experiment, Param, run
from ..parallel.cache import code_version
from ..soc.simobject import CycleBudgetExceeded, WallClockExceeded
from .control import PeriodicCheckpointer
from .faults import Fault, FaultInjector, FaultPlan, flip_targets
from .serialize import canonical_digest
from .targets import (
    GRID_DRAIN_CYCLES,
    GRID_STEP_CYCLES,
    CampaignTarget,
    get_target,
    normalize_params,
)
from .watchdog import SimulationHang, Watchdog

#: test hook: False runs every experiment to its end, rejoined or not
STOP_AT_CONVERGENCE = True

#: triage classes, in report order
OUTCOMES = (
    "masked",
    "sdc",
    "detected_corrected",
    "detected_hang",
    "crash",
    "infra",
)

#: outcomes that count toward the architectural vulnerability factor
VULNERABLE = ("sdc", "detected_hang", "crash")

CAMPAIGN_DIR_ENV = "REPRO_CAMPAIGN_DIR"
_STALE_LOCK_S = 300.0


# ---------------------------------------------------------------------------
# Fault-space sampling
# ---------------------------------------------------------------------------


def sample_faults(
    module,
    budget: int,
    seed: int,
    max_cycle: int,
) -> list[tuple[str, int, int]]:
    """Seeded stratified sample of ``(signal, bit, cycle)`` triples.

    Stratification is round-robin over the name-sorted flip targets
    (flops and memory words alike), so every signal is visited before
    any is visited twice; bit and cycle within each visit come from a
    single :class:`random.Random` consumed in a fixed order — the
    sample is a pure function of (design, budget, seed, max_cycle), and
    every cycle falls in ``[1, max_cycle)``.
    """
    targets = flip_targets(module, include_memories=True)
    if not targets:
        raise ValueError("design has no flip targets")
    if budget < 1:
        raise ValueError("campaign budget must be >= 1")
    hi = max(max_cycle, 2)
    rng = random.Random(seed)
    samples = []
    for slot in range(budget):
        name, width = targets[slot % len(targets)]
        bit = rng.randrange(width)
        cycle = rng.randrange(1, hi)
        samples.append((name, bit, cycle))
    return samples


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95 % confidence interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    z = 1.96
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# Golden run
# ---------------------------------------------------------------------------


def campaign_root(target: CampaignTarget, params: dict,
                  checkpoint_every: int, max_cycles: int) -> str:
    """Shared, content-addressed directory for one campaign configuration.

    Keyed on everything that shapes the golden execution — including the
    code version, so stale checkpoints can never be restored into a
    changed object tree.
    """
    base = os.environ.get(
        CAMPAIGN_DIR_ENV, os.path.join("benchmarks", "out", "campaign")
    )
    payload = json.dumps(
        {
            "target": target.name,
            "params": params,
            "checkpoint_every": checkpoint_every,
            "max_cycles": max_cycles,
            "code": code_version(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    return os.path.join(base, f"{target.name}-{digest}")


def _read_golden(root: str) -> Optional[dict]:
    try:
        with open(os.path.join(root, "golden.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):
        return None


def _last_stall_end(progress: list) -> int:
    """End tick of the last grid window across which the watchdog's
    progress vector did not change (0: none) — the earliest tick from
    which an experiment may stop (:func:`_rejoin_check`)."""
    end = 0
    for (_t0, before), (t1, after) in zip(progress, progress[1:]):
        if before == after:
            end = t1
    return end


def _run_golden(root: str, target: CampaignTarget, params: dict,
                checkpoint_every: int, max_cycles: int) -> dict:
    rig = target.build(params)
    try:
        digests: list[str] = []
        progress: list = []
        ckpt = PeriodicCheckpointer(
            rig.sim, every_cycles=checkpoint_every,
            directory=os.path.join(root, "ckpt"),
            on_rung=lambda doc: digests.append(canonical_digest(doc)),
        )
        try:
            end_tick = rig.run(max_cycles, progress=progress)
        except Exception as err:
            raise RuntimeError(
                f"golden run of target {target.name!r} did not complete: "
                f"{type(err).__name__}: {err}"
            ) from err
        return {
            "target": target.name,
            "params": params,
            "observables": rig.observables(),
            "detection": rig.detection(),
            "end_cycle": end_tick // rig.sim.default_clock.period,
            "checkpoints": [[path, tick] for path, tick in ckpt.manifest],
            "digests": digests,
            "last_stall_end": _last_stall_end(progress),
        }
    finally:
        rig.finish()


def ensure_golden(root: str, target: CampaignTarget, params: dict,
                  checkpoint_every: int, max_cycles: int) -> dict:
    """Return the campaign's golden record, running it if needed.

    Concurrent campaign processes (CLI + serve workers) coordinate via
    a ``mkdir``-based lock: one runs the golden, the rest wait on the
    atomically-renamed ``golden.json``.  A lock older than
    ``_STALE_LOCK_S`` is presumed orphaned by a killed writer and
    stolen.
    """
    golden_path = os.path.join(root, "golden.json")
    lock = os.path.join(root, "golden.lock")
    os.makedirs(root, exist_ok=True)
    while True:
        existing = _read_golden(root)
        if existing is not None:
            return existing
        try:
            os.mkdir(lock)
        except FileExistsError:
            try:
                age = time.time() - os.path.getmtime(lock)
            except OSError:
                continue  # lock vanished between mkdir and stat
            if age > _STALE_LOCK_S:
                try:
                    os.rmdir(lock)
                except OSError:
                    pass
            else:
                time.sleep(0.1)
            continue
        try:
            golden = _run_golden(root, target, params,
                                 checkpoint_every, max_cycles)
            fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(golden, fh, sort_keys=True)
            os.replace(tmp, golden_path)
            return golden
        finally:
            try:
                os.rmdir(lock)
            except OSError:
                pass


def _best_checkpoint(golden: dict, inject_tick: int) -> Optional[str]:
    """Newest golden checkpoint saved strictly before the injection tick."""
    best_path, best_tick = None, -1
    for path, tick in golden.get("checkpoints", ()):
        if best_tick < tick < inject_tick and os.path.exists(path):
            best_path, best_tick = path, tick
    return best_path


# ---------------------------------------------------------------------------
# One experiment (module-level: must be picklable for the worker pool)
# ---------------------------------------------------------------------------


class _Rejoined(Exception):
    """Raised at the rung where an experiment's state is golden's again;
    ``args[0]`` is the rung's tick."""


def _rejoin_check(golden: dict, inject_tick: int, watchdog: Watchdog,
                  observers: tuple) -> Optional[Callable[[dict], None]]:
    """The experiment checkpointer's ``on_rung``, or None if no rung of
    this campaign may end an experiment.

    A rung ends it (raises :class:`_Rejoined`) when (i) it is after the
    injection, (ii) its canonical digest equals golden's at the same
    tick, and (iii) the watchdog has no strikes and golden's progress
    vector changed across every grid window that ends after the rung.
    (iii) proves the watchdog cannot trip on the rest of the run only
    while the grid relations below hold (DESIGN.md "A masked flip ends
    where it rejoins golden"); otherwise nothing stops early.
    """
    span = (watchdog.stall_checks - 1) * watchdog.check_cycles
    if not (STOP_AT_CONVERGENCE
            and 2 * GRID_STEP_CYCLES <= span
            and GRID_STEP_CYCLES + GRID_DRAIN_CYCLES < span):
        return None
    rungs = {tick: digest for (_path, tick), digest
             in zip(golden["checkpoints"], golden["digests"])}
    quiet_from = max(inject_tick + 1, golden["last_stall_end"])

    def on_rung(doc: dict) -> None:
        tick = doc["meta"]["tick"]
        if (tick >= quiet_from and watchdog.strikes == 0
                and rungs.get(tick) == canonical_digest(doc, observers)):
            raise _Rejoined(tick)

    return on_rung


def run_experiment(point: tuple) -> dict:
    """Restore, fast-forward, inject one flip, run until the outcome is
    decided, triage."""
    (target_name, params_json, signal, bit, cycle, root,
     checkpoint_every, max_cycles, watchdog_interval, wall_timeout) = point
    target = get_target(target_name)
    params = json.loads(params_json)
    golden = ensure_golden(root, target, params, checkpoint_every, max_cycles)
    wall_deadline = (
        time.monotonic() + wall_timeout if wall_timeout else None
    )
    result = {"signal": signal, "bit": bit, "cycle": cycle}
    rig = None
    try:
        rig = target.build(params)
        # Same object tree as the golden run (rig + checkpointer), so
        # golden checkpoints restore cleanly; the experiment's rungs are
        # compared with golden's, not written.
        ckpt = PeriodicCheckpointer(rig.sim, every_cycles=checkpoint_every,
                                    directory=None)
        rig.sim.startup()
        inject_tick = cycle * rig.sim.default_clock.period
        resume = _best_checkpoint(golden, inject_tick)
        if resume is not None:
            rig.sim.restore(resume)
        # Observers attach after the restore (they are not part of the
        # checkpointed tree), in a fixed order.
        plan = FaultPlan([Fault("rtl-flip", cycle, bit, signal=signal)])
        watchdog = Watchdog(rig.sim, check_cycles=watchdog_interval)
        injector = FaultInjector(rig.sim, plan, absolute_cycles=True)
        for obj in (watchdog, injector):
            obj.init()
            obj.startup()
        ckpt.on_rung = _rejoin_check(golden, inject_tick, watchdog,
                                     (watchdog.path(), injector.path()))
        try:
            rig.run(max_cycles, wall_deadline=wall_deadline)
        except _Rejoined:
            result["outcome"] = "masked"
            if golden["detection"]:
                result["detection"] = golden["detection"]
            return result
        except SimulationHang as hang:
            result.update(
                outcome="detected_hang",
                hang_kind=hang.report.kind,
                hang=json.loads(hang.report.to_json()),
            )
            return result
        except CycleBudgetExceeded as err:
            result.update(outcome="detected_hang",
                          hang_kind="cycle-budget", detail=str(err))
            return result
        except WallClockExceeded as err:
            result.update(outcome="detected_hang",
                          hang_kind="wall-clock", detail=str(err))
            return result
        except Exception as err:  # the *simulated* system fell over
            result.update(
                outcome="crash",
                error=f"{type(err).__name__}: {err}",
            )
            return result
        obs = rig.observables()
        det = rig.detection()
        if obs == golden["observables"]:
            if det != golden.get("detection", {}):
                result["outcome"] = "detected_corrected"
            else:
                result["outcome"] = "masked"
        else:
            result["outcome"] = "sdc"
            result["observables"] = obs
        if det:
            result["detection"] = det
        return result
    finally:
        if rig is not None:
            try:
                rig.finish()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# Campaign orchestration
# ---------------------------------------------------------------------------


def campaign_config(target: Optional[str] = None, **request) -> dict:
    """Canonical campaign configuration: :data:`CAMPAIGN`'s normalize,
    so the CLI, serve and direct callers name a campaign one way."""
    return CAMPAIGN.normalize({"target": target, **request})


def _target_rules(cfg: dict) -> dict:
    """The target is required; its own defaults fill ``params`` and an
    unset checkpoint cadence or cycle budget."""
    if cfg["target"] is None:
        raise ValueError("campaign: 'target' is required")
    spec = get_target(cfg["target"])
    cfg["params"] = normalize_params(spec, cfg["params"])
    cfg["checkpoint_every"] = cfg["checkpoint_every"] or spec.checkpoint_every
    cfg["max_cycles"] = cfg["max_cycles"] or spec.max_cycles
    return cfg


def _golden(cfg: dict) -> tuple[str, dict]:
    """The configuration's campaign root and golden record."""
    target = get_target(cfg["target"])
    root = campaign_root(target, cfg["params"],
                         cfg["checkpoint_every"], cfg["max_cycles"])
    return root, ensure_golden(root, target, cfg["params"],
                               cfg["checkpoint_every"], cfg["max_cycles"])


def campaign_points(cfg: dict) -> list[tuple]:
    """Golden-run the configuration and enumerate its experiment points.

    Each point is a flat picklable tuple consumed by
    :func:`run_experiment`; the sample window is the golden run's own
    length, so injections always land in live execution.
    """
    root, golden = _golden(cfg)
    max_cycle = max(2, int(golden["end_cycle"] * 0.9))
    module = get_target(cfg["target"]).module(cfg["params"])
    faults = sample_faults(module, cfg["budget"], cfg["seed"], max_cycle)
    params_json = json.dumps(cfg["params"], sort_keys=True,
                             separators=(",", ":"))
    return [
        (cfg["target"], params_json, signal, bit, cycle, root,
         cfg["checkpoint_every"], cfg["max_cycles"],
         cfg["watchdog_interval"], cfg["wall_timeout"])
        for signal, bit, cycle in faults
    ]


def campaign_point_fields(cfg: dict, point: tuple) -> dict:
    """Cache-key fields for one experiment point.

    Deliberately excludes the campaign root (host-local path) and the
    wall-clock budget (an infra backstop, not part of the simulated
    outcome) so CLI and serve runs share cache entries.
    """
    _target, _params_json, signal, bit, cycle, _root, ckpt, cycles, wd, _wall = point
    return {
        "experiment": "campaign_point",
        "target": cfg["target"],
        "params": cfg["params"],
        "fault": {"signal": signal, "bit": bit, "cycle": cycle},
        "checkpoint_every": ckpt,
        "max_cycles": cycles,
        "watchdog_interval": wd,
    }


def triage_event(point: tuple, result: dict) -> dict:
    """Compact per-experiment event for streaming (serve job log)."""
    _target, _params_json, signal, bit, cycle = point[:5]
    event = {"signal": signal, "bit": bit, "cycle": cycle,
             "outcome": result.get("outcome", "infra")}
    if "hang_kind" in result:
        event["hang_kind"] = result["hang_kind"]
    return event


def vulnerability_report(cfg: dict, golden: dict,
                         results: list[dict]) -> dict:
    """Per-signal AVF report with Wilson CIs and outcome histograms.

    Memory words aggregate under their memory name (``counters[3]`` →
    ``counters``); ``infra`` results are excluded from every AVF
    denominator.  The report contains no wall-clock or host-specific
    data — identical campaigns produce identical bytes.
    """
    totals = {o: 0 for o in OUTCOMES}
    per_signal: dict[str, dict] = {}
    for res in results:
        outcome = res["outcome"]
        totals[outcome] += 1
        base = res["signal"].partition("[")[0]
        entry = per_signal.setdefault(
            base, {"samples": 0, "histogram": {o: 0 for o in OUTCOMES}}
        )
        entry["samples"] += 1
        entry["histogram"][outcome] += 1
    for entry in per_signal.values():
        hist = entry["histogram"]
        n = entry["samples"] - hist["infra"]
        k = sum(hist[o] for o in VULNERABLE)
        low, high = wilson_interval(k, n)
        entry["valid_samples"] = n
        entry["vulnerable"] = k
        entry["avf"] = round(k / n, 6) if n else None
        entry["avf_ci95"] = [round(low, 6), round(high, 6)]
    n_valid = len(results) - totals["infra"]
    k_vuln = sum(totals[o] for o in VULNERABLE)
    low, high = wilson_interval(k_vuln, n_valid)
    return {
        "campaign": dict(cfg),
        "golden": {
            "observables": golden["observables"],
            "detection": golden.get("detection", {}),
            "end_cycle": golden["end_cycle"],
        },
        "experiments": [
            {key: res[key] for key in sorted(res)} for res in results
        ],
        "histogram": totals,
        "valid_samples": n_valid,
        "avf": round(k_vuln / n_valid, 6) if n_valid else None,
        "avf_ci95": [round(low, 6), round(high, 6)],
        "signals": {name: per_signal[name] for name in sorted(per_signal)},
    }


def render_report(report: dict) -> str:
    """Canonical report bytes (the determinism contract's unit)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_summary(report: dict) -> str:
    """The report as text: outcomes, the AVF and one row per signal."""
    cfg, hist = report["campaign"], report["histogram"]
    parts = ", ".join(f"{name} {hist[name]}" for name in hist if hist[name])
    lines = [f"campaign: {cfg['target']} seed={cfg['seed']} "
             f"budget={cfg['budget']}", f"outcomes: {parts or 'none'}"]
    low, high = report["avf_ci95"]
    if report["avf"] is not None:
        lines.append(f"AVF: {report['avf']:.4f} (95% CI [{low:.4f}, "
                     f"{high:.4f}] over {report['valid_samples']} "
                     "experiments)")
    width = max((len(name) for name in report["signals"]), default=6)
    lines.append(f"{'signal':<{width}}  {'n':>4}  {'vuln':>4}  "
                 f"{'avf':>7}  ci95")
    for name, entry in report["signals"].items():
        avf, (low, high) = entry["avf"], entry["avf_ci95"]
        lines.append(f"{name:<{width}}  {entry['valid_samples']:>4}  "
                     f"{entry['vulnerable']:>4}  "
                     f"{'-' if avf is None else f'{avf:>7.4f}'}  "
                     f"[{low:.4f}, {high:.4f}]")
    return "\n".join(lines)


def _campaign_report(cfg: dict, results: list) -> dict:
    return vulnerability_report(cfg, _golden(cfg)[1], [
        # a failure the runner's retries could not heal is infra
        res if isinstance(res, dict) else {
            **dict(zip(("signal", "bit", "cycle"), res.point[2:5])),
            "outcome": "infra", "error": res.last_error}
        for res in results
    ])


#: A fault campaign: the payload is the vulnerability report.  Points
#: come from :func:`campaign_points` (which runs, or waits on, the
#: golden execution).  Every caller runs it with ``keep_going``: what
#: the runner's retries cannot heal is reported as ``infra``, never
#: cached.
CAMPAIGN = Experiment(
    name="campaign",
    params=(
        Param("target", None, str, flags=("target",),
              help="campaign target name (see --list-targets)"),
        Param("budget", 32, flags=("--budget",), metavar="N",
              help="number of fault-injection experiments "
                   "(default %(default)s)"),
        Param("seed", 0, above=None, flags=("--seed",),
              help="sampling seed (same seed => same faults => "
                   "byte-identical report)"),
        Param("params", None, dict, flags=("--param",), metavar="NAME=VALUE",
              help="target parameter override (repeatable)"),
        Param("checkpoint_every", None, flags=("--checkpoint-every",),
              metavar="CYC", help="golden checkpoint cadence "
                                  "(default: per-target)"),
        Param("max_cycles", None, flags=("--max-cycles",), metavar="CYC",
              help="per-experiment cycle budget (default: per-target)"),
        Param("watchdog_interval", 2_000, flags=("--watchdog-interval",),
              metavar="CYC",
              help="hang-watchdog check interval (default %(default)s)"),
        Param("wall_timeout", 600.0, float, flags=("--wall-timeout",),
              metavar="SEC", help="per-experiment wall-clock budget "
                                  "(default %(default)g)"),
    ),
    rules=_target_rules,
    points=campaign_points,
    worker=run_experiment,
    point_fields=campaign_point_fields,
    assemble=_campaign_report,
    point_event=lambda cfg, point, result: triage_event(point, result),
)


def run_campaign(target_name: str, *, jobs: int = 1, cache=None,
                 stats=None, **config) -> dict:
    """Run a full campaign; returns the vulnerability report dict.

    *config* holds the rest of a :data:`CAMPAIGN` request (``params``,
    ``budget``, ``seed``, ``checkpoint_every``, ...).  This front over
    :func:`~repro.experiment.run` exists because ``bench/`` calls it by
    name.
    """
    return run(CAMPAIGN, {"target": target_name, **config}, jobs=jobs,
               cache=cache, keep_going=True, stats=stats)
