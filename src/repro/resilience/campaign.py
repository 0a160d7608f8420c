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

Experiments fan out through :func:`repro.parallel.runner.run_points`; each
result is content-addressed in the :class:`~repro.parallel.cache.ResultCache`
so a killed campaign resumes without re-executing finished experiments.
The per-signal vulnerability report carries AVF estimates with Wilson
95 % confidence intervals.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import tempfile
import time
from typing import Callable, Optional

from ..parallel.cache import ResultCache, cached_run, code_version
from ..parallel.runner import PointFailure, RunStats, run_points
from .control import PeriodicCheckpointer
from .faults import Fault, FaultInjector, FaultPlan, flip_targets
from .serialize import canonical_digest
from .targets import (
    GRID_DRAIN_CYCLES,
    GRID_STEP_CYCLES,
    CampaignTarget,
    CycleBudgetExceeded,
    WallClockExceeded,
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
    min_cycle: int = 1,
) -> list[tuple[str, int, int]]:
    """Seeded stratified sample of ``(signal, bit, cycle)`` triples.

    Stratification is round-robin over the name-sorted flip targets
    (flops and memory words alike), so every signal is visited before
    any is visited twice; bit and cycle within each visit come from a
    single :class:`random.Random` consumed in a fixed order — the
    sample is a pure function of (design, budget, seed, window).
    """
    targets = flip_targets(module, include_memories=True)
    if not targets:
        raise ValueError("design has no flip targets")
    if budget < 1:
        raise ValueError("campaign budget must be >= 1")
    hi = max(max_cycle, min_cycle + 1)
    rng = random.Random(seed)
    samples = []
    for slot in range(budget):
        name, width = targets[slot % len(targets)]
        bit = rng.randrange(width)
        cycle = rng.randrange(min_cycle, hi)
        samples.append((name, bit, cycle))
    return samples


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score 95 % confidence interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
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


def campaign_config(
    target_name: str,
    params: Optional[dict] = None,
    budget: int = 32,
    seed: int = 0,
    checkpoint_every: Optional[int] = None,
    max_cycles: Optional[int] = None,
    watchdog_interval: int = 2_000,
    wall_timeout: float = 600.0,
) -> dict:
    """Canonical campaign configuration (shared by CLI and serve)."""
    target = get_target(target_name)
    return {
        "target": target_name,
        "params": normalize_params(target, params),
        "budget": int(budget),
        "seed": int(seed),
        "checkpoint_every": int(checkpoint_every or target.checkpoint_every),
        "max_cycles": int(max_cycles or target.max_cycles),
        "watchdog_interval": int(watchdog_interval),
        "wall_timeout": float(wall_timeout),
    }


def campaign_points(cfg: dict) -> list[tuple]:
    """Golden-run the configuration and enumerate its experiment points.

    Each point is a flat picklable tuple consumed by
    :func:`run_experiment`; the sample window is the golden run's own
    length, so injections always land in live execution.
    """
    target = get_target(cfg["target"])
    root = campaign_root(target, cfg["params"],
                         cfg["checkpoint_every"], cfg["max_cycles"])
    golden = ensure_golden(root, target, cfg["params"],
                           cfg["checkpoint_every"], cfg["max_cycles"])
    max_cycle = max(2, int(golden["end_cycle"] * 0.9))
    module = target.module(cfg["params"])
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


def run_campaign(
    target_name: str,
    params: Optional[dict] = None,
    budget: int = 32,
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    checkpoint_every: Optional[int] = None,
    max_cycles: Optional[int] = None,
    watchdog_interval: int = 2_000,
    wall_timeout: float = 600.0,
    point_timeout: Optional[float] = None,
    progress=None,
    on_experiment: Optional[Callable[[int, tuple, dict], None]] = None,
    stats: Optional[RunStats] = None,
) -> dict:
    """Run a full campaign; returns the vulnerability report dict.

    Experiments resolve through *cache* (none: all run) and the default
    retry policy of :func:`~repro.parallel.runner.run_points`; what still fails
    is reported with outcome ``infra`` and never cached.  *on_experiment*,
    if given, receives ``(index, point, result)`` for every experiment
    in index order once all experiments resolve.
    """
    cfg = campaign_config(
        target_name, params=params, budget=budget, seed=seed,
        checkpoint_every=checkpoint_every, max_cycles=max_cycles,
        watchdog_interval=watchdog_interval, wall_timeout=wall_timeout,
    )
    points = campaign_points(cfg)
    target = get_target(cfg["target"])
    root = campaign_root(target, cfg["params"],
                         cfg["checkpoint_every"], cfg["max_cycles"])
    golden = ensure_golden(root, target, cfg["params"],
                           cfg["checkpoint_every"], cfg["max_cycles"])

    found = cached_run(
        cache, points, functools.partial(campaign_point_fields, cfg),
        lambda todo: run_points(
            todo, run_experiment, jobs=jobs, keep_going=True,
            point_timeout=point_timeout, progress=progress, stats=stats),
        progress=progress,
    )
    results = [  # a failure the runner's retries could not heal is infra
        {"signal": p[2], "bit": p[3], "cycle": p[4], "outcome": "infra",
         "error": res.last_error} if isinstance(res, PointFailure) else res
        for p, res in zip(points, found.results)
    ]
    if on_experiment is not None:
        for idx, (point, res) in enumerate(zip(points, results)):
            on_experiment(idx, point, res)
    return vulnerability_report(cfg, golden, results)
