"""Job kinds: the serve layer's catalogue of runnable sweep types.

A :class:`JobKind` turns a JSON request (``{"kind": ..., "params":
{...}}``) into the three things the scheduler needs:

* a **canonical point list** — ordered, deterministic, so two requests
  with the same normalised params shard and dedup identically;
* a **picklable worker** (module-level function) that
  :func:`repro.parallel.runner.run_points` fans over pool processes; the
  worker must return a JSON-serialisable, *deterministic* payload
  (tick counts, not wall clock) or per-point dedup through the shared
  :class:`~repro.parallel.cache.ResultCache` would be meaningless;
* an **assemble** step merging the per-point results into the job's
  response payload.

Kinds are registered in a process-global registry.  The bundled
``pmu_fig5`` kind runs the paper's Fig. 5 PMU-vs-gem5 sweep (one
full-system simulation per sampling interval); tests register
lightweight kinds of their own through :func:`register_kind`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "JobKind",
    "UnknownKindError",
    "get_kind",
    "kind_names",
    "register_kind",
]


class UnknownKindError(ValueError):
    """Request named a job kind that is not registered."""


@dataclass(frozen=True)
class JobKind:
    """One runnable sweep type.

    ``normalize`` fills defaults and validates (raising ``ValueError``
    on bad requests); its output is the canonical params dict that job
    dedup keys on.  ``build_points`` must be a pure function of those
    canonical params.  ``point_fields`` names the cache-key fields of
    one point — together with the repro source hash (added by
    :meth:`ResultCache.key`) they form the (design, params, source
    hash) dedup key.
    """

    name: str
    normalize: Callable[[dict], dict]
    build_points: Callable[[dict], list]
    worker: Callable[[Any], Any]
    point_fields: Callable[[dict, Any], dict]
    assemble: Callable[[dict, list], Any]
    #: wall-clock measurements must never be cached (see ResultCache)
    cacheable: bool = True
    #: optional ``(params, point, result) -> dict | None``; when set,
    #: the scheduler streams one ``triage`` event per resolved point
    #: (cache hits included) over the job's NDJSON event log
    point_event: Optional[Callable[[dict, Any, Any], Optional[dict]]] = None


_KINDS: dict[str, JobKind] = {}


def register_kind(kind: JobKind, replace: bool = False) -> JobKind:
    if not replace and kind.name in _KINDS:
        raise ValueError(f"job kind {kind.name!r} already registered")
    _KINDS[kind.name] = kind
    return kind


def get_kind(name: str) -> JobKind:
    try:
        return _KINDS[name]
    except KeyError:
        known = ", ".join(sorted(_KINDS)) or "<none>"
        raise UnknownKindError(
            f"unknown job kind {name!r} (registered: {known})"
        ) from None


def kind_names() -> list[str]:
    return sorted(_KINDS)


# ---------------------------------------------------------------------------
# pmu_fig5: the paper's Fig. 5 series as a service job
# ---------------------------------------------------------------------------


def _pmu_fig5_normalize(params: dict) -> dict:
    known = {"n", "intervals", "memory", "sleep_cycles"}
    extra = set(params) - known
    if extra:
        raise ValueError(f"pmu_fig5: unknown params {sorted(extra)}")
    intervals = params.get("intervals", [10_000])
    if isinstance(intervals, (int, str)):
        intervals = [intervals]
    intervals = [int(iv) for iv in intervals]
    if not intervals or any(iv <= 0 for iv in intervals):
        raise ValueError("pmu_fig5: intervals must be positive integers")
    return {
        "n": int(params.get("n", 200)),
        "intervals": intervals,
        "memory": str(params.get("memory", "DDR4-2ch")),
        "sleep_cycles": int(params.get("sleep_cycles", 20_000)),
    }


def _pmu_fig5_points(params: dict) -> list:
    return [
        (params["n"], iv, params["memory"], params["sleep_cycles"])
        for iv in params["intervals"]
    ]


def pmu_fig5_point(point) -> dict:
    """Worker: one Fig. 5 series, reduced to its deterministic numbers
    (tick-derived only — no wall clock, so the payload is cacheable and
    bit-identical across hosts and worker counts)."""
    from ..dse.pmu_experiment import run_fig5

    n, interval, memory, sleep_cycles = point
    r = run_fig5(n_sort=n, interval_cycles=interval, memory=memory,
                 sleep_cycles=sleep_cycles)
    return {
        "interval": interval,
        "windows": [
            {
                "time_ms": w.time_ms,
                "pmu_ipc": w.pmu_ipc,
                "gem5_ipc": w.gem5_ipc,
                "pmu_mpki": w.pmu_mpki,
                "gem5_mpki": w.gem5_mpki,
                "pmu_commits": w.pmu_commits,
                "gem5_commits": w.gem5_commits,
            }
            for w in r.windows
        ],
        "total_committed": r.total_committed,
        "total_cycles": r.total_cycles,
        "pmu_total_commits": r.pmu_total_commits,
    }


def _pmu_fig5_point_fields(params: dict, point) -> dict:
    n, interval, memory, sleep_cycles = point
    return {
        "design": "pmu",
        "experiment": "fig5_point",
        "n": n,
        "interval": interval,
        "memory": memory,
        "sleep_cycles": sleep_cycles,
    }


def _pmu_fig5_assemble(params: dict, results: list) -> dict:
    return {
        "kind": "pmu_fig5",
        "n": params["n"],
        "memory": params["memory"],
        "series": {
            str(point_result["interval"]): point_result
            for point_result in results
        },
    }


register_kind(JobKind(
    name="pmu_fig5",
    normalize=_pmu_fig5_normalize,
    build_points=_pmu_fig5_points,
    worker=pmu_fig5_point,
    point_fields=_pmu_fig5_point_fields,
    assemble=_pmu_fig5_assemble,
))


# ---------------------------------------------------------------------------
# campaign: fault-injection campaigns as a service job
# ---------------------------------------------------------------------------


def _campaign_normalize(params: dict) -> dict:
    from ..resilience.campaign import campaign_config

    known = {"target", "params", "budget", "seed", "checkpoint_every",
             "max_cycles", "watchdog_interval", "wall_timeout"}
    extra = set(params) - known
    if extra:
        raise ValueError(f"campaign: unknown params {sorted(extra)}")
    if "target" not in params:
        raise ValueError("campaign: 'target' is required")
    return campaign_config(
        str(params["target"]),
        params=params.get("params"),
        budget=params.get("budget", 32),
        seed=params.get("seed", 0),
        checkpoint_every=params.get("checkpoint_every"),
        max_cycles=params.get("max_cycles"),
        watchdog_interval=params.get("watchdog_interval", 2_000),
        wall_timeout=params.get("wall_timeout", 600.0),
    )


def _campaign_points(cfg: dict) -> list:
    # runs (or waits on) the golden execution for this configuration —
    # submission of a cold campaign pays the golden run up front
    from ..resilience.campaign import campaign_points

    return campaign_points(cfg)


def campaign_point(point) -> dict:
    """Worker: one fault-injection experiment, triaged."""
    from ..resilience.campaign import run_experiment

    return run_experiment(point)


def _campaign_point_fields(cfg: dict, point) -> dict:
    # keys on "campaign_point" (not "serve_point"), so serve-submitted
    # campaigns share cache entries with `repro campaign` CLI runs
    from ..resilience.campaign import campaign_point_fields

    return campaign_point_fields(cfg, point)


def _campaign_assemble(cfg: dict, results: list) -> dict:
    from ..resilience.campaign import (
        campaign_root, ensure_golden, vulnerability_report,
    )
    from ..resilience.targets import get_target

    target = get_target(cfg["target"])
    root = campaign_root(target, cfg["params"],
                         cfg["checkpoint_every"], cfg["max_cycles"])
    golden = ensure_golden(root, target, cfg["params"],
                           cfg["checkpoint_every"], cfg["max_cycles"])
    return vulnerability_report(cfg, golden, results)


def _campaign_event(cfg: dict, point, result) -> Optional[dict]:
    from ..resilience.campaign import triage_event

    if not isinstance(result, dict):
        return None
    return triage_event(point, result)


register_kind(JobKind(
    name="campaign",
    normalize=_campaign_normalize,
    build_points=_campaign_points,
    worker=campaign_point,
    point_fields=_campaign_point_fields,
    assemble=_campaign_assemble,
    point_event=_campaign_event,
))
