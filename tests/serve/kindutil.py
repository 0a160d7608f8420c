"""Lightweight job kinds for serve-layer tests.

Workers are module-level so they pickle into fork-pool workers.  Every
worker appends one line per *execution* to a per-point marker file, so
tests can assert exactly how many times a point actually simulated
(the dedup/cache/resume invariants are all "ran exactly once" claims).
"""

from __future__ import annotations

import functools
import os
import time

from repro import experiment
from repro.experiment import Experiment


def _mark(marker_dir: str, value) -> None:
    if not marker_dir:
        return
    os.makedirs(marker_dir, exist_ok=True)
    path = os.path.join(marker_dir, f"point-{value}")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{time.time()}\n")


def echo_point(point):
    """(value, delay_s, marker_dir) -> deterministic payload."""
    value, delay, marker_dir = point
    _mark(marker_dir, value)
    if delay:
        time.sleep(delay)
    return {"value": value * 2}


def failing_point(point):
    value, _delay, marker_dir = point
    _mark(marker_dir, value)
    raise ValueError(f"point {value} always fails")


def hang_once_point(point):
    """Hang "forever" the first time the flagged point runs; succeed on
    the retry (the hang marker doubles as the execution log)."""
    value, delay, marker_dir = point
    hang_flag = os.path.join(marker_dir, f"hang-{value}")
    _mark(marker_dir, value)
    if value == 0 and not os.path.exists(hang_flag):
        with open(hang_flag, "w", encoding="utf-8") as fh:
            fh.write("hung\n")
        time.sleep(120)
    if delay:
        time.sleep(delay)
    return {"value": value * 2}


def _make_normalize(marker_dir: str, delay: float):
    def normalize(params: dict) -> dict:
        values = [int(v) for v in params.get("values", [0, 1, 2, 3])]
        return {"values": values,
                "delay": float(params.get("delay", delay)),
                "marker_dir": params.get("marker_dir", marker_dir)}
    return normalize


def _points(params: dict) -> list:
    return [(v, params["delay"], params["marker_dir"])
            for v in params["values"]]


def _point_fields(name: str, params: dict, point) -> dict:
    value, delay, _marker = point
    # marker_dir is host-local scratch, not part of the result identity
    return {"experiment": name, "value": value, "delay": delay}


def _assemble(params: dict, results: list) -> dict:
    return {"values": [r["value"] for r in results]}


def register_test_kind(name: str, tmp_path, worker=echo_point,
                       delay: float = 0.0) -> Experiment:
    """Register (or replace) a throwaway kind writing markers under
    ``tmp_path/markers``."""
    marker_dir = str(tmp_path / "markers")
    return experiment.register(Experiment(
        name=name,
        normalize=_make_normalize(marker_dir, delay),
        points=_points,
        worker=worker,
        point_fields=functools.partial(_point_fields, name),
        assemble=_assemble,
    ))


def unregister(name: str) -> None:
    experiment._REGISTRY.pop(name, None)


def executions(tmp_path, value) -> int:
    """How many times point *value* actually ran."""
    path = tmp_path / "markers" / f"point-{value}"
    if not path.exists():
        return 0
    return len(path.read_text().splitlines())
