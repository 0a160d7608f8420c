"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables/figures and both
prints it and writes it under ``benchmarks/out/``.  Scales are chosen so
the full suite runs in tens of minutes on a laptop; set ``REPRO_FAST=1``
to shrink the grids for a quick smoke pass (shapes still visible), or
``REPRO_FULL=1`` for paper-scale workload sizes.
"""

from __future__ import annotations

import os
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"

FAST = os.environ.get("REPRO_FAST", "") not in ("", "0")
FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


def write_artifact(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


@pytest.fixture
def artifact():
    return write_artifact


def dse_grid():
    """(inflight_sweep, memories, nvdla_counts) for the DSE figures."""
    from repro.dse.sweep import INFLIGHT_SWEEP, MEMORIES, NVDLA_COUNTS

    if FAST:
        return (4, 32, 240), ("DDR4-1ch", "DDR4-4ch", "HBM"), (1, 2)
    return INFLIGHT_SWEEP, MEMORIES, NVDLA_COUNTS


def workload_scale(workload: str) -> float:
    from repro.dse.sweep import DEFAULT_SCALES

    if FULL:
        return 1.0
    if FAST:
        return {"sanity3": 0.3, "googlenet": 0.12}[workload]
    return DEFAULT_SCALES[workload]


def sort_sizes() -> tuple[int, ...]:
    """Array sizes for Table 2 (paper: 3k/30k/60k; scaled 1:10:20)."""
    if FULL:
        return (3000, 30000, 60000)
    if FAST:
        return (40, 80)
    return (60, 150, 300)
