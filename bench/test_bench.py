"""Self-test of the benchmark (``python -m pytest bench -q``; not tier-1).

One ``--size smoke`` run of every workload and both passes feeds most of
the checks; it must finish inside a minute.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke() -> dict:
    t0 = time.monotonic()
    proc = _run("--size", "smoke", "--seconds", "1")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads((BENCH / "out" / "results.json").read_text("utf-8"))
    return {"elapsed": elapsed,
            "results": {(r["workload"], r["trace"]): r for r in results}}


def test_smoke_is_quick_and_correct(smoke):
    assert smoke["elapsed"] < 60
    assert set(smoke["results"]) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    for result in smoke["results"].values():
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
        assert result["sim_digest"]


def test_benchmark_json_names_the_workloads():
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for metric in (*SPEC["end_to_end"], *SPEC["per_layer"],
                   *harness.WORKLOAD_METRICS):
        assert NAME.fullmatch(metric["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_every_metric_has_a_finite_value(smoke):
    wanted = {0: {m["name"] for m in SPEC["end_to_end"]},
              1: {m["name"] for m in SPEC["per_layer"]}}
    for (workload, trace), result in smoke["results"].items():
        line = json.loads(run.contract_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, (workload, trace)
        assert set(line["metrics"]) == wanted[trace], (workload, trace)
        for name, metric in line["metrics"].items():
            assert math.isfinite(metric["value"]), (workload, name)
            if trace == 0:
                assert metric["value"] > 0, (workload, name)
        if trace == 0:  # a workload-specific metric is a number or null
            has = {m["name"]: result["values"][m["name"]] is not None
                   for m in harness.WORKLOAD_METRICS}
            assert has == {"sim_khz": workload != "serve_campaign",
                           "pmu_overhead_ratio": workload == "pmu_fig5"}


def test_layers_account_for_the_traced_wall(smoke):
    for (workload, trace), result in smoke["results"].items():
        if trace == 0:
            continue
        for phase, table in result["phases"].items():
            wall = table["_phase"]["wall_s"]
            rows = {k: v for k, v in table.items() if k != "_phase"}
            callbacks = sum(row["host_s"] for layer, row in rows.items()
                            if layer != "soc.event")
            assert callbacks <= wall, (workload, phase)
            assert rows["soc.event"]["host_s"] >= 0
            assert sum(row["host_s"] for row in rows.values()) == \
                pytest.approx(wall, rel=0.05)
        assert "trace.overhead_frac" in result["values"]


def test_workloads_separate_the_layers(smoke):
    pmu = smoke["results"]["pmu_fig5", 1]["phases"]
    with_pmu = pmu["pmu"]
    assert (with_pmu["bridge"]["host_s"] + with_pmu["rtl"]["host_s"]) \
        > 0.5 * with_pmu["_phase"]["wall_s"]
    assert pmu["plain"]["rtl"]["events"] == 0
    assert pmu["plain"]["bridge"]["events"] == 0
    assert smoke["results"]["nvdla_dse", 1]["values"]["rtl.events"] == 0
    assert smoke["results"]["nvdla_dse", 1]["values"]["models.nvdla.events"] > 0
    stress = smoke["results"]["coherence_stress", 1]["phases"]
    assert stress["sw"]["rtl"]["events"] == 0
    assert stress["rtl"]["rtl"]["events"] > 0


def test_tracing_is_absent_from_end_to_end_runs(smoke):
    assert not layers.installed()
    profiler = layers.LayerProfiler()
    with layers.traced(profiler):
        assert layers.installed()
    assert not layers.installed()
    for (_workload, trace), result in smoke["results"].items():
        if trace == 1:
            assert not any("still installed" in f for f in result["failures"])


def test_contract_mode_prints_one_json_line():
    proc = _run("--workload", "coherence_stress", "--seed", "3",
                "--seconds", "1", "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_refuses_to_run_without_the_program():
    with harness.scratch("bare") as root:
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(BENCH, root / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("--workload", "pmu_fig5", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=root)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_verdicts():
    assert compare.verdict(10.0, 10.5, "lower", 0.1, 0.02) == "unchanged"
    assert compare.verdict(10.0, 11.5, "lower", 0.1, 0.02) == "regressed"
    assert compare.verdict(10.0, 8.0, "lower", 0.1, 0.02) == "improved"
    assert compare.verdict(10.0, 8.0, "higher", 0.1, 0.02) == "regressed"
    assert compare.verdict(10.0, 11.5, "lower", 0.1, 0.2) == "unresolved"


def test_compare_judges_a_metric_only_where_it_exists(smoke, capsys):
    """The smoke run against itself (its tiny bodies may be unresolved,
    never changed), and a spread that more repeats shrink."""
    with harness.scratch("compare") as root:
        results = root / "results.json"
        results.write_text(json.dumps(list(smoke["results"].values())), "utf-8")
        compare.compare(str(results), str(results))
    rows = capsys.readouterr().out
    assert "regressed" not in rows and "improved" not in rows
    assert rows.count("wall_s") == len(WORKLOADS)
    assert rows.count("pmu_overhead_ratio") == 1
    assert rows.count("sim_khz") == 3
    noisy = [1.0, 1.3, 0.9, 1.1]
    assert harness.median_spread(noisy * 4) < harness.median_spread(noisy)
