"""The example applications must run end-to-end (they assert internally)."""

import inspect
import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "quickstart OK" in out

    def test_bitonic_sorting(self):
        out = run_example("bitonic_sorting.py")
        assert "sorted 64/64 vectors" in out

    def test_rtl_cache_in_soc(self):
        out = run_example("rtl_cache_in_soc.py")
        assert "write-through data verified" in out

    def test_pmu_monitoring_small(self):
        out = run_example("pmu_monitoring.py", "40")
        assert "windows agree within" in out

    @pytest.mark.slow
    def test_nvdla_dse_small(self):
        out = run_example("nvdla_dse.py", "sanity3", "1", timeout=600)
        assert "normalized to ideal" in out


def test_every_example_is_run():
    """An example no test runs rots unnoticed: each file in examples/
    must be the subject of a TestExamples case."""
    run = set(re.findall(r'run_example\(\s*"([^"]+)"',
                         inspect.getsource(TestExamples)))
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(run)
