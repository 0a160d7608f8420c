"""Parallel sweep engine wired into the DSE harness.

The load-bearing guarantee: a ``jobs=N`` sweep (and a cache-served
sweep) is *bit-identical* to the serial one — same tick counts, same
normalised floats — so figures regenerated in parallel are the paper's
figures, just sooner.
"""

import io

import pytest

import repro.parallel.cache as cache_mod
from repro.dse.render import render_dse
from repro.dse.sweep import _dse_point, run_dse
from repro.parallel.cache import ResultCache
from repro.parallel.progress import ProgressReporter

# Shrunk grid: 5 simulations per sweep, small enough for the test tier.
SWEEP = dict(inflight_sweep=(1, 16), memories=("DDR4-1ch", "HBM"), scale=0.1)


@pytest.fixture(scope="module")
def serial_result():
    return run_dse("sanity3", 1, jobs=1, **SWEEP)


class TestDeterminism:
    def test_parallel_bit_identical(self, serial_result):
        parallel = run_dse("sanity3", 1, jobs=4, **SWEEP)
        assert parallel.normalized == serial_result.normalized
        assert parallel.ideal_ticks == serial_result.ideal_ticks

    def test_worker_matches_inline_measurement(self):
        from repro.dse.sweep import measure_exec_ticks

        point = ("sanity3", 1, "HBM", 16, 0.1)
        assert _dse_point(point)["ticks"] == measure_exec_ticks(*point)


class TestCacheIntegration:
    def test_second_run_is_all_hits_and_identical(self, tmp_path, serial_result):
        cache = ResultCache(tmp_path)
        cold = run_dse("sanity3", 1, jobs=1, cache=cache, **SWEEP)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.points == 5
        warm = run_dse("sanity3", 1, jobs=1, cache=cache, **SWEEP)
        assert warm.cache_hits == 5
        assert warm.cache_misses == 0
        assert warm.normalized == cold.normalized == serial_result.normalized
        # aggregate point time is preserved from the cold measurements
        assert warm.point_seconds > 0
        assert warm.wall_seconds < cold.wall_seconds

    def test_partially_warm_sweep_finishes_its_progress_line(self, tmp_path):
        """The CLI sizes the reporter to every point, so a point served
        from the cache must tick it like one that ran: two hits and one
        miss end at 3/3 with the terminating newline, not at 1/3."""
        cache = ResultCache(tmp_path)
        tiny = dict(memories=("HBM",), scale=0.1, cache=cache)
        run_dse("sanity3", 1, inflight_sweep=(8,), **tiny)
        stream = io.StringIO()
        progress = ProgressReporter(3, label="dse", stream=stream)
        warm = run_dse("sanity3", 1, inflight_sweep=(4, 8),
                       progress=progress, **tiny)
        assert (warm.cache_hits, warm.cache_misses) == (2, 1)
        assert progress.done == progress.total == 3
        assert stream.getvalue().endswith("\n")

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        tiny = dict(inflight_sweep=(8,), memories=("HBM",), scale=0.1)
        run_dse("sanity3", 1, cache=cache, **tiny)
        monkeypatch.setattr(cache_mod, "code_version", lambda: "0" * 16)
        stale = run_dse("sanity3", 1, cache=cache, **tiny)
        assert stale.cache_hits == 0
        assert stale.cache_misses == 2

    def test_parameter_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        tiny = dict(inflight_sweep=(8,), memories=("HBM",), scale=0.1)
        run_dse("sanity3", 1, cache=cache, **tiny)
        other = run_dse("sanity3", 1, cache=cache,
                        inflight_sweep=(4,), memories=("HBM",), scale=0.1)
        # the ideal baseline (keyed on max inflight=sweep max) differs too
        assert other.cache_hits == 0


class TestWallTimeReporting:
    def test_both_times_reported(self, serial_result):
        assert serial_result.wall_seconds > 0
        assert serial_result.point_seconds > 0
        # serial: aggregate point time is within elapsed time
        assert serial_result.point_seconds <= serial_result.wall_seconds * 1.05
        assert serial_result.speedup > 0

    def test_rendered_footer_shows_speedup(self, serial_result):
        text = render_dse(serial_result, inflight_sweep=SWEEP["inflight_sweep"])
        assert "simulated" in text and "elapsed" in text
        assert f"jobs={serial_result.jobs}" in text
