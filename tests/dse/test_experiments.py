"""Experiment harness: tiny-configuration runs of every paper experiment
(the full-size regenerations live in benchmarks/)."""

import dataclasses

import pytest

from repro.dse import (
    render_dse,
    render_fig5,
    render_table2,
    render_table3,
    run_dse,
    run_fig5,
    run_standalone,
)
from repro.dse.pmu_experiment import Table2Row, run_table2
from repro.dse.sweep import measure_exec_ticks


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(n_sort=60, interval_cycles=4000, sleep_cycles=8000)

    def test_produces_windows(self, result):
        assert len(result.windows) >= 5

    def test_pmu_and_gem5_ipc_agree_in_steady_windows(self, result):
        errs = [
            abs(w.pmu_ipc - w.gem5_ipc)
            for w in result.windows
            if w.gem5_commits > 500
        ]
        assert errs, "no steady windows sampled"
        errs.sort()
        assert errs[len(errs) // 2] < 0.05

    def test_sleep_phases_visible_as_zero_ipc(self, result):
        assert any(w.gem5_ipc < 0.01 for w in result.windows)

    def test_lost_events_small_but_nonzero(self, result):
        # the PMU misses a few events (enable latency, clear windows) —
        # the exact interaction the paper quantifies with gem5+rtl
        assert 0 <= result.lost_events() < 0.05 * result.total_committed

    def test_render(self, result):
        text = render_fig5(result, max_rows=5)
        assert "PMU IPC" in text and "gem5 IPC" in text

    def test_windows_are_pinned(self):
        """Every field of every window at the benchmark's smoke size.

        ``gem5_ipc`` divides by ``core.st_cycles`` read from the PMU's
        interrupt, in the middle of whatever the core is doing: a core
        that counts the cycles of a stall it steps over has to count
        them by then (DESIGN.md, the exact-read rule).
        """
        result = run_fig5(n_sort=12, interval_cycles=2000, sleep_cycles=2000)
        assert [dataclasses.astuple(w) for w in result.windows] == [
            (0.0010085, 0.6665, 0.6658341658341659,
             90.77269317329332, 90.77269317329332, 1333, 1333),
            (0.0020085, 0.5555, 0.559, 0.0, 0.0, 1111, 1118),
            (0.0030085, 0.505, 0.509, 0.0, 0.0, 1010, 1018),
            (0.0040085, 0.475, 0.478, 0.0, 0.0, 950, 956),
            (0.0050085, 0.4025, 0.21825503355704698, 0.0, 0.0, 805, 813),
            (0.0060085, 0.1115, 0.8109090909090909,
             264.5739910313901, 264.5739910313901, 223, 223),
            (0.0070085, 0.0135, 0.017909002904162634, 0.0, 0.0, 27, 37),
            (0.0080085, 0.272, 0.8932676518883416,
             158.08823529411765, 158.08823529411765, 544, 544),
            (0.0090085, 0.0, 0.0, 0.0, 0.0, 0, 0),
            (0.0100085, 0.0, 0.0, 0.0, 0.0, 0, 0),
        ]
        assert (result.total_committed, result.total_cycles,
                result.pmu_total_commits) == (6042, 14677, 6003)


class TestDSE:
    def test_tiny_sweep_shapes(self):
        result = run_dse(
            "sanity3", 1, inflight_sweep=(1, 64), memories=("DDR4-1ch", "HBM"),
            scale=0.15,
        )
        hbm = result.normalized["HBM"]
        ddr = result.normalized["DDR4-1ch"]
        # more in-flight always helps; HBM >= DDR4-1ch
        assert hbm[64] > hbm[1]
        assert hbm[64] > ddr[64]
        assert 0 < hbm[64] <= 1.05

    def test_render(self):
        result = run_dse("googlenet", 1, inflight_sweep=(4,),
                         memories=("HBM",), scale=0.1)
        text = render_dse(result, inflight_sweep=(4,))
        assert "Fig. 6" in text and "HBM" in text

    def test_measure_returns_positive_ticks(self):
        ticks = measure_exec_ticks("sanity3", 1, "ideal", 64, scale=0.1)
        assert ticks > 0


class TestTable3:
    def test_standalone_runs(self):
        elapsed = run_standalone("sanity3", scale=0.1)
        assert elapsed > 0

    def test_render(self):
        from repro.dse.sweep import Table3Result

        rows = [Table3Result("sanity3", 1.0, 2.5, 3.0)]
        text = render_table3(rows)
        assert "2.50" in text and "3.00" in text
        assert rows[0].perfect_overhead == 2.5
        assert rows[0].ddr4_overhead == 3.0


class TestTable2:
    def test_tiny_overhead_run(self):
        rows = run_table2(sizes=(25,))
        assert len(rows) == 1
        row = rows[0]
        # adding the PMU cannot speed the simulation up (allow noise)
        assert row.pmu_overhead > 0.8
        # waveform tracing costs more than the bare PMU
        assert row.t_gem5_pmu_waveform > row.t_gem5_pmu * 0.9

    def test_render(self):
        rows = [Table2Row(100, 1.0, 1.2, 4.0)]
        text = render_table2(rows)
        assert "gem5+PMU" in text and "waveform" in text
        assert "1.20" in text and "4.00" in text
