"""run_points: ordering, retry semantics, crash recovery, bounds."""

import os

import pytest

from repro.parallel.progress import ProgressReporter
from repro.parallel.runner import (
    PointFailure,
    RunStats,
    WorkerCrashError,
    run_points,
)

# Workers are module-level so they pickle into pool processes.


def _square(point):
    return point * point


def _flaky(point):
    """Raise until a sentinel file exists (state survives across
    attempts because it lives on disk, not in the worker)."""
    sentinel, value = point
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("seen")
        raise ValueError("transient failure")
    return value


def _always_raises(point):
    raise RuntimeError(f"cannot process {point}")


def _hard_crash_once(point):
    """Die like a segfault on first sight of the point; succeed after."""
    sentinel, value = point
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("seen")
        os._exit(13)
    return value


def _always_crashes(point):
    os._exit(13)


class TestSerial:
    def test_results_in_submission_order(self):
        assert run_points([3, 1, 2], _square, jobs=1) == [9, 1, 4]

    def test_empty(self):
        assert run_points([], _square, jobs=4) == []

    def test_soft_failure_retried(self, tmp_path):
        point = (str(tmp_path / "s"), 7)
        stats = RunStats()
        assert run_points([point], _flaky, jobs=1, stats=stats) == [7]
        assert stats.soft_retries == 1

    def test_soft_failure_bounded(self):
        with pytest.raises(PointFailure) as err:
            run_points([5], _always_raises, jobs=1, max_attempts=2)
        assert err.value.attempts == 2
        assert "cannot process 5" in err.value.last_error

    def test_progress_updates(self):
        class Spy:
            calls = 0

            def update(self, note=""):
                Spy.calls += 1

        run_points([1, 2, 3], _square, jobs=1, progress=Spy())
        assert Spy.calls == 3

    def test_bad_max_attempts_rejected(self):
        with pytest.raises(ValueError):
            run_points([1], _square, max_attempts=0)

    def test_keyboard_interrupt_stops_the_sweep(self):
        """Ctrl-C inside a point is not a soft failure: no retry, no
        PointFailure sentinel, and no later point runs."""
        calls = []

        def interrupted(point):
            calls.append(point)
            if point == 1:
                raise KeyboardInterrupt
            return point

        stats = RunStats()
        with pytest.raises(KeyboardInterrupt):
            run_points([0, 1, 2], interrupted, keep_going=True, stats=stats)
        assert calls == [0, 1]
        assert (stats.soft_retries, stats.failed) == (0, 0)


class TestParallel:
    def test_matches_serial(self):
        points = list(range(17))
        assert run_points(points, _square, jobs=4) == \
            run_points(points, _square, jobs=1)

    def test_soft_failure_retried(self, tmp_path):
        points = [(str(tmp_path / f"s{i}"), i) for i in range(5)]
        stats = RunStats()
        assert run_points(points, _flaky, jobs=3, stats=stats) == list(range(5))
        assert stats.soft_retries == 5

    def test_soft_failure_bounded(self):
        with pytest.raises(PointFailure):
            run_points([1, 2], _always_raises, jobs=2, max_attempts=3)

    def test_worker_crash_retried(self, tmp_path):
        # Worst case one crash-marked point per pool restart, so give
        # the restart budget headroom over the point count.
        points = [(str(tmp_path / f"c{i}"), i * 10) for i in range(3)]
        stats = RunStats()
        result = run_points(points, _hard_crash_once, jobs=2,
                            max_attempts=5, stats=stats)
        assert result == [0, 10, 20]
        assert stats.pool_restarts >= 1

    def test_worker_crash_bounded(self):
        with pytest.raises(WorkerCrashError):
            run_points([1, 2, 3], _always_crashes, jobs=2, max_attempts=2)

    def test_progress_counts_every_point(self, capsys):
        progress = ProgressReporter(6, label="t")
        run_points(list(range(6)), _square, jobs=3, progress=progress)
        assert progress.done == 6
        assert "[t 6/6] 100%" in capsys.readouterr().err
