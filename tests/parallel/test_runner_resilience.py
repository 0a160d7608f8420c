"""run_points resilience: keep_going, per-point timeouts, checkpoint env.

All hang/kill scenarios are driven by marker files (deterministic,
once-only across retries) and sub-second timeouts — no long sleeps.
"""

import os
import time

import pytest

from repro.parallel.runner import (
    POINT_CKPT_ENV,
    PointFailure,
    RunStats,
    WorkerCrashError,
    run_points,
)

# Workers are module-level so they pickle into pool processes.


def _square(point):
    return point * point


def _fails_on_three(point):
    if point == 3:
        raise ValueError("three is right out")
    return point


def _hang_once(point):
    """Hang (forever, from the timeout's point of view) the first time
    the marked point runs; succeed on the retry.  Clean points take a
    beat so neighbours of a hang are reliably still in flight when the
    timeout expires."""
    marker, value, hang_me = point
    if hang_me and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("hung")
        time.sleep(60)
    time.sleep(0.25)
    return value * 10


def _always_crashes(point):
    os._exit(13)


def _report_ckpt_env(point):
    return os.environ.get(POINT_CKPT_ENV)


class TestKeepGoing:
    def test_serial_records_sentinel_and_keeps_results(self):
        stats = RunStats()
        results = run_points([1, 2, 3, 4], _fails_on_three, jobs=1,
                             max_attempts=2, keep_going=True, stats=stats)
        assert results[0:2] == [1, 2] and results[3] == 4
        assert isinstance(results[2], PointFailure)
        assert results[2].point == 3
        assert results[2].attempts == 2
        assert stats.completed == 3
        assert stats.failed == 1
        assert stats.soft_retries == 1

    def test_pool_records_sentinel_and_keeps_results(self):
        stats = RunStats()
        results = run_points([1, 2, 3, 4], _fails_on_three, jobs=2,
                             max_attempts=2, keep_going=True, stats=stats)
        assert results[0:2] == [1, 2] and results[3] == 4
        assert isinstance(results[2], PointFailure)
        assert stats.failed == 1

    def test_without_keep_going_serial_raises(self):
        with pytest.raises(PointFailure):
            run_points([1, 2, 3], _fails_on_three, jobs=1, max_attempts=1)

    def test_keep_going_does_not_soften_pool_crashes(self):
        """A dying pool is an environment problem: keep_going must NOT
        turn WorkerCrashError into sentinels."""
        with pytest.raises(WorkerCrashError):
            run_points([1, 2], _always_crashes, jobs=2, max_attempts=2,
                       keep_going=True)


class TestPointTimeout:
    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        points = [(str(tmp_path / f"m{i}"), i, i == 1) for i in range(4)]
        stats = RunStats()
        t0 = time.monotonic()
        results = run_points(points, _hang_once, jobs=2, point_timeout=0.5,
                             max_attempts=3, stats=stats)
        elapsed = time.monotonic() - t0
        assert results == [0, 10, 20, 30]          # ordered, all completed
        assert stats.timeout_kills >= 1
        assert stats.attempts.get(1, 0) == 1       # the hang cost an attempt
        assert elapsed < 30                        # killed, not waited out

    def test_innocent_bystanders_not_charged(self, tmp_path):
        """Points killed alongside a hung neighbour are requeued without
        an attempt charge; the requeue is visible in RunStats."""
        points = [(str(tmp_path / f"m{i}"), i, i == 0) for i in range(6)]
        stats = RunStats()
        results = run_points(points, _hang_once, jobs=3, point_timeout=0.5,
                             max_attempts=2, stats=stats)
        assert results == [i * 10 for i in range(6)]
        innocent = [i for i, n in stats.requeues.items() if n > 0]
        for i in innocent:
            assert stats.attempts.get(i, 1) <= 1
        assert stats.timeout_kills == 1

    def test_timeout_exhaustion_is_a_point_failure(self, tmp_path):
        stats = RunStats()
        results = run_points(
            [(str(tmp_path / "m0"), 0, True), (str(tmp_path / "m1"), 1, False)],
            _hang_once, jobs=2, point_timeout=0.5, max_attempts=1,
            keep_going=True, stats=stats,
        )
        # no attempts left after the kill -> sentinel, sweep continues
        assert isinstance(results[0], PointFailure)
        assert "point_timeout" in results[0].last_error
        assert results[1] == 10
        assert stats.timeout_kills == 1 and stats.failed == 1

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            run_points([1], _square, jobs=2, point_timeout=0)


class TestInjectedWorkerFaults:
    """The CLI's FaultPlan's worker-side faults fire inside pool workers
    (fork-inherited), exercising the crash/timeout machinery end to end
    — the same path ``--inject worker-kill@I`` takes from the CLI."""

    def test_worker_kill_restarts_pool_and_converges(self, monkeypatch):
        from repro.resilience import control
        from repro.resilience.faults import FaultPlan

        monkeypatch.setattr(control, "worker_plan",
                            FaultPlan.parse(["worker-kill@1"]))
        stats = RunStats()
        results = run_points([0, 1, 2, 3], _square, jobs=2,
                             max_attempts=3, stats=stats)
        assert results == [0, 1, 4, 9]
        assert stats.pool_restarts == 1     # the kill fired exactly once

    def test_worker_hang_is_killed_by_point_timeout(self, monkeypatch):
        from repro.resilience import control
        from repro.resilience.faults import FaultPlan

        monkeypatch.setattr(control, "worker_plan",
                            FaultPlan.parse(["worker-hang@1:30"]))
        stats = RunStats()
        results = run_points([0, 1, 2], _square, jobs=2,
                             point_timeout=0.5, max_attempts=3, stats=stats)
        assert results == [0, 1, 4]
        assert stats.timeout_kills == 1

    def test_serial_ignores_worker_faults(self, monkeypatch):
        # in-process there is no worker to kill; the sweep must survive
        from repro.resilience import control
        from repro.resilience.faults import FaultPlan

        monkeypatch.setattr(control, "worker_plan",
                            FaultPlan.parse(["worker-kill@0"]))
        assert run_points([0, 1], _square, jobs=1) == [0, 1]


class TestCheckpointDirContract:
    def test_serial_exports_per_point_dir(self, tmp_path):
        results = run_points([0, 1], _report_ckpt_env, jobs=1,
                             checkpoint_dir=str(tmp_path))
        assert results == [
            os.path.join(str(tmp_path), "point-0000"),
            os.path.join(str(tmp_path), "point-0001"),
        ]
        assert POINT_CKPT_ENV not in os.environ   # cleaned up after

    def test_pool_exports_per_point_dir(self, tmp_path):
        results = run_points(list(range(3)), _report_ckpt_env, jobs=2,
                             checkpoint_dir=str(tmp_path))
        assert results == [
            os.path.join(str(tmp_path), f"point-{i:04d}") for i in range(3)
        ]

    def test_no_dir_no_env(self):
        assert run_points([0], _report_ckpt_env, jobs=1) == [None]
