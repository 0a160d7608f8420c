"""Regression tests for three sweep-runner bugs.

1. **Timeout starvation** — expiry was only scanned when ``wait()``
   returned empty, so one hung worker evaded ``point_timeout`` for as
   long as fast neighbours kept completing (every completion made
   ``wait()`` return early).  Detection must land within
   ``point_timeout`` + scheduling slack even with a busy queue.
2. **Env clobbering** — ``_guarded`` popped the env keys it exported
   instead of restoring the prior values, so a serial sweep erased an
   operator's pre-set ``REPRO_POINT_CKPT_DIR``.
3. **Discarded completions** — a future that finished between
   ``wait()`` returning and the expiry scan was treated as hung (or
   requeued as an innocent) and its finished work thrown away; the
   scan must harvest done futures before killing the pool.

All scenarios are marker-file driven and use sub-second timeouts.
"""

import os
import time

from repro.parallel.runner import (
    POINT_CKPT_ENV,
    RunStats,
    _guarded,
    run_points,
)
from repro.parallel import runner as runner_mod


def _sweep_worker(point):
    """(log_dir, value, hang_me, sleep_s): log one start-timestamp line
    per execution, hang 60s on the flagged point's first run only."""
    log_dir, value, hang_me, sleep_s = point
    with open(os.path.join(log_dir, f"start-{value}"), "a",
              encoding="utf-8") as fh:
        fh.write(f"{time.monotonic()}\n")
    flag = os.path.join(log_dir, f"hang-flag-{value}")
    if hang_me and not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8") as fh:
            fh.write("hung\n")
        time.sleep(60)
    if sleep_s:
        time.sleep(sleep_s)
    return value * 10


def _starts(tmp_path, value):
    path = tmp_path / f"start-{value}"
    if not path.exists():
        return []
    return [float(line) for line in path.read_text().splitlines()]


class TestTimeoutStarvation:
    def test_hang_detected_despite_fast_neighbours(
            self, tmp_path, monkeypatch):
        """A hung point with a deep queue of fast points behind it must
        be killed ~point_timeout after it started — not after the fast
        queue drains.  The kill time is observed directly by wrapping
        the pool-kill hook."""
        kill_times: list[float] = []
        real_kill = runner_mod._kill_pool

        def logged_kill(pool):
            kill_times.append(time.monotonic())
            real_kill(pool)

        monkeypatch.setattr(runner_mod, "_kill_pool", logged_kill)
        timeout = 0.5
        points = [(str(tmp_path), 0, True, 0.0)] + [
            (str(tmp_path), i, False, 0.3) for i in range(1, 13)
        ]
        stats = RunStats()
        t0 = time.monotonic()
        results = run_points(points, _sweep_worker, jobs=2,
                             point_timeout=timeout, max_attempts=3,
                             stats=stats)
        assert results == [v * 10 for v in range(13)]
        assert stats.timeout_kills == 1
        assert len(_starts(tmp_path, 0)) == 2   # hang killed, then retried
        # Detection must land ~point_timeout after the hung point
        # started.  With the starvation bug the deadline is only
        # consulted once the 12 fast points stop making wait() return
        # early — i.e. after they drain through the one surviving
        # worker (>= 12 * 0.3s = 3.6s).
        assert kill_times, "pool was never killed"
        assert kill_times[0] - t0 < timeout + 1.0

    def test_fast_points_requeued_at_kill_keep_no_attempt_charge(
            self, tmp_path):
        points = [(str(tmp_path), 0, True, 0.0)] + [
            (str(tmp_path), i, False, 0.3) for i in range(1, 7)
        ]
        stats = RunStats()
        results = run_points(points, _sweep_worker, jobs=3,
                             point_timeout=0.5, max_attempts=2,
                             stats=stats)
        assert results == [v * 10 for v in range(7)]
        for i, n in stats.requeues.items():
            if n:
                assert stats.attempts.get(i, 1) <= 1


class TestEnvRestore:
    def test_serial_sweep_restores_preexisting_ckpt_env(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(POINT_CKPT_ENV, "operator-preset")
        run_points([0, 1], lambda p: p, jobs=1,
                   checkpoint_dir=str(tmp_path))
        # the sweep exports per-point dirs while running, but must put
        # the operator's value back — not pop the key
        assert os.environ[POINT_CKPT_ENV] == "operator-preset"

    def test_guarded_restores_value_and_absence(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_A", "before")
        monkeypatch.delenv("REPRO_TEST_B", raising=False)
        status, payload = _guarded(
            lambda p: (os.environ["REPRO_TEST_A"], os.environ["REPRO_TEST_B"]),
            None, env={"REPRO_TEST_A": "during", "REPRO_TEST_B": "during"},
        )
        assert (status, payload) == ("ok", ("during", "during"))
        assert os.environ["REPRO_TEST_A"] == "before"
        assert "REPRO_TEST_B" not in os.environ

    def test_guarded_restores_on_worker_exception(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_A", "before")

        def boom(point):
            raise ValueError("no")

        status, _tb = _guarded(boom, None, env={"REPRO_TEST_A": "during"})
        assert status == "err"
        assert os.environ["REPRO_TEST_A"] == "before"


class TestExpiryHarvest:
    def test_completed_future_is_harvested_not_discarded(
            self, tmp_path, monkeypatch):
        """p1 finishes *after* its deadline but *before* the expiry
        scan (the wait->scan gap is widened deterministically).  Its
        result must be harvested — not discarded and re-run."""
        real_wait = runner_mod.wait

        def laggy_wait(fs, timeout=None, return_when=None):
            done, not_done = real_wait(fs, timeout=timeout,
                                       return_when=return_when)
            time.sleep(0.45)   # widen the race window
            return done, not_done

        monkeypatch.setattr(runner_mod, "wait", laggy_wait)
        points = [
            (str(tmp_path), 0, True, 0.0),    # hangs on first attempt
            (str(tmp_path), 1, False, 0.7),   # done at 0.7s, scan ~0.95s
        ]
        stats = RunStats()
        results = run_points(points, _sweep_worker, jobs=2,
                             point_timeout=0.5, max_attempts=2,
                             stats=stats)
        assert results == [0, 10]
        # p1 ran exactly once: its completed result was picked up at
        # the expiry scan instead of being requeued with the kill
        assert len(_starts(tmp_path, 1)) == 1
        # and only the genuinely hung point was charged a kill
        assert stats.timeout_kills == 1
        assert stats.attempts.get(1, 0) == 0
        assert stats.requeues.get(1, 0) == 0

    def test_overdeadline_but_done_is_a_result_not_a_hang(
            self, tmp_path, monkeypatch):
        """With max_attempts=1 the old behaviour failed the sweep: the
        done-but-overdue future was charged a timeout kill with no
        attempts left.  It must succeed."""
        real_wait = runner_mod.wait

        def laggy_wait(fs, timeout=None, return_when=None):
            done, not_done = real_wait(fs, timeout=timeout,
                                       return_when=return_when)
            time.sleep(0.45)
            return done, not_done

        monkeypatch.setattr(runner_mod, "wait", laggy_wait)
        points = [
            (str(tmp_path), 0, True, 0.0),
            (str(tmp_path), 1, False, 0.7),
        ]
        results = run_points(points, _sweep_worker, jobs=2,
                             point_timeout=0.5, max_attempts=2,
                             keep_going=True, stats=RunStats())
        assert results[1] == 10
