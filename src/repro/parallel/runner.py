"""Process-pool point runner with deterministic merge and bounded retry.

Design notes
------------
* Results are merged **by submission index**, never by completion
  order, so the output of ``run_points(points, fn, jobs=N)`` is the
  same list a plain ``[fn(p) for p in points]`` produces.  Determinism
  therefore only requires the worker itself to be deterministic.
* Workers run the point inside a guard that converts in-worker Python
  exceptions into a ``("err", traceback)`` value; those retry *that
  point* up to ``max_attempts`` times and then raise
  :class:`PointFailure` — or, with ``keep_going=True``, record the
  :class:`PointFailure` instance in that point's result slot and keep
  sweeping (graceful degradation for long fleets).
* A *hard* crash (``os._exit``, segfault, OOM-kill) poisons the whole
  ``ProcessPoolExecutor`` — every in-flight future fails with
  ``BrokenProcessPool`` and the crashed point cannot be identified.
  The runner then rebuilds the pool and requeues everything unfinished
  (recorded per point in ``RunStats.requeues``); pool rebuilds are
  bounded by ``max_attempts`` before :class:`WorkerCrashError` is
  raised (``keep_going`` does **not** soften this — a dying pool is an
  environment problem, not a point problem).
* ``point_timeout`` (seconds, pool mode only) bounds each point's wall
  clock.  A hung worker cannot be cancelled through the executor API,
  so on expiry the runner **kills the pool processes**, charges the
  timed-out point a hard attempt (``RunStats.timeout_kills``), requeues
  the innocent in-flight points without charging them, and rebuilds the
  pool.
* Long points can opt into **checkpoint-based resume**: pass
  ``checkpoint_dir=`` and each point's worker runs with the
  ``REPRO_POINT_CKPT_DIR`` environment variable set to a per-point
  directory; a worker that calls
  :func:`repro.resilience.control.enable_point_checkpoints` on its
  simulation will periodically checkpoint there and, on a retry after a
  kill, restore the newest checkpoint instead of starting over.
* ``jobs <= 1`` runs in-process (no pool, no pickling) with the same
  retry/keep-going semantics — this is both the fast path for small
  sweeps and the reference the determinism tests compare against.
  ``point_timeout`` is ignored in-process (there is no one to kill).
* A point **gives its memory back** before the next one starts: the
  guard freezes the pre-point heap (``gc.freeze``) and runs one
  ``gc.collect()`` after the point, which visits only what the point
  allocated — the simulation's reference cycles are freed at ~0.1–0.5
  ms per point instead of piling up until a full collection.  Only the
  outermost guard freezes and unfreezes, so a nested sweep or a caller
  that froze its own heap keeps its frozen objects.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

__all__ = ["PointFailure", "RunStats", "WorkerCrashError", "run_points"]

#: environment variable carrying the per-point checkpoint directory
POINT_CKPT_ENV = "REPRO_POINT_CKPT_DIR"


class PointFailure(RuntimeError):
    """A point kept raising inside the worker until attempts ran out."""

    def __init__(self, point, attempts: int, last_error: str):
        super().__init__(
            f"point {point!r} failed {attempts} time(s); last error:\n{last_error}"
        )
        self.point = point
        self.attempts = attempts
        self.last_error = last_error


class WorkerCrashError(RuntimeError):
    """Worker processes kept dying until the pool-restart budget ran out."""


@dataclass
class RunStats:
    """Bookkeeping for one :func:`run_points` call."""

    points: int = 0
    completed: int = 0
    failed: int = 0            # PointFailure sentinels recorded (keep_going)
    soft_retries: int = 0      # in-worker exceptions that were retried
    pool_restarts: int = 0     # hard worker crashes that rebuilt the pool
    timeout_kills: int = 0     # workers killed for exceeding point_timeout
    attempts: dict[int, int] = field(default_factory=dict)
    #: per point: times it was requeued through no fault of its own
    #: (pool crash or a neighbour's timeout) — visible in hang reports
    requeues: dict[int, int] = field(default_factory=dict)

    def summary(self) -> Optional[str]:
        """One line when the sweep had to retry, kill or skip points."""
        if not (self.failed or self.timeout_kills or self.pool_restarts
                or self.soft_retries):
            return None
        return (f"sweep resilience: {self.completed}/{self.points} "
                f"completed, {self.failed} failed, {self.soft_retries} soft "
                f"retries, {self.timeout_kills} timeout kills, "
                f"{self.pool_restarts} pool restarts, "
                f"{sum(self.requeues.values())} innocent requeues")


def _guarded(worker: Callable, point, env: Optional[dict] = None,
             index: Optional[int] = None,
             fault_dir: Optional[str] = None):
    """Run *worker* in the child, trapping Python-level failures.

    Returning the traceback (rather than letting the exception
    propagate through the future) lets the parent distinguish a
    per-point soft failure from a pool-poisoning hard crash.  *env*
    entries are exported before the call (per-point checkpoint dirs)
    and the **prior** values — including absence — are restored after,
    so a pre-set variable (e.g. an operator-exported
    ``REPRO_POINT_CKPT_DIR`` in a serial run) survives the sweep.
    When *fault_dir* is set, worker-side faults from
    :data:`repro.resilience.control.worker_plan` (inherited on fork) are
    applied before the point runs — ``worker-kill``/``worker-hang``
    fire here, once per point across retries.  ``KeyboardInterrupt`` is
    not a point failure: it propagates, so Ctrl-C stops a serial sweep.
    """
    saved: dict[str, Optional[str]] = {}
    if env:
        for key, value in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    if fault_dir is not None and index is not None:
        from repro.resilience import control
        from repro.resilience.faults import apply_worker_faults

        apply_worker_faults(control.worker_plan, index, fault_dir)
    # Every SimObject sits in reference cycles, so a finished point is
    # freed only by a full collection; freezing the pre-point heap makes
    # that collection visit only what the point allocated.
    outermost = gc.get_freeze_count() == 0
    if outermost:
        gc.freeze()
    try:
        return ("ok", worker(point))
    except KeyboardInterrupt:
        raise
    except BaseException:  # noqa: BLE001 - the parent re-raises with context
        return ("err", traceback.format_exc())
    finally:
        gc.collect()
        if outermost:
            gc.unfreeze()
        for key, prior in saved.items():
            if prior is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = prior


def _pool_context():
    """Prefer fork (cheap, inherits sys.modules so test-local workers
    unpickle); fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork") if "fork" in methods else None


def _point_env(checkpoint_dir: Optional[str], i: int) -> Optional[dict]:
    if checkpoint_dir is None:
        return None
    return {POINT_CKPT_ENV: os.path.join(checkpoint_dir, f"point-{i:04d}")}


def _worker_fault_dir() -> Optional[str]:
    """A run-scoped marker directory iff the CLI's fault plan carries
    worker-side faults; the markers make each fault fire once per point
    across retries and pool rebuilds.  Pool mode only — in-process a
    ``worker-kill`` would take down the sweep itself."""
    try:
        from repro.resilience import control
    except ImportError:  # pragma: no cover - resilience always ships
        return None
    plan = control.worker_plan
    if plan is None or not plan.worker_faults():
        return None
    import tempfile

    return tempfile.mkdtemp(prefix="repro-worker-faults-")


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung or dead."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already gone
            pass
    pool.shutdown(wait=True, cancel_futures=True)


def _run_serial(
    points: Sequence,
    worker: Callable,
    max_attempts: int,
    keep_going: bool,
    checkpoint_dir: Optional[str],
    progress,
    stats: RunStats,
) -> list:
    results = []
    for i, point in enumerate(points):
        env = _point_env(checkpoint_dir, i)
        failure = None
        payload = None
        for attempt in range(1, max_attempts + 1):
            stats.attempts[i] = attempt
            status, payload = _guarded(worker, point, env)
            if status == "ok":
                break
            if attempt >= max_attempts:
                failure = PointFailure(point, attempt, payload)
                break
            stats.soft_retries += 1
        if failure is not None:
            if not keep_going:
                raise failure
            # record the sentinel; everything completed so far is kept
            results.append(failure)
            stats.failed += 1
        else:
            results.append(payload)
            stats.completed += 1
        if progress is not None:
            progress.update()
    return results


def _run_pool(
    points: Sequence,
    worker: Callable,
    jobs: int,
    max_attempts: int,
    point_timeout: Optional[float],
    keep_going: bool,
    checkpoint_dir: Optional[str],
    progress,
    stats: RunStats,
    fault_dir: Optional[str] = None,
) -> list:
    n = len(points)
    results: list = [None] * n
    finished = [False] * n
    queue: deque[int] = deque(range(n))
    ctx = _pool_context()

    def resolve_ok(i: int, payload) -> None:
        results[i] = payload
        finished[i] = True
        stats.completed += 1
        if progress is not None:
            progress.update()

    def resolve_failure(i: int, failure: PointFailure,
                        pool: ProcessPoolExecutor) -> None:
        if not keep_going:
            # other workers may be mid-point (or hung); don't wait on them
            _kill_pool(pool)
            raise failure
        results[i] = failure
        finished[i] = True
        stats.failed += 1
        if progress is not None:
            progress.update()

    def requeue_innocent(i: int) -> None:
        queue.append(i)
        stats.requeues[i] = stats.requeues.get(i, 0) + 1

    while queue:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(queue)), mp_context=ctx
        )
        inflight: dict = {}   # future -> (index, monotonic start)
        broke = False
        crash: Optional[BaseException] = None
        clean = False

        def harvest(fut) -> None:
            """Resolve one completed future: ok, soft-retry, or broken
            pool (the latter flips *broke* and requeues uncharged)."""
            nonlocal broke, crash
            i, _start = inflight.pop(fut)
            try:
                status, payload = fut.result()
            except BaseException as exc:  # noqa: BLE001 - broken pool
                # The pool is poisoned; this future (and likely the
                # rest) never ran.  Requeue without charging an
                # attempt — we cannot tell who crashed.
                broke, crash = True, exc
                requeue_innocent(i)
                return
            if status == "ok":
                resolve_ok(i, payload)
            else:
                attempts = stats.attempts.get(i, 0) + 1
                stats.attempts[i] = attempts
                if attempts >= max_attempts:
                    resolve_failure(
                        i, PointFailure(points[i], attempts, payload), pool,
                    )
                else:
                    stats.soft_retries += 1
                    queue.append(i)

        try:
            while queue or inflight:
                # windowed submission: at most *jobs* outstanding, so a
                # future's start time ≈ its submission time and the
                # per-point timeout measures actual run time.
                while queue and len(inflight) < jobs:
                    i = queue.popleft()
                    try:
                        fut = pool.submit(
                            _guarded, worker, points[i],
                            _point_env(checkpoint_dir, i),
                            i, fault_dir,
                        )
                    except BrokenProcessPool as exc:
                        broke, crash = True, exc
                        queue.appendleft(i)
                        break
                    inflight[fut] = (i, time.monotonic())
                if broke:
                    break

                wait_timeout = None
                if point_timeout is not None and inflight:
                    next_deadline = min(
                        start + point_timeout for _i, start in inflight.values()
                    )
                    wait_timeout = max(0.0, next_deadline - time.monotonic())
                done, _ = wait(
                    list(inflight), timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )

                for fut in done:
                    harvest(fut)
                if broke:
                    break

                # Expiry is scanned on EVERY iteration — not only when
                # wait() came back empty.  Otherwise one hung worker
                # evades its deadline indefinitely while fast
                # neighbours keep completing (each completion makes
                # wait() return early with a non-empty `done`, and the
                # deadline is never consulted until the queue drains).
                if point_timeout is not None and inflight:
                    now = time.monotonic()
                    hung = {
                        fut for fut, (i, start) in inflight.items()
                        if now - start >= point_timeout and not fut.done()
                    }
                    if not hung:
                        continue
                    # Harvest anything that completed between wait()
                    # and this scan first: finished work must never be
                    # discarded and re-run as an "innocent" requeue —
                    # and a future that ran over the deadline but DID
                    # complete is a result, not a hang.
                    for fut in [f for f in list(inflight) if f.done()]:
                        harvest(fut)
                    if broke:
                        break
                    # A hung worker cannot be cancelled; kill the pool.
                    # Each hung point is charged a hard attempt; other
                    # in-flight points are requeued uncharged.
                    for fut, (i, _start) in list(inflight.items()):
                        if fut not in hung:
                            requeue_innocent(i)
                            continue
                        attempts = stats.attempts.get(i, 0) + 1
                        stats.attempts[i] = attempts
                        stats.timeout_kills += 1
                        if attempts >= max_attempts:
                            resolve_failure(
                                i,
                                PointFailure(
                                    points[i], attempts,
                                    f"worker exceeded point_timeout="
                                    f"{point_timeout}s and was killed",
                                ),
                                pool,
                            )
                        else:
                            queue.append(i)
                    inflight.clear()
                    _kill_pool(pool)
                    break
            else:
                clean = True
        finally:
            if clean:
                pool.shutdown(wait=True)
            else:
                _kill_pool(pool)
        if broke:
            for _fut, (i, _start) in inflight.items():
                requeue_innocent(i)
            inflight.clear()
            stats.pool_restarts += 1
            if stats.pool_restarts >= max_attempts:
                raise WorkerCrashError(
                    f"worker pool died {stats.pool_restarts} time(s); "
                    f"{sum(1 for f in finished if not f)} point(s) unfinished"
                ) from crash
    return results


def run_points(
    points: Sequence,
    worker: Callable,
    jobs: int = 1,
    max_attempts: int = 3,
    point_timeout: Optional[float] = None,
    keep_going: bool = False,
    checkpoint_dir: Optional[str] = None,
    progress=None,
    stats: Optional[RunStats] = None,
) -> list:
    """Run ``worker(point)`` for every point; return results in order.

    ``worker`` must be picklable (a module-level function) when
    ``jobs > 1``.  ``progress``, if given, receives one ``update()``
    call per resolved point.  With ``keep_going=True`` a point that
    exhausts its attempts contributes a :class:`PointFailure` instance
    in its result slot instead of aborting the sweep.
    ``point_timeout`` (seconds) kills and retries workers that run too
    long (pool mode only).  ``checkpoint_dir`` exports a per-point
    ``REPRO_POINT_CKPT_DIR`` for workers that opt into resume.
    """
    if stats is None:
        stats = RunStats()
    stats.points = len(points)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if point_timeout is not None and point_timeout <= 0:
        raise ValueError(f"point_timeout must be > 0, got {point_timeout}")
    if not points:
        return []
    if jobs <= 1:
        return _run_serial(points, worker, max_attempts, keep_going,
                           checkpoint_dir, progress, stats)
    fault_dir = _worker_fault_dir()
    try:
        return _run_pool(points, worker, jobs, max_attempts, point_timeout,
                         keep_going, checkpoint_dir, progress, stats,
                         fault_dir)
    finally:
        if fault_dir is not None:
            shutil.rmtree(fault_dir, ignore_errors=True)
