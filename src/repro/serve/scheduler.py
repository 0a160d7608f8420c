"""Async job scheduler: priority queues, dedup, quotas, preemption.

The scheduler composes the hardened library pieces into a long-lived
service loop:

* **Sharded execution.** A job's point list is cut into fixed-size
  shards; each shard is one blocking :func:`repro.parallel.runner.run_points`
  call (process-pool fan-out, crash retry, per-point timeouts) pushed
  onto a thread executor so the asyncio loop stays responsive.  Shard
  boundaries are the scheduler's control points: progress events,
  cancellation and preemption all land there.
* **Dedup.** Jobs key on (kind, canonical params, repro source hash)
  through :meth:`ResultCache.key`.  A submission whose key matches a
  live (queued/running) job becomes a *follower*: it gets its own job
  id, quota accounting and event stream, but no execution — it is
  resolved with the primary's payload, bit-identically.  Completed
  work dedups through the shared on-disk :class:`ResultCache` at point
  granularity, so even sequential re-submissions cost zero simulation.
  A point is keyed by its record's ``point_fields`` alone, as
  :func:`repro.experiment.run` keys it, so the CLI and the service
  share cache entries.
* **Preemption.** ``preempt()`` (or the scheduler itself, when a
  strictly higher-priority job is waiting and the fleet is full) asks
  a running job to yield; it parks after the in-flight shard, keeps
  every completed point, and re-enters the queue at its own priority.
  Points interrupted *mid-shard* by a ``point_timeout`` kill start
  over on retry.  Each shard gets a stable ``REPRO_POINT_CKPT_DIR``
  checkpoint directory under ``checkpoint_root``, but no bundled
  experiment checkpoints there yet.
* **Hang reports.** A shard whose :class:`RunStats` shows timeout
  kills, pool restarts or innocent requeues emits a structured
  ``hang`` event on the job's stream; a worker that died of a
  :class:`~repro.resilience.watchdog.SimulationHang` has its watchdog report
  text forwarded verbatim.

Everything here runs on the event loop (single-threaded); only the
shard's ``run_points`` call itself runs in the executor.  That makes
job state transitions race-free without locks.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import os
import shutil
import time
from typing import Any, Optional

from .. import experiment
from ..parallel.cache import ResultCache, look_up
from ..parallel.runner import PointFailure, RunStats, run_points
from .tenants import QuotaExceeded, TenantRegistry

__all__ = ["Job", "JobEvent", "Scheduler", "UnknownJobError"]

#: job states; the last three are terminal
JOB_STATES = ("queued", "running", "preempted", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class UnknownJobError(KeyError):
    """No such job id."""


class JobEvent:
    """One entry of a job's append-only event log."""

    __slots__ = ("seq", "type", "data", "wall_time")

    def __init__(self, seq: int, type: str, data: dict) -> None:
        self.seq = seq
        self.type = type
        self.data = data
        self.wall_time = time.time()

    def as_dict(self) -> dict:
        return {"seq": self.seq, "type": self.type,
                "time": self.wall_time, **self.data}


class Job:
    """One submitted sweep (or a dedup follower of one)."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        kind: experiment.Experiment,
        params: dict,
        points: list,
        shards: list[list[int]],
        priority: int,
        key: Optional[str],
        seq: int,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.kind = kind
        self.params = params
        self.points = points
        self.shards = shards
        self.priority = priority
        self.key = key
        self.seq = seq                       # admission order (FIFO tiebreak)
        self.state = "queued"
        self.point_results: list = [None] * len(points)
        self.shard_cursor = 0
        self.cache_hits = 0
        self.executed_points = 0
        self.preemptions = 0
        self.payload: Any = None
        self.error: Optional[str] = None
        self.dedup_of: Optional[str] = None
        self.followers: list[Job] = []
        self.cancel_requested = False
        self.preempt_requested = False
        self.finished_at: Optional[float] = None
        self.run_stats = RunStats()          # aggregated over shards
        self.events: list[JobEvent] = []
        self._new_event = asyncio.Event()

    # -- events ------------------------------------------------------------

    def emit(self, type: str, **data) -> None:
        self.events.append(JobEvent(len(self.events), type, data))
        waiter, self._new_event = self._new_event, asyncio.Event()
        waiter.set()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    async def next_events(self, after: int) -> list[JobEvent]:
        """Events with ``seq >= after``; blocks until at least one
        exists or the job is terminal (then returns what there is)."""
        while True:
            if len(self.events) > after:
                return self.events[after:]
            if self.terminal:
                return []
            await self._new_event.wait()

    # -- views -------------------------------------------------------------

    @property
    def done_points(self) -> int:
        return sum(1 for r in self.point_results if r is not None)

    def describe(self) -> dict:
        doc = {
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.kind.name,
            "params": self.params,
            "priority": self.priority,
            "state": self.state,
            "points": len(self.points),
            "done_points": self.done_points,
            "cache_hits": self.cache_hits,
            "executed_points": self.executed_points,
            "preemptions": self.preemptions,
            "dedup_of": self.dedup_of,
            "events": len(self.events),
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


def _failure_summary(failure: PointFailure, index: int) -> dict:
    entry: dict = {
        "point_index": index,
        "attempts": failure.attempts,
        "error": failure.last_error.strip().splitlines()[-1]
        if failure.last_error else "",
    }
    # A watchdog trip inside the worker travels as a formatted
    # SimulationHang traceback; forward the structured report text.
    if "SimulationHang" in (failure.last_error or ""):
        entry["hang_report"] = failure.last_error
    return entry


class Scheduler:
    """Priority scheduler over a bounded executor fleet.

    ``fleet_slots`` jobs run concurrently; each running job fans its
    current shard over ``worker_jobs`` pool processes, so peak host
    load is ``fleet_slots * worker_jobs`` workers.
    """

    def __init__(
        self,
        *,
        worker_jobs: int = 2,
        fleet_slots: int = 1,
        shard_points: Optional[int] = None,
        point_timeout: Optional[float] = None,
        max_attempts: int = 3,
        cache: Optional[ResultCache] = None,
        tenants: Optional[TenantRegistry] = None,
        checkpoint_root: Optional[str] = None,
        maintenance_interval: float = 60.0,
        job_ttl: float = 3600.0,
    ) -> None:
        if worker_jobs < 1 or fleet_slots < 1:
            raise ValueError("worker_jobs and fleet_slots must be >= 1")
        self.worker_jobs = worker_jobs
        self.fleet_slots = fleet_slots
        self.shard_points = shard_points or max(worker_jobs, 1)
        self.point_timeout = point_timeout
        self.max_attempts = max_attempts
        self.cache = cache
        self.tenants = tenants or TenantRegistry()
        self.checkpoint_root = checkpoint_root
        self.maintenance_interval = maintenance_interval
        self.job_ttl = job_ttl

        self.jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}     # live primaries only
        self._queue: list[tuple[int, int, str]] = []   # (-prio, seq, id)
        self._running: dict[str, asyncio.Task] = {}
        self._seq = 0
        self._wake = asyncio.Event()
        self._closing = False
        self._tasks: list[asyncio.Task] = []
        self._executor = None
        # counters for /stats
        self.dedup_hits = 0
        self.executed_points = 0
        self.timeout_kills = 0
        self.pool_restarts = 0
        self.preemptions = 0
        self.reaped_tmp = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.fleet_slots,
                thread_name_prefix="repro-serve-shard",
            )
        self._tasks.append(asyncio.create_task(self._dispatch_loop()))
        self._tasks.append(asyncio.create_task(self._maintenance_loop()))

    async def close(self) -> None:
        """Drain: preempt running jobs at their shard boundary, stop the
        loops, and shut the executor down."""
        self._closing = True
        for job_id in list(self._running):
            job = self.jobs[job_id]
            job.preempt_requested = True
        if self._running:
            await asyncio.gather(*self._running.values(),
                                 return_exceptions=True)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission / control ---------------------------------------------

    def _active_jobs(self, tenant: str) -> int:
        return sum(1 for j in self.jobs.values()
                   if j.tenant == tenant and not j.terminal)

    def _running_jobs(self, tenant: str) -> int:
        return sum(1 for jid in self._running
                   if self.jobs[jid].tenant == tenant)

    def submit(self, tenant: str, kind_name: str, params: Optional[dict],
               priority: int = 0) -> Job:
        """Admit one job (raises ``ValueError`` on a bad request,
        :class:`QuotaExceeded` on quota).  Returns the queued job —
        possibly a dedup follower of an identical live one."""
        if self._closing:
            raise RuntimeError("scheduler is shutting down")
        kind = experiment.get(kind_name)
        canonical = kind.normalize(dict(params or {}))
        points = kind.points(canonical)
        if not points:
            raise ValueError(f"{kind_name}: request produced no points")
        self.tenants.admit(tenant, self._active_jobs(tenant),
                           len(points), priority)
        self._seq += 1
        job_id = f"j{self._seq:06d}"
        shards = [
            list(range(lo, min(lo + self.shard_points, len(points))))
            for lo in range(0, len(points), self.shard_points)
        ]
        key = None
        if self.cache is not None:
            key = self.cache.key(experiment="serve_job", kind=kind.name,
                                 params=canonical)
        job = Job(job_id, tenant, kind, canonical, points, shards,
                  priority, key, self._seq)
        self.jobs[job_id] = job
        primary = self._by_key.get(key) if key is not None else None
        if primary is not None:
            # identical live job: follow it instead of executing
            job.dedup_of = primary.id
            primary.followers.append(job)
            self.dedup_hits += 1
            job.emit("state", state="queued", dedup_of=primary.id)
        else:
            if key is not None:
                self._by_key[key] = job
            heapq.heappush(self._queue, (-priority, self._seq, job_id))
            job.emit("state", state="queued")
            self._wake.set()
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def list_jobs(self, tenant: Optional[str] = None) -> list[Job]:
        jobs = [j for j in self.jobs.values()
                if tenant is None or j.tenant == tenant]
        return sorted(jobs, key=lambda j: j.seq)

    def cancel(self, job_id: str) -> Job:
        job = self.get(job_id)
        if job.terminal:
            return job
        job.cancel_requested = True
        if job.state in ("queued", "preempted") and job.id not in self._running:
            self._resolve_terminal(job, "cancelled")
        self._wake.set()
        return job

    def preempt(self, job_id: str) -> Job:
        """Ask a running job to yield at its next shard boundary (no-op
        for queued/terminal jobs)."""
        job = self.get(job_id)
        if job.state == "running":
            job.preempt_requested = True
        return job

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        doc = {
            "jobs": states,
            "queued": len(self._queue),
            "running": len(self._running),
            "dedup_hits": self.dedup_hits,
            "executed_points": self.executed_points,
            "timeout_kills": self.timeout_kills,
            "pool_restarts": self.pool_restarts,
            "preemptions": self.preemptions,
            "reaped_tmp": self.reaped_tmp,
            "worker_jobs": self.worker_jobs,
            "fleet_slots": self.fleet_slots,
        }
        if self.cache is not None:
            doc["cache"] = self.cache.stats.as_dict()
        return doc

    # -- dispatch ----------------------------------------------------------

    def _pop_runnable(self) -> Optional[Job]:
        """Highest-priority queued job whose tenant is under its
        ``max_running`` cap; skipped jobs are pushed back."""
        skipped: list[tuple[int, int, str]] = []
        picked: Optional[Job] = None
        while self._queue:
            entry = heapq.heappop(self._queue)
            job = self.jobs.get(entry[2])
            if job is None or job.terminal or job.id in self._running:
                continue
            quota = self.tenants.quota(job.tenant)
            if self._running_jobs(job.tenant) >= quota.max_running:
                skipped.append(entry)
                continue
            picked = job
            break
        for entry in skipped:
            heapq.heappush(self._queue, entry)
        return picked

    def _maybe_preempt_for(self) -> None:
        """When the fleet is full and the best queued job outranks the
        weakest running one, ask the weakest to yield."""
        if not self._queue or len(self._running) < self.fleet_slots:
            return
        best = None
        for entry in self._queue:
            job = self.jobs.get(entry[2])
            if job is not None and not job.terminal:
                prio = -entry[0]
                if best is None or prio > best:
                    best = prio
        if best is None:
            return
        victim = min(
            (self.jobs[jid] for jid in self._running),
            key=lambda j: (j.priority, -j.seq),
            default=None,
        )
        if victim is not None and victim.priority < best \
                and not victim.preempt_requested:
            victim.preempt_requested = True
            victim.emit("preempting", by_priority=best)

    async def _dispatch_loop(self) -> None:
        while not self._closing:
            while len(self._running) < self.fleet_slots:
                job = self._pop_runnable()
                if job is None:
                    break
                job.state = "running"
                job.preempt_requested = False
                job.emit("state", state="running")
                self._running[job.id] = asyncio.create_task(
                    self._run_job(job)
                )
            self._maybe_preempt_for()
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.5)
            except asyncio.TimeoutError:
                pass

    async def _maintenance_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self.maintenance_interval)
            if self.cache is not None:
                # long-lived server: keep reaping orphaned write-temps
                self.reaped_tmp += self.cache.reap_stale_tmp()
            cutoff = time.time() - self.job_ttl
            for job in list(self.jobs.values()):
                if job.terminal and job.finished_at is not None \
                        and job.finished_at < cutoff:
                    del self.jobs[job.id]

    # -- execution ---------------------------------------------------------

    def _shard_ckpt_dir(self, job: Job, shard_index: int) -> Optional[str]:
        if self.checkpoint_root is None:
            return None
        return os.path.join(self.checkpoint_root, job.id,
                            f"shard-{shard_index:04d}")

    async def _run_job(self, job: Job) -> None:
        try:
            await self._run_job_inner(job)
        except Exception as exc:  # noqa: BLE001 - surface, don't kill the loop
            job.error = f"{type(exc).__name__}: {exc}"
            self._resolve_terminal(job, "failed")
        finally:
            self._running.pop(job.id, None)
            self._wake.set()

    async def _run_job_inner(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        while job.shard_cursor < len(job.shards):
            if job.cancel_requested:
                self._resolve_terminal(job, "cancelled")
                return
            if job.preempt_requested:
                self._park_preempted(job)
                return
            shard_index = job.shard_cursor
            shard = [idx for idx in job.shards[shard_index]
                     if job.point_results[idx] is None]
            # per-point dedup through the shared cache first, on the
            # loop: a warm shard never reaches the executor
            found = look_up(self.cache if job.kind.cacheable else None,
                            [job.points[idx] for idx in shard],
                            functools.partial(job.kind.point_fields,
                                              job.params))
            for i in found.hits:
                job.point_results[shard[i]] = found.results[i]
            job.cache_hits += len(found.hits)
            if found.executed:
                stats = RunStats()
                ckpt_dir = self._shard_ckpt_dir(job, shard_index)
                call = functools.partial(
                    run_points,
                    [job.points[shard[i]] for i in found.executed],
                    job.kind.worker,
                    jobs=self.worker_jobs,
                    max_attempts=self.max_attempts,
                    point_timeout=self.point_timeout,
                    keep_going=True,
                    checkpoint_dir=ckpt_dir,
                    stats=stats,
                )
                found.record(await loop.run_in_executor(self._executor, call))
                self._account_shard(job, stats)
                failures: list[dict] = []
                for i in found.executed:
                    value = found.results[i]
                    if isinstance(value, PointFailure):
                        failures.append(_failure_summary(value, shard[i]))
                        continue
                    job.point_results[shard[i]] = value
                    job.executed_points += 1
                    self.executed_points += 1
                if failures:
                    job.error = (
                        f"{len(failures)} point(s) exhausted their retry "
                        f"budget (first: {failures[0]['error']})"
                    )
                    job.emit("point_failures", failures=failures)
                    self._resolve_terminal(job, "failed")
                    return
                if ckpt_dir is not None:
                    # the shard completed; its per-point checkpoint dirs
                    # are dead weight now (and must not leak onto a
                    # future shard's point numbering)
                    shutil.rmtree(ckpt_dir, ignore_errors=True)
            if job.kind.point_event is not None:
                # stream per-point triage in index order, cache hits
                # and fresh executions alike, before the progress event
                for idx in shard:
                    event = job.kind.point_event(
                        job.params, job.points[idx], job.point_results[idx]
                    )
                    if event:
                        job.emit("triage", point_index=idx, **event)
            job.shard_cursor += 1
            job.emit(
                "progress",
                done=job.done_points,
                total=len(job.points),
                shard=shard_index,
                shards=len(job.shards),
                cache_hits=job.cache_hits,
            )
        payload = job.kind.assemble(
            job.params, [job.point_results[i] for i in range(len(job.points))]
        )
        job.payload = payload
        self._resolve_terminal(job, "done")

    def _account_shard(self, job: Job, stats: RunStats) -> None:
        agg = job.run_stats
        agg.points += stats.points
        agg.completed += stats.completed
        agg.failed += stats.failed
        agg.soft_retries += stats.soft_retries
        agg.pool_restarts += stats.pool_restarts
        agg.timeout_kills += stats.timeout_kills
        self.timeout_kills += stats.timeout_kills
        self.pool_restarts += stats.pool_restarts
        requeues = sum(stats.requeues.values())
        if stats.timeout_kills or stats.pool_restarts or requeues:
            # runner-level hang/crash diagnostics, streamed per job
            job.emit(
                "hang",
                timeout_kills=stats.timeout_kills,
                pool_restarts=stats.pool_restarts,
                innocent_requeues=requeues,
                soft_retries=stats.soft_retries,
                point_timeout=self.point_timeout,
            )

    # -- completion --------------------------------------------------------

    def _park_preempted(self, job: Job) -> None:
        job.preempt_requested = False
        job.preemptions += 1
        self.preemptions += 1
        job.state = "preempted"
        job.emit("state", state="preempted",
                 done=job.done_points, total=len(job.points))
        # back of its own priority class (seq keeps admission order)
        job.state = "queued"
        heapq.heappush(self._queue, (-job.priority, job.seq, job.id))
        job.emit("state", state="queued", resumed=True)

    def _resolve_terminal(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        if job.key is not None and self._by_key.get(job.key) is job:
            del self._by_key[job.key]
        data: dict = {"state": state}
        if state == "failed" and job.error:
            data["error"] = job.error
        job.emit("state", **data)
        followers, job.followers = job.followers, []
        live = [f for f in followers if not f.terminal]
        if not live:
            return
        if state == "done":
            for f in live:
                f.payload = job.payload
                f.point_results = list(job.point_results)
                f.state = "done"
                f.finished_at = job.finished_at
                f.emit("state", state="done", dedup_of=job.id)
        else:
            # the primary did not produce a payload: promote the oldest
            # follower to primary and re-point the rest at it
            new_primary, rest = live[0], live[1:]
            new_primary.dedup_of = None
            new_primary.followers = rest
            for f in rest:
                f.dedup_of = new_primary.id
            if new_primary.key is not None:
                self._by_key[new_primary.key] = new_primary
            heapq.heappush(
                self._queue,
                (-new_primary.priority, new_primary.seq, new_primary.id),
            )
            new_primary.emit("state", state="queued", promoted=True)
            self._wake.set()
