"""Scheduler-level tests: dedup, quotas, preemption, bit-identity.

Each test drives the scheduler inside its own ``asyncio.run`` so no
event loop leaks between tests.  Workers live in ``kindutil`` (module
level, fork-picklable) and log one marker line per execution — the
"exactly one cache-miss execution" claims are asserted from those
logs, not from scheduler bookkeeping alone.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.parallel.cache import ResultCache
from repro.parallel.runner import run_points
from repro.experiment import UnknownExperiment
from repro.serve.scheduler import Scheduler
from repro.serve.tenants import QuotaExceeded, TenantQuota, TenantRegistry

from tests.serve import kindutil


@pytest.fixture
def kind_name(request, tmp_path):
    """A per-test registered echo kind (unregistered afterwards)."""
    name = f"t_{request.node.name[:40]}"
    kindutil.register_test_kind(name, tmp_path)
    yield name
    kindutil.unregister(name)


def make_scheduler(tmp_path, **kwargs) -> Scheduler:
    kwargs.setdefault("worker_jobs", 2)
    if "cache" not in kwargs:
        # constructed lazily: ResultCache reaps stale tmp files at
        # construction, which would race tests that pre-stage orphans
        kwargs["cache"] = ResultCache(root=tmp_path / "cache")
    kwargs.setdefault("maintenance_interval", 3600.0)
    return Scheduler(**kwargs)


async def wait_terminal(sched: Scheduler, job_id: str,
                        timeout: float = 60.0):
    job = sched.get(job_id)
    deadline = time.monotonic() + timeout
    cursor = 0
    while not job.terminal:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"job {job_id} still {job.state} after {timeout}s"
            )
        events = await asyncio.wait_for(job.next_events(cursor), timeout=5.0)
        cursor += len(events)
    return job


def run(coro):
    return asyncio.run(coro)


class TestBasics:
    def test_job_runs_and_assembles(self, tmp_path, kind_name):
        async def main():
            sched = make_scheduler(tmp_path)
            sched.start()
            try:
                job = sched.submit("alice", kind_name,
                                   {"values": [1, 2, 3]})
                done = await wait_terminal(sched, job.id)
                assert done.state == "done"
                assert done.payload == {"values": [2, 4, 6]}
                types = [e.type for e in done.events]
                assert types[0] == "state" and "progress" in types
                assert done.describe()["done_points"] == 3
            finally:
                await sched.close()
        run(main())

    def test_unknown_kind_is_value_error(self, tmp_path):
        async def main():
            sched = make_scheduler(tmp_path)
            with pytest.raises(UnknownExperiment):
                sched.submit("alice", "no_such_kind", {})
            await sched.close()
        run(main())

    def test_bit_identical_vs_direct_run_points(self, tmp_path, kind_name):
        """The serve path must produce byte-for-byte the payload a
        direct run_points call over the same points produces."""
        from repro.experiment import get

        kind = get(kind_name)
        params = kind.normalize({"values": [5, 6, 7, 8, 9]})
        points = kind.points(params)
        direct = kind.assemble(params, run_points(points, kind.worker))

        async def main():
            sched = make_scheduler(tmp_path, shard_points=2)
            sched.start()
            try:
                job = sched.submit("alice", kind_name,
                                   {"values": [5, 6, 7, 8, 9]})
                done = await wait_terminal(sched, job.id)
                assert done.state == "done"
                return done.payload
            finally:
                await sched.close()

        served = run(main())
        import json

        assert served == direct
        assert json.dumps(served, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_failed_points_fail_the_job(self, tmp_path, request):
        name = f"f_{request.node.name[:40]}"
        kindutil.register_test_kind(name, tmp_path,
                                    worker=kindutil.failing_point)
        try:
            async def main():
                sched = make_scheduler(tmp_path, max_attempts=2)
                sched.start()
                try:
                    job = sched.submit("alice", name, {"values": [1]})
                    done = await wait_terminal(sched, job.id)
                    assert done.state == "failed"
                    assert "retry budget" in (done.error or "")
                    assert any(e.type == "point_failures"
                               for e in done.events)
                finally:
                    await sched.close()
            run(main())
        finally:
            kindutil.unregister(name)


class TestDedup:
    def test_identical_concurrent_submissions_share_one_execution(
            self, tmp_path, request):
        name = f"d_{request.node.name[:36]}"
        kindutil.register_test_kind(name, tmp_path, delay=0.2)
        try:
            async def main():
                sched = make_scheduler(tmp_path, shard_points=2)
                sched.start()
                try:
                    a = sched.submit("alice", name, {"values": [1, 2, 3, 4]})
                    # concurrent identical submission from another tenant
                    b = sched.submit("bob", name, {"values": [1, 2, 3, 4]})
                    assert b.dedup_of == a.id
                    assert sched.dedup_hits == 1
                    done_a = await wait_terminal(sched, a.id)
                    done_b = await wait_terminal(sched, b.id)
                    assert done_a.state == done_b.state == "done"
                    assert done_a.payload == done_b.payload
                    return sched.executed_points
                finally:
                    await sched.close()

            executed = run(main())
            assert executed == 4
            # the markers are ground truth: each point simulated once
            for v in (1, 2, 3, 4):
                assert kindutil.executions(tmp_path, v) == 1
        finally:
            kindutil.unregister(name)

    def test_sequential_resubmission_is_pure_cache_reads(
            self, tmp_path, kind_name):
        async def main():
            sched = make_scheduler(tmp_path)
            sched.start()
            try:
                a = sched.submit("alice", kind_name, {"values": [1, 2]})
                done_a = await wait_terminal(sched, a.id)
                b = sched.submit("bob", kind_name, {"values": [1, 2]})
                done_b = await wait_terminal(sched, b.id)
                assert done_a.payload == done_b.payload
                assert done_b.cache_hits == 2
                assert done_b.executed_points == 0
            finally:
                await sched.close()
        run(main())
        for v in (1, 2):
            assert kindutil.executions(tmp_path, v) == 1

    def test_follower_promoted_when_primary_fails(self, tmp_path, request):
        name = f"p_{request.node.name[:36]}"
        kindutil.register_test_kind(name, tmp_path,
                                    worker=kindutil.failing_point)
        try:
            async def main():
                sched = make_scheduler(tmp_path, max_attempts=1)
                sched.start()
                try:
                    a = sched.submit("alice", name, {"values": [1]})
                    b = sched.submit("bob", name, {"values": [1]})
                    assert b.dedup_of == a.id
                    done_a = await wait_terminal(sched, a.id)
                    # the follower must not inherit the failure blindly:
                    # it is promoted, runs, and fails on its own evidence
                    done_b = await wait_terminal(sched, b.id)
                    assert done_a.state == "failed"
                    assert done_b.state == "failed"
                    assert done_b.dedup_of is None
                finally:
                    await sched.close()
            run(main())
            assert kindutil.executions(tmp_path, 1) == 2
        finally:
            kindutil.unregister(name)


class TestQuotas:
    def test_queued_jobs_quota_rejects(self, tmp_path, kind_name):
        registry = TenantRegistry(TenantQuota(max_queued=1))

        async def main():
            sched = make_scheduler(tmp_path, tenants=registry)
            # scheduler not started: jobs stay queued
            sched.submit("alice", kind_name, {"values": [1]})
            with pytest.raises(QuotaExceeded):
                sched.submit("alice", kind_name, {"values": [2]})
            # quotas are per tenant: bob is unaffected
            sched.submit("bob", kind_name, {"values": [1]})
            await sched.close()
        run(main())

    def test_point_and_priority_quotas(self, tmp_path, kind_name):
        registry = TenantRegistry(
            TenantQuota(max_points_per_job=2, max_priority=1)
        )

        async def main():
            sched = make_scheduler(tmp_path, tenants=registry)
            with pytest.raises(QuotaExceeded):
                sched.submit("alice", kind_name, {"values": [1, 2, 3]})
            with pytest.raises(QuotaExceeded):
                sched.submit("alice", kind_name, {"values": [1]},
                             priority=5)
            sched.submit("alice", kind_name, {"values": [1, 2]},
                         priority=1)
            await sched.close()
        run(main())

    def test_empty_tenant_rejected(self, tmp_path, kind_name):
        async def main():
            sched = make_scheduler(tmp_path)
            with pytest.raises(QuotaExceeded):
                sched.submit("", kind_name, {"values": [1]})
            await sched.close()
        run(main())


class TestPreemption:
    def test_higher_priority_preempts_and_low_job_resumes(
            self, tmp_path, request):
        slow = f"s_{request.node.name[:36]}"
        kindutil.register_test_kind(slow, tmp_path, delay=0.3)
        try:
            async def main():
                sched = make_scheduler(
                    tmp_path, worker_jobs=1, fleet_slots=1, shard_points=1,
                )
                sched.start()
                try:
                    low = sched.submit("alice", slow,
                                       {"values": [1, 2, 3, 4]})
                    # let the low-priority job actually start running
                    while low.done_points == 0:
                        await asyncio.sleep(0.02)
                    high = sched.submit("bob", slow,
                                        {"values": [10], "delay": 0.05},
                                        priority=5)
                    done_high = await wait_terminal(sched, high.id)
                    done_low = await wait_terminal(sched, low.id)
                    assert done_high.state == "done"
                    assert done_low.state == "done"
                    assert done_low.payload == {"values": [2, 4, 6, 8]}
                    assert done_low.preemptions >= 1
                    # the high-priority job finished first
                    assert done_high.finished_at <= done_low.finished_at
                    # preemption kept completed points: no re-execution
                    for v in (1, 2, 3, 4):
                        assert kindutil.executions(tmp_path, v) == 1
                    assert any(
                        e.type == "state" and e.data.get("state") == "preempted"
                        for e in done_low.events
                    )
                finally:
                    await sched.close()
            run(main())
        finally:
            kindutil.unregister(slow)

    def test_explicit_preempt_requeues(self, tmp_path, request):
        slow = f"e_{request.node.name[:36]}"
        kindutil.register_test_kind(slow, tmp_path, delay=0.25)
        try:
            async def main():
                sched = make_scheduler(
                    tmp_path, worker_jobs=1, fleet_slots=1, shard_points=1,
                )
                sched.start()
                try:
                    job = sched.submit("alice", slow, {"values": [1, 2, 3]})
                    while job.done_points == 0:
                        await asyncio.sleep(0.02)
                    sched.preempt(job.id)
                    done = await wait_terminal(sched, job.id)
                    assert done.state == "done"
                    assert done.preemptions == 1
                    assert done.payload == {"values": [2, 4, 6]}
                finally:
                    await sched.close()
            run(main())
        finally:
            kindutil.unregister(slow)


class TestCancelAndHang:
    def test_cancel_queued_job(self, tmp_path, kind_name):
        async def main():
            sched = make_scheduler(tmp_path)
            job = sched.submit("alice", kind_name, {"values": [1]})
            sched.cancel(job.id)
            assert job.state == "cancelled"
            await sched.close()
        run(main())

    def test_cancel_running_job_stops_at_shard_boundary(
            self, tmp_path, request):
        slow = f"c_{request.node.name[:36]}"
        kindutil.register_test_kind(slow, tmp_path, delay=0.25)
        try:
            async def main():
                sched = make_scheduler(
                    tmp_path, worker_jobs=1, shard_points=1,
                )
                sched.start()
                try:
                    job = sched.submit("alice", slow,
                                       {"values": [1, 2, 3, 4, 5]})
                    while job.done_points == 0:
                        await asyncio.sleep(0.02)
                    sched.cancel(job.id)
                    done = await wait_terminal(sched, job.id)
                    assert done.state == "cancelled"
                    assert done.done_points < 5
                finally:
                    await sched.close()
            run(main())
        finally:
            kindutil.unregister(slow)

    def test_timeout_kill_emits_hang_event_and_job_completes(
            self, tmp_path, request):
        """A hung worker inside a serve job is killed by point_timeout,
        resumes via retry, and the job streams a structured hang event
        — the PR 3/4 plumbing surfaced per job."""
        name = f"h_{request.node.name[:36]}"
        kindutil.register_test_kind(name, tmp_path,
                                    worker=kindutil.hang_once_point)
        try:
            async def main():
                sched = make_scheduler(
                    tmp_path, worker_jobs=2, point_timeout=0.5,
                    max_attempts=3,
                    checkpoint_root=str(tmp_path / "ckpt"),
                )
                sched.start()
                try:
                    job = sched.submit("alice", name,
                                       {"values": [0, 1, 2, 3]})
                    done = await wait_terminal(sched, job.id)
                    assert done.state == "done"
                    assert done.payload == {"values": [0, 2, 4, 6]}
                    hang = [e for e in done.events if e.type == "hang"]
                    assert hang and hang[0].data["timeout_kills"] >= 1
                    assert done.run_stats.timeout_kills >= 1
                finally:
                    await sched.close()
            run(main())
        finally:
            kindutil.unregister(name)


class TestMaintenance:
    def test_maintenance_reaps_stale_cache_tmp(self, tmp_path, kind_name):
        import os

        cache_root = tmp_path / "cache"
        cache = ResultCache(root=cache_root, tmp_max_age_s=60.0)
        stale = cache_root / "orphan.tmp"
        cache_root.mkdir(parents=True, exist_ok=True)
        stale.write_text("{}")
        old = time.time() - 3600
        os.utime(stale, (old, old))

        async def main():
            sched = make_scheduler(tmp_path, cache=cache,
                                   maintenance_interval=0.05)
            sched.start()
            for _ in range(100):
                if not stale.exists():
                    break
                await asyncio.sleep(0.05)
            await sched.close()
            assert not stale.exists()
            assert sched.reaped_tmp >= 1
        run(main())
