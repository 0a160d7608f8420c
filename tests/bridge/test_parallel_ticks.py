"""Tier-(a) parallel RTLObject ticking: bit-identical to serial.

The contract under test: running N NVDLA instances through the worker
pool (``rtl_jobs > 1``) produces the same end tick, the same stats
counters, and byte-identical mid-run and end-of-run checkpoints as the
serial path.
"""

import hashlib

import pytest

from repro.dse.nvdla_system import build_nvdla_system
from repro.rtl.parallel.pool import PooledLibrary, pool_available
from repro.rtl.parallel.sched import attach_parallel_rtl
from repro.soc.packet import set_next_packet_id
from repro.soc.simobject import Simulation

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="platform lacks the fork start method"
)

SCALE = 0.2  # shrink sanity3 so the suite stays fast


def _run(n_nvdla, rtl_jobs, until=None, ckpt_path=None, end_ckpt_path=None):
    """One full run; returns (end_tick, stats, ckpt_tick).

    With *ckpt_path*, a checkpoint is saved at *until* on the way; with
    *end_ckpt_path*, one is saved where the run ended.  The packet-id
    counter is process-global and serialized raw into checkpoints, so
    it is re-seeded per run to keep runs comparable.
    """
    set_next_packet_id(0)
    system = build_nvdla_system(
        workload="sanity3", n_nvdla=n_nvdla, scale=SCALE,
        rtl_jobs=rtl_jobs,
    )
    if rtl_jobs > 1 and n_nvdla > 1:
        assert system.parallel is not None
        assert all(isinstance(r.library, PooledLibrary) for r in system.rtls)
    else:
        assert system.parallel is None
    ckpt_tick = None
    try:
        sim = system.soc.sim
        if ckpt_path is not None:
            for host in system.hosts:
                host.start()
            sim.startup()
            sim.run(until=until)
            ckpt_tick = sim.save_checkpoint(ckpt_path)
        end = system.run_to_completion()
        assert end == sim.now
        # the run ended where the last CSB write (IRQ_CLEAR) landed: a
        # few cycles after the last interrupt, not on a polling grid
        last_irq = max(h.finish_tick for h in system.hosts)
        assert last_irq < end <= last_irq + 10 * system.rtls[0].clock.period
        assert not any(r.core.irq_pending or r.core.busy for r in system.rtls)
        assert not system.soc.iomaster.busy
        stats = sim.stats_dump()
        if end_ckpt_path is not None:
            assert sim.save_checkpoint(end_ckpt_path) == end
    finally:
        system.close()
    return end, stats, ckpt_tick


class TestAttachGating:
    def test_serial_when_jobs_is_one(self, sim: Simulation):
        assert attach_parallel_rtl(sim, [object(), object()], jobs=1) is None

    def test_serial_with_fewer_than_two_objects(self, sim: Simulation):
        assert attach_parallel_rtl(sim, [object()], jobs=4) is None


class TestBitIdentical:
    def test_two_nvdla_stats_match_serial(self):
        end_s, stats_s, _ = _run(2, rtl_jobs=1)
        end_p, stats_p, _ = _run(2, rtl_jobs=2)
        assert end_p == end_s
        assert stats_p == stats_s
        # sanity: the RTL actually ticked
        assert any("tick" in k and v > 0 for k, v in stats_s.items())

    def test_four_nvdla_stats_match_serial(self):
        end_s, stats_s, _ = _run(4, rtl_jobs=4)
        end_p, stats_p, _ = _run(4, rtl_jobs=1)
        assert end_p == end_s
        assert stats_p == stats_s

    def test_mid_run_checkpoint_bytes_match_serial(self, tmp_path):
        until = 1_000_000
        a = tmp_path / "serial.ckpt"
        b = tmp_path / "parallel.ckpt"
        end_s, stats_s, tick_s = _run(2, 1, until=until, ckpt_path=str(a))
        end_p, stats_p, tick_p = _run(2, 2, until=until, ckpt_path=str(b))
        assert (end_p, tick_p) == (end_s, tick_s)
        assert stats_p == stats_s
        assert (hashlib.sha256(a.read_bytes()).hexdigest()
                == hashlib.sha256(b.read_bytes()).hexdigest())

    @pytest.mark.parametrize("n_nvdla", [1, 4])
    def test_run_ends_at_the_same_tick_and_state(self, tmp_path, n_nvdla):
        a = tmp_path / "serial.ckpt"
        b = tmp_path / "parallel.ckpt"
        end_s, stats_s, _ = _run(n_nvdla, 1, end_ckpt_path=str(a))
        end_p, stats_p, _ = _run(n_nvdla, 2, end_ckpt_path=str(b))
        assert end_p == end_s
        assert stats_p == stats_s
        assert a.read_bytes() == b.read_bytes()


class TestSchedulerLifecycle:
    def test_close_restores_serial_libraries_and_callbacks(self):
        set_next_packet_id(0)
        system = build_nvdla_system(
            workload="sanity3", n_nvdla=2, scale=SCALE, rtl_jobs=2,
        )
        inners = [r.library.inner for r in system.rtls]
        system.run_to_completion()   # closes the scheduler in finally
        assert system.parallel is None
        for rtl, inner in zip(system.rtls, inners):
            assert rtl.library is inner
            assert rtl._tick_event.callback == rtl._tick

    def test_worker_state_synced_home_on_close(self):
        # After close(), the local libraries hold the worker's final
        # model state — a post-run checkpoint must capture it.
        set_next_packet_id(0)
        serial = build_nvdla_system(
            workload="sanity3", n_nvdla=2, scale=SCALE, rtl_jobs=1,
        )
        serial.run_to_completion()
        set_next_packet_id(0)
        parallel = build_nvdla_system(
            workload="sanity3", n_nvdla=2, scale=SCALE, rtl_jobs=2,
        )
        parallel.run_to_completion()
        for rs, rp in zip(serial.rtls, parallel.rtls):
            assert rs.library.checkpoint_state() == \
                rp.library.checkpoint_state()
