"""Control glue: pending CLI hooks, periodic checkpoints, point resume."""

import pytest

from repro.resilience import FaultPlan, PeriodicCheckpointer
from repro.resilience import control
from repro.soc.cpu.uop import alu, load, store
from repro.soc.system import SoC, SoCConfig


@pytest.fixture(autouse=True)
def _clean_pending():
    control.clear_pending()
    yield
    control.clear_pending()


def _workload(n=800):
    uops = []
    for i in range(n):
        uops.append(load(0x1000 + (i * 64) % 8192))
        uops.append(alu(1))
        uops.append(store(0x40000 + (i * 64) % 8192))
    return uops


def _build():
    soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
    soc.cores[0].run_stream(iter(_workload()))
    return soc


class TestPeriodicCheckpointer:
    def test_writes_numbered_snapshots(self, tmp_path):
        soc = _build()
        ckpt = PeriodicCheckpointer(soc.sim, every_cycles=5_000,
                                    directory=tmp_path)
        soc.sim.startup()
        step = soc.sim.default_clock.cycles_to_ticks(5_000)
        soc.sim.run(until=3 * step + 1)
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.ckpt"))
        assert names == ["ckpt-0000.ckpt", "ckpt-0001.ckpt",
                         "ckpt-0002.ckpt"]
        assert ckpt.st_saved.value() == 3
        assert ckpt.last_checkpoint_path.endswith("ckpt-0002.ckpt")

    def test_snapshot_resumes_with_checkpointing_armed(self, tmp_path):
        """The snapshot contains the checkpointer's own next event, so a
        restored run keeps producing checkpoints (index continues), and
        counts them as the uninterrupted run does."""
        soc = _build()
        ckpt_a = PeriodicCheckpointer(soc.sim, every_cycles=5_000,
                                      directory=tmp_path / "a")
        soc.sim.startup()
        step = soc.sim.default_clock.cycles_to_ticks(5_000)
        soc.sim.run(until=2 * step + 1)

        resumed = _build()
        ckpt_b = PeriodicCheckpointer(resumed.sim, every_cycles=5_000,
                                      directory=tmp_path / "a")
        resumed.restore(control.latest_checkpoint(tmp_path / "a"))
        resumed.sim.run(until=4 * step + 1)
        assert ckpt_b._index > 2
        assert (tmp_path / "a" / "ckpt-0003.ckpt").exists()
        # the save a file holds is counted in it, so the restored count
        # does not lag the uninterrupted one at the same tick
        soc.sim.run(until=4 * step + 1)
        assert ckpt_b.st_saved.value() == ckpt_a.st_saved.value() == 4

    def test_rejects_bad_interval(self, sim, tmp_path):
        with pytest.raises(ValueError):
            PeriodicCheckpointer(sim, every_cycles=0, directory=tmp_path)


class TestLatestCheckpoint:
    def test_orders_by_index(self, tmp_path):
        for i in (0, 2, 1):
            (tmp_path / f"ckpt-{i:04d}.ckpt").write_bytes(b"x")
        latest = control.latest_checkpoint(tmp_path)
        assert latest.endswith("ckpt-0002.ckpt")

    def test_empty_and_missing_dirs(self, tmp_path):
        assert control.latest_checkpoint(tmp_path) is None
        assert control.latest_checkpoint(tmp_path / "absent") is None


class TestPendingHooks:
    def test_first_started_sim_arms_and_clears(self):
        from repro.resilience.faults import FaultInjector
        from repro.resilience.watchdog import Watchdog

        control.set_pending_plan(FaultPlan.parse(["dram-delay@5:100"]))
        control.set_pending_watchdog(check_cycles=10_000)
        soc = _build()
        soc.sim.startup()
        kinds = {type(o).__name__ for o in soc.sim.objects}
        assert {"FaultInjector", "Watchdog"} <= kinds
        # armed exactly once: a second system comes up bare
        other = _build()
        other.sim.startup()
        assert not any(
            isinstance(o, (FaultInjector, Watchdog))
            for o in other.sim.objects
        )

    def test_pending_checkpoints(self, tmp_path):
        control.set_pending_checkpoints(5_000, str(tmp_path))
        soc = _build()
        soc.run_until_done(max_ticks=10**9)
        assert list(tmp_path.glob("ckpt-*.ckpt"))

    def test_pending_restore_round_trip(self, tmp_path):
        saver = _build()
        saver.sim.startup()
        saver.sim.run(until=100_000)
        path = tmp_path / "r.ckpt"
        saver.save_checkpoint(path)

        control.set_pending_restore(str(path))
        resumed = _build()
        resumed.sim.startup()
        assert resumed.sim.now == saver.sim.now


class TestPointResumeContract:
    def test_noop_without_env(self, monkeypatch):
        from repro.parallel.runner import POINT_CKPT_ENV

        monkeypatch.delenv(POINT_CKPT_ENV, raising=False)
        soc = _build()
        assert control.enable_point_checkpoints(soc.sim) is None

    def test_attaches_and_resumes_from_latest(self, tmp_path, monkeypatch):
        """Simulates a killed worker's retry: first attempt checkpoints,
        second attempt resumes from the newest snapshot."""
        from repro.parallel.runner import POINT_CKPT_ENV

        monkeypatch.setenv(POINT_CKPT_ENV, str(tmp_path))
        first = _build()
        control.enable_point_checkpoints(first.sim, every_cycles=5_000)
        first.sim.startup()
        step = first.sim.default_clock.cycles_to_ticks(5_000)
        first.sim.run(until=2 * step + 1)     # "killed" mid-run here
        assert control.latest_checkpoint(tmp_path) is not None

        retry = _build()
        control.enable_point_checkpoints(retry.sim, every_cycles=5_000)
        assert retry.sim.now >= 2 * step      # resumed, not restarted
        retry.run_until_done(max_ticks=10**9)
        assert retry.cores[0].done
