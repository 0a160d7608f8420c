"""Deterministic fault injection: plans, schedules, and chaos replay."""

import os
import subprocess
import sys

import pytest

from repro.resilience import Fault, FaultInjector, FaultPlan
from repro.soc.cpu.uop import alu, load, store
from repro.soc.system import SoC, SoCConfig

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestPlan:
    def test_parse_specs(self):
        plan = FaultPlan.parse(
            ["dram-drop@7", "dram-delay@3:200", "retry-storm@50:100"],
            seed=42,
        )
        assert [f.spec() for f in plan] == \
            ["dram-drop@7", "dram-delay@3:200", "retry-storm@50:100"]
        assert plan.seed == 42

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            FaultPlan.parse(["dram-drop"])
        with pytest.raises(ValueError):
            FaultPlan.parse(["no-such-kind@5"])
        with pytest.raises(ValueError):
            Fault("dram-drop", -1)

    def test_generate_is_seed_deterministic(self):
        a = FaultPlan.generate(seed=7)
        b = FaultPlan.generate(seed=7)
        c = FaultPlan.generate(seed=8)
        assert a.schedule_digest() == b.schedule_digest()
        assert a.schedule_digest() != c.schedule_digest()

    def test_json_roundtrip(self):
        plan = FaultPlan.parse(["worker-kill@2", "rtl-flip@10:3"], seed=1)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.schedule_digest() == plan.schedule_digest()
        assert clone.seed == 1

    def test_fault_kind_split(self):
        plan = FaultPlan.parse(["dram-drop@1", "worker-hang@0:1"])
        assert [f.kind for f in plan.sim_faults()] == ["dram-drop"]
        assert [f.kind for f in plan.worker_faults()] == ["worker-hang"]


def _workload(n=1200):
    uops = []
    for i in range(n):
        uops.append(load(0x1000 + (i * 64) % (128 * 1024)))
        uops.append(alu(1))
        uops.append(store(0x100000 + (i * 64) % (32 * 1024)))
    return uops


def _run_with_plan(plan):
    soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
    soc.cores[0].run_stream(iter(_workload()))
    injector = FaultInjector(soc.sim, plan)
    soc.run_until_done(max_ticks=10**9)
    return soc, injector


class TestInjection:
    def test_same_plan_same_stats(self):
        """Chaos replay: the same seeded plan yields an identical
        simulation — schedule, end tick and every statistic."""
        plan = FaultPlan.parse(["dram-delay@10:300"], seed=3)
        soc_a, _ = _run_with_plan(plan)
        soc_b, _ = _run_with_plan(FaultPlan.from_json(plan.to_json()))
        assert soc_a.sim.now == soc_b.sim.now
        assert soc_a.sim.stats_dump() == soc_b.sim.stats_dump()

    def test_dram_delay_perturbs_but_completes(self):
        clean, _ = _run_with_plan(FaultPlan([]))
        delayed, injector = _run_with_plan(
            FaultPlan.parse(["dram-delay@10:2000"])
        )
        assert injector.st_delayed.value() == 1
        assert delayed.cores[0].done
        # the held response really moved the timing (end ticks are
        # quantized to run-loop boundaries, so compare statistics)
        assert delayed.sim.stats_dump() != clean.sim.stats_dump()

    def test_finite_retry_storm_counts_cycles(self):
        _soc, injector = _run_with_plan(
            FaultPlan.parse(["retry-storm@2000:500"])
        )
        assert injector.st_storm_cycles.value() == 500

    def test_injected_run_checkpoints_mid_chaos(self, tmp_path):
        """A checkpoint taken while a delayed response is in flight
        restores and completes identically (tagged-event coverage)."""
        plan = FaultPlan.parse(["dram-delay@10:30000"])

        def build():
            soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
            soc.cores[0].run_stream(iter(_workload()))
            FaultInjector(soc.sim, plan)
            return soc

        ref = build()
        ref.run_until_done(max_ticks=10**9)
        ref.sim.run(until=ref.sim.now + 1)  # leave the final instant
        end = ref.sim.now

        saver = build()
        saver.sim.startup()
        saver.sim.run(until=120_000)   # inside the 30k-cycle hold window
        path = tmp_path / "chaos.ckpt"
        saver.save_checkpoint(path)

        resumed = build()
        resumed.restore(path)
        resumed.run_until_done(max_ticks=10**9)
        resumed.sim.run(until=end)
        ref.sim.run(until=end)
        assert resumed.sim.stats_dump() == ref.sim.stats_dump()

    def test_checkpoint_refuses_other_plan(self, tmp_path):
        plan = FaultPlan.parse(["dram-delay@10:300"])

        def build(p):
            soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
            soc.cores[0].run_stream(iter(_workload()))
            FaultInjector(soc.sim, p)
            return soc

        saver = build(plan)
        saver.sim.startup()
        saver.sim.run(until=50_000)
        path = tmp_path / "p.ckpt"
        saver.save_checkpoint(path)
        other = build(FaultPlan.parse(["dram-delay@11:300"]))
        with pytest.raises(ValueError, match="different\\s+fault plan"):
            other.restore(path)


class TestRtlFlip:
    def test_flip_corrupts_rtl_state(self):
        from repro.dse.pmu_experiment import build_pmu_system

        soc, pmu, drv = build_pmu_system(n_sort=60, memory="DDR4-1ch")
        injector = FaultInjector(soc.sim, FaultPlan.parse(["rtl-flip@200:5"]))
        soc.sim.startup()
        soc.sim.run(until=soc.sim.default_clock.cycles_to_ticks(2_000))
        assert injector.st_flips.value() >= 1
        pmu.stop()


def _target_library(name: str):
    """The shared library a campaign target's rig runs, built on the
    interpreter backend."""
    from repro.models.pmu import PMUSharedLibrary
    from repro.models.rtlcache import (
        RTLCacheCohSharedLibrary, RTLCacheECCSharedLibrary,
        RTLCacheSharedLibrary,
    )

    return {
        "pmu": lambda: PMUSharedLibrary(backend="interp"),
        "rtlcache": lambda: RTLCacheSharedLibrary(idxw=4, backend="interp"),
        "rtlcache_ecc": lambda: RTLCacheECCSharedLibrary(
            idxw=4, backend="interp"),
        "coherence": lambda: RTLCacheCohSharedLibrary(
            idxw=4, backend="interp"),
    }[name]()


class TestTargetFaultSpace:
    """A target's ``module()`` is the elaborated design, read without
    building a simulator, and spans the same flip targets as the
    simulator its rig runs."""

    NAMES = ["pmu", "rtlcache", "rtlcache_ecc", "coherence"]

    @pytest.mark.parametrize("name", NAMES)
    def test_flip_targets_match_the_simulated_design(self, name):
        from repro.resilience.faults import flip_targets
        from repro.resilience.targets import get_target, normalize_params

        target = get_target(name)
        module = target.module(normalize_params(target))
        reference = _target_library(name).sim.module
        got = flip_targets(module, include_memories=True)
        if name == "coherence":   # the directory's words are not RTL state
            got = [t for t in got if not t[0].startswith("dir_state[")]
        assert got == flip_targets(reference, include_memories=True)

    @pytest.mark.parametrize("name", NAMES)
    def test_module_builds_no_simulator(self, name, monkeypatch):
        from repro.resilience.targets import get_target, normalize_params
        from repro.rtl.simulator import RTLSimulator

        def refuse(*args, **kwargs):
            raise AssertionError("module() built an RTLSimulator")

        monkeypatch.setattr(RTLSimulator, "__init__", refuse)
        target = get_target(name)
        assert target.module(normalize_params(target)).memories


class TestNamedFlipSpecs:
    """Named ``rtl-flip`` targets: parse, validate, round-trip, digest."""

    def _module(self):
        from repro.resilience.targets import get_target, normalize_params

        target = get_target("rtlcache")
        return target.module(normalize_params(target))

    def test_named_spec_round_trips_through_json(self):
        plan = FaultPlan.parse(
            ["rtl-flip@100:busy.0", "rtl-flip@200:data[3].17"], seed=9
        )
        assert [f.spec() for f in plan] == \
            ["rtl-flip@100:busy.0", "rtl-flip@200:data[3].17"]
        clone = FaultPlan.from_json(plan.to_json())
        assert [f.signal for f in clone] == ["busy", "data[3]"]
        assert [f.arg for f in clone] == [0, 17]
        assert clone.schedule_digest() == plan.schedule_digest()

    def test_digest_distinguishes_signals(self):
        a = FaultPlan.parse(["rtl-flip@100:busy.0"])
        b = FaultPlan.parse(["rtl-flip@100:hits.0"])
        c = FaultPlan.parse(["rtl-flip@100:busy.0"])
        assert a.schedule_digest() == c.schedule_digest()
        assert a.schedule_digest() != b.schedule_digest()

    def test_parse_time_validation_against_design(self):
        module = self._module()
        # valid named targets parse cleanly
        FaultPlan.parse(["rtl-flip@5:busy.0", "rtl-flip@5:data[0].63"],
                        design=module)
        with pytest.raises(ValueError, match="unknown signal"):
            FaultPlan.parse(["rtl-flip@5:nosuch.0"], design=module)
        with pytest.raises(ValueError, match="out of range"):
            FaultPlan.parse(["rtl-flip@5:busy.1"], design=module)
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse(["rtl-flip@5:data[9999].0"], design=module)

    def test_malformed_named_target_rejected_without_design(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse(["rtl-flip@5:busy["])
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse(["rtl-flip@5:busy.x"])

    def test_only_rtl_flip_takes_a_signal(self):
        with pytest.raises(ValueError, match="only rtl-flip"):
            Fault("dram-drop", 5, 0, signal="busy")


class TestWorkerFaults:
    """Worker faults run in a subprocess: ``worker-kill`` hard-exits."""

    CHILD = """
import sys
from repro.resilience import FaultPlan, apply_worker_faults
plan = FaultPlan.parse(["worker-kill@1"])
apply_worker_faults(plan, int(sys.argv[1]), sys.argv[2])
sys.exit(0)
"""

    def _run_child(self, point, marker_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", self.CHILD, str(point), str(marker_dir)],
            env=env, timeout=60,
        ).returncode

    def test_kill_fires_once_then_runs_clean(self, tmp_path):
        assert self._run_child(0, tmp_path) == 0     # untargeted point
        assert self._run_child(1, tmp_path) == 13    # first attempt dies
        assert self._run_child(1, tmp_path) == 0     # retry sees marker
        assert (tmp_path / "worker-kill-1").exists()

    def test_no_plan_is_a_noop(self, tmp_path):
        from repro.resilience import apply_worker_faults

        apply_worker_faults(None, 0, str(tmp_path))
        assert not list(tmp_path.iterdir())
