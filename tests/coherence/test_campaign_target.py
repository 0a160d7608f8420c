"""The coherence fault-campaign target: directory metadata is fault space.

The directory's sharer/owner metadata is behavioural (no flops), so the
campaign covers it through a ``dir_state`` pseudo-memory: sampled
``dir_state[k]`` faults route to ``DirectoryController.flip_state_bit``
via the injector's duck-typed hook.  A flipped sharer bit is a lost (or
phantom) invalidation and must surface — as a ProtocolError crash, a
hang, or a detected invariant violation — never as silent corruption of
the golden observables without detection.
"""

from __future__ import annotations

import pytest

from repro.resilience.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    flip_targets,
)
from repro.resilience.targets import get_target, normalize_params


@pytest.fixture(scope="module")
def target():
    return get_target("coherence")


class TestFaultSpace:
    def test_dir_state_words_are_flip_targets(self, target):
        module = target.module(normalize_params(target))
        targets = dict(flip_targets(module, include_memories=True))
        from repro.coherence.directory import DIR_STATE_DEPTH, DIR_STATE_WIDTH

        for word in range(DIR_STATE_DEPTH):
            assert targets[f"dir_state[{word}]"] == DIR_STATE_WIDTH
        # the RTL participant's own flops are still covered
        assert "busy" in targets

    def test_rtl_memories_are_covered_too(self, target):
        module = target.module(normalize_params(target))
        names = {name for name, _ in flip_targets(module,
                                                  include_memories=True)}
        assert any(name.startswith("tags[") for name in names)


class TestInjection:
    def test_golden_run_is_clean(self, target):
        rig = target.build(normalize_params(target))
        try:
            rig.run(target.max_cycles)
            obs = rig.observables()
            assert all(obs[f"responses[{i}]"] > 0 for i in range(3))
            assert rig.detection() == {"invariant_violations": 0}
        finally:
            rig.finish()

    def test_dir_state_flip_reaches_the_directory(self, target):
        from repro.coherence.protocol import ProtocolError
        from repro.resilience.targets import (
            CycleBudgetExceeded, WallClockExceeded,
        )

        rig = target.build(normalize_params(target))
        plan = FaultPlan([Fault("rtl-flip", 800, 0,
                                signal="dir_state[2]")])
        inj = FaultInjector(rig.sim, plan, absolute_cycles=True)
        try:
            try:
                rig.run(target.max_cycles)
            except (ProtocolError, CycleBudgetExceeded, WallClockExceeded):
                pass  # detected: the corrupted metadata tripped an audit
            assert int(inj.st_flips.value()) == 1
        finally:
            rig.finish()

    def test_dir_state_flip_is_noop_without_a_directory(self, target):
        """The same named fault must skip systems that lack the hook."""
        from repro.resilience.targets import CacheRig

        cache_target = get_target("rtlcache")
        rig = cache_target.build(normalize_params(cache_target))
        plan = FaultPlan([Fault("rtl-flip", 200, 0,
                                signal="dir_state[2]")])
        inj = FaultInjector(rig.sim, plan, absolute_cycles=True)
        assert isinstance(rig, CacheRig)
        try:
            rig.run(cache_target.max_cycles)
            assert int(inj.st_flips.value()) == 0
        finally:
            rig.finish()
