"""The RTL cache as a coherence participant.

Lockstep contract: beside the behavioural L1s, the RTL write-through
cache must observe every probe through its snoop pins, report hit/miss
exactly as its mirror predicts, and leave the same observable memory
state as an all-behavioural run.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.coherence import run_sharing_stress
from repro.coherence.check import build_sharing_system
from repro.soc.packet import set_next_packet_id

SMALL = dict(l1_size=1024, mshrs=2)  # force evictions and MSHR pressure


class TestLockstep:
    def test_rtl_beside_behavioural_l1s(self):
        result = run_sharing_stress(cores=2, ops=300, seed=7, rtl=True,
                                    **SMALL)
        stats = result["stats"]
        # every directory probe reached the pins and the pin-level
        # hit/miss matched the mirror (a divergence raises inside)
        assert stats["system.rtl_l1.invalidations"] > 0
        assert (stats["system.rtl_l1.rtl_snoops"]
                == stats["system.rtl_l1.invalidations"])

    def test_rtl_only_participant(self):
        run_sharing_stress(cores=0, ops=200, seed=2, rtl=True)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_lockstep_across_seeds(self, seed):
        run_sharing_stress(cores=2, ops=200, seed=seed, rtl=True, **SMALL)

    def test_two_rtl_participants(self):
        # two write-through RTL caches invalidate each other through
        # the directory; every audit passes and both saw probes
        result = run_sharing_stress(cores=2, ops=150, seed=5, rtl=2,
                                    **SMALL)
        assert result["stats"]["system.rtl_l1.rtl_snoops"] > 0
        assert result["stats"]["system.rtl_l1_1.rtl_snoops"] > 0

    def test_two_rtl_participants_rerun_bit_identical(self, tmp_path):
        # the only place a two-RTL-participant system is checkpointed:
        # at until, snoops and fills are in the air
        def run(ckpt_path, until=1_000_000):
            set_next_packet_id(0)
            system = build_sharing_system(cores=2, ops=150, seed=5, rtl=2,
                                          **SMALL)
            sim = system.sim
            sim.startup()
            sim.run(until=until)
            ckpt_tick = sim.save_checkpoint(str(ckpt_path))
            step = sim.default_clock.cycles_to_ticks(2_000)
            while not (all(d.done for d in system.drivers)
                       and all(c.quiet for c in system.caches)
                       and system.directory.quiet):
                sim.run(until=sim.now + step)
            digest = hashlib.sha256(ckpt_path.read_bytes()).hexdigest()
            return sim.now, sim.stats_dump(), ckpt_tick, digest

        assert run(tmp_path / "a.ckpt") == run(tmp_path / "b.ckpt")
