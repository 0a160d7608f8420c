"""Seeded random-sharing stress: invariants, golden memory, pool identity.

The acceptance bar for the coherence subsystem: the MESI invariants hold
under >= 10k seeded random sharing ops at 2 and 4 sharers, the final
memory image equals the interleaving-independent golden write replay,
and the worker-pool fan-out is bit-identical to the serial runs.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.dse.sweep as sweep
from repro.coherence.check import run_sharing_stress
from repro.experiment import run
from repro.parallel.cache import ResultCache


class TestGoldenStress:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_invariants_hold_per_core_count(self, cores):
        result = run_sharing_stress(cores=cores, ops=300, seed=3)
        assert len(result["checksums"]) == cores
        assert result["memory"]
        # the protocol actually exercised sharing above one core
        stats = result["stats"]
        if cores > 1:
            assert stats["system.l2dir.snoops_sent"] > 0
            assert sum(stats[f"system.l1_{c}.invalidations"]
                       for c in range(cores)) > 0

    def test_ten_thousand_ops_at_two_sharers(self):
        run_sharing_stress(cores=2, ops=5_000, seed=11)

    def test_ten_thousand_ops_at_four_sharers(self):
        run_sharing_stress(cores=4, ops=2_500, seed=11)

    def test_deterministic_replay(self):
        a = run_sharing_stress(cores=2, ops=150, seed=4)
        b = run_sharing_stress(cores=2, ops=150, seed=4)
        assert a == b

    def test_seed_changes_the_traffic(self):
        a = run_sharing_stress(cores=2, ops=150, seed=4)
        b = run_sharing_stress(cores=2, ops=150, seed=5)
        assert a["checksums"] != b["checksums"]


class TestPoolIdentity:
    def test_pooled_sweep_bit_identical_to_serial(self):
        serial = {
            n: run_sharing_stress(cores=n, ops=200, seed=9)
            for n in (1, 2, 4)
        }
        pooled = run(sweep.COHERENCE,
                     {"sharers": [1, 2, 4], "ops": 200, "seed": 9}, jobs=2)
        for n, want in serial.items():
            got = {k: v for k, v in pooled[str(n)].items() if k != "seconds"}
            assert got == want, f"pool-mode divergence at sharers={n}"


class TestSweepCache:
    def test_resubmit_is_all_cache_hits(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        params = {"sharers": [1, 2], "ops": 60, "seed": 1}
        first = run(sweep.COHERENCE, params, cache=cache)

        def boom(point):
            raise AssertionError(f"cache miss recomputed point {point}")

        monkeypatch.setattr(sweep, "COHERENCE", dataclasses.replace(
            sweep.COHERENCE, worker=boom))
        second = run(sweep.COHERENCE, params, cache=cache)
        assert second == first

    def test_key_covers_every_axis(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = {
            cache.key(experiment="coherence_point", sharers=s, ops=o,
                      seed=d, rtl=r)
            for s, o, d, r in [(1, 60, 1, False), (2, 60, 1, False),
                               (1, 61, 1, False), (1, 60, 2, False),
                               (1, 60, 1, True)]
        }
        assert len(keys) == 5
