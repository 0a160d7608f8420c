"""Coherent multi-core SoC: per-core stats layout and snoop scaling.

Pins the dumped stat-key layout for a 2-core coherent system — every
core's L1 reports under its own ``system.cpuN.l1d.*`` namespace — and
the regression for the silent-merge bug that motivated it: duplicate
flat keys in a stats dump must raise, never alias two caches' counters
into one row.
"""

from __future__ import annotations

import pytest

from repro.soc.stats import StatGroup
from repro.soc.system import SoC, SoCConfig
from repro.workloads import sharing_benchmark

L1D_STATS = (
    "evictions",
    "hits",
    "interventions",
    "invalidations",
    "miss_latency_cycles::count",
    "miss_latency_cycles::mean",
    "miss_latency_cycles::stdev",
    "misses",
    "mshr_hits",
    "mshr_rejects",
    "snoops",
    "upgrade_misses",
    "writebacks",
)


def _run_coherent(cores: int, iters: int = 60) -> dict:
    soc = SoC(SoCConfig(num_cores=cores, memory="DDR4-1ch", coherent=True))
    for core, stream in zip(soc.cores, sharing_benchmark(cores, iters=iters)):
        core.run_stream(stream)
    soc.run_until_done()
    return soc.sim.stats_dump()


class TestStatsKeyLayout:
    def test_two_core_l1d_key_set_is_pinned(self):
        stats = _run_coherent(2)
        got = sorted(k for k in stats if ".l1d." in k)
        want = sorted(
            f"system.cpu{core}.l1d.{name}"
            for core in range(2)
            for name in L1D_STATS
        )
        assert got == want

    def test_per_core_counters_are_distinct_rows(self):
        stats = _run_coherent(2)
        # both cores did real work; neither row absorbed the other
        assert stats["system.cpu0.l1d.hits"] > 0
        assert stats["system.cpu1.l1d.hits"] > 0


class TestDumpCollisionRegression:
    def test_dotted_stat_name_aliasing_a_group_raises(self):
        root = StatGroup("system")
        cpu0 = StatGroup("cpu0", root)
        cpu0.scalar("hits").inc()
        root.scalar("cpu0.hits").inc()
        with pytest.raises(ValueError, match="collision"):
            root.dump()

    def test_collision_inside_one_group_raises(self):
        root = StatGroup("system")
        root.scalar("l1d.hits").inc()
        l1d = StatGroup("l1d", root)
        l1d.scalar("hits").inc()
        with pytest.raises(ValueError, match="collision"):
            root.dump()


def _mean_mpki(stats: dict, cores: int) -> float:
    return sum(
        1000.0 * stats[f"system.cpu{c}.l1d.misses"]
        / stats[f"system.cpu{c}.committed"]
        for c in range(cores)
    ) / cores


class TestSnoopScaling:
    def test_invalidations_appear_only_with_sharers(self):
        one = _run_coherent(1)
        two = _run_coherent(2)
        assert one["system.cpu0.l1d.invalidations"] == 0
        assert two["system.cpu0.l1d.invalidations"] > 0
        assert two["system.l2dir.snoops_sent"] > one["system.l2dir.snoops_sent"]
        # the coherence signature: each core's working set is the same
        # size, yet per-core MPKI rises once somebody invalidates it
        assert _mean_mpki(two, 2) > _mean_mpki(one, 1)

    def test_snoop_traffic_grows_with_sharer_count(self):
        two = _run_coherent(2)
        four = _run_coherent(4)
        assert four["system.l2dir.snoops_sent"] > two["system.l2dir.snoops_sent"]
