"""Cache: hits/misses, MSHR coalescing and limits, eviction/writeback,
prefetching.  Uses an IdealMemory downstream so timing is deterministic."""

import pytest

from repro.resilience.serialize import CheckpointError
from repro.soc.cache.cache import Cache, StridePrefetcher
from repro.soc.cache.sets import BLOCK, SparseSets
from repro.soc.mem.ideal import IdealMemory
from repro.soc.mem.physmem import PhysicalMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation


class Harness:
    """Drives a cache's cpu_side and records responses."""

    def __init__(self, sim: Simulation, cache: Cache):
        self.sim = sim
        self.responses: list[Packet] = []
        self.rejects = 0
        self.port = RequestPort(
            "driver",
            recv_timing_resp=lambda pkt: (self.responses.append(pkt), True)[1],
            recv_req_retry=lambda: None,
        )
        self.port.connect(cache.cpu_side)

    def read(self, addr: int, size: int = 8) -> bool:
        ok = self.port.send_timing_req(
            Packet(MemCmd.ReadReq, addr, size, requestor="drv")
        )
        if not ok:
            self.rejects += 1
        return ok

    def write(self, addr: int, data: bytes) -> bool:
        ok = self.port.send_timing_req(
            Packet(MemCmd.WriteReq, addr, len(data), data=data, requestor="drv")
        )
        if not ok:
            self.rejects += 1
        return ok

    def drain(self, ticks: int = 10**7) -> None:
        self.sim.run(until=self.sim.now + ticks)


def _plain_rig():
    sim = Simulation()
    cache = Cache(sim, "c", size=4 * 1024, assoc=2, latency_cycles=2, mshrs=4)
    mem = IdealMemory(sim, "mem", latency_cycles=5)
    cache.mem_side.connect(mem.port)
    return sim, cache, Harness(sim, cache), mem


def _coherent_rig():
    """The other policy over the same core: one MESI L1 (same geometry,
    same four MSHRs) under a directory."""
    from repro.coherence.directory import DirectoryController
    from repro.coherence.l1 import CoherentL1Cache
    from repro.soc.interconnect.coherent import CoherentXbar

    sim = Simulation()
    cache = CoherentL1Cache(sim, "c", size=4 * 1024, assoc=2,
                            latency_cycles=2, mshrs=4)
    xbar = CoherentXbar(sim, "cohbus")
    directory = DirectoryController(sim, "l2dir", latency_cycles=4)
    mem = IdealMemory(sim, "mem", latency_cycles=5)
    cache.mem_side.connect(xbar.new_cpu_port())
    xbar.new_mem_port().connect(directory.cpu_side)
    directory.mem_side.connect(mem.port)
    return sim, cache, Harness(sim, cache), mem


@pytest.fixture
def rig():
    return _plain_rig()


class TestHitMiss:
    def test_cold_miss_then_hit(self, rig):
        sim, cache, h, _ = rig
        h.read(0x100)
        h.drain()
        assert cache.st_misses.value() == 1
        h.read(0x108)  # same block
        h.drain()
        assert cache.st_hits.value() == 1
        assert len(h.responses) == 2

    def test_distinct_blocks_all_miss(self, rig):
        sim, cache, h, _ = rig
        for i in range(3):
            h.read(i * BLOCK)
            h.drain()
        assert cache.st_misses.value() == 3

    def test_response_carries_data(self, rig):
        sim, cache, h, mem = rig
        mem.physmem.write(0x200, b"\xaa" * 8)
        h.read(0x200)
        h.drain()
        assert h.responses[0].data == b"\xaa" * 8

    def test_write_then_read_returns_written_data(self, rig):
        sim, cache, h, mem = rig
        h.write(0x300, b"\x11" * 8)
        h.drain()
        h.read(0x300)
        h.drain()
        assert h.responses[-1].data == b"\x11" * 8

    def test_line_straddling_request_rejected(self, rig):
        sim, cache, h, _ = rig
        with pytest.raises(ValueError):
            h.read(BLOCK - 4, size=8)

    def test_hit_latency_is_configured_latency(self, rig):
        sim, cache, h, _ = rig
        h.read(0x100)
        h.drain()
        start = sim.now
        h.read(0x100)
        h.drain()
        latency_ticks = h.responses[1].resp_tick or sim.now
        # hit = 2 cycles of the 2GHz clock = 1000 ticks
        assert cache.st_hits.value() == 1


class TestMSHR:
    def test_same_block_misses_coalesce(self, rig):
        sim, cache, h, _ = rig
        h.read(0x400)
        h.read(0x408)
        h.read(0x410)
        h.drain()
        assert cache.st_misses.value() == 3
        assert cache.st_coalesced.value() == 2
        assert len(h.responses) == 3

    def test_mshr_exhaustion_rejects(self, rig):
        sim, cache, h, _ = rig
        accepted = sum(h.read(i * BLOCK) for i in range(6))
        # 4 MSHRs -> at most 4 outstanding blocks accepted at once
        assert accepted == 4
        assert cache.st_mshr_rejects.value() == 2
        h.drain()
        assert len(h.responses) == 4

    def test_retry_sent_after_fill(self):
        """The MSHR file's contract, once for both policies that stand
        on it: the request that finds every MSHR busy is refused and
        counted, and the requester hears a retry when one is released —
        not before, and once."""
        for make_rig in (_plain_rig, _coherent_rig):
            sim, cache, h, _ = make_rig()
            kind = type(cache).__name__
            retried = []
            h.port._recv_req_retry = lambda: retried.append(
                cache.mshr_occupancy())
            accepted = [h.read(i * BLOCK) for i in range(5)]
            assert accepted == [True] * 4 + [False], kind
            assert cache.st_mshr_rejects.value() == 1, kind
            assert cache.mshr_occupancy() == 4 and not retried, kind
            h.drain()
            assert retried == [3], (
                f"{kind} must send one retry once an MSHR frees")
            assert len(h.responses) == 4, kind

    def test_mshr_occupancy_tracks_outstanding(self, rig):
        sim, cache, h, _ = rig
        h.read(0)
        h.read(BLOCK)
        assert cache.mshr_occupancy() == 2
        h.drain()
        assert cache.mshr_occupancy() == 0


class TestEviction:
    def test_eviction_after_filling_a_set(self, rig):
        sim, cache, h, _ = rig
        sets = cache.num_sets
        # 3 blocks mapping to set 0 with assoc 2 -> one eviction
        for i in range(3):
            h.read(i * sets * BLOCK)
            h.drain()
        assert cache.st_evictions.value() == 1

    def test_lru_victim_selection(self, rig):
        sim, cache, h, _ = rig
        sets = cache.num_sets
        a, b, c = (i * sets * BLOCK for i in range(3))
        h.read(a); h.drain()
        h.read(b); h.drain()
        h.read(a); h.drain()   # touch a: b becomes LRU
        h.read(c); h.drain()   # evicts b
        assert cache.contains(a) and cache.contains(c)
        assert not cache.contains(b)

    def test_lru_victim_selection_across_a_state_round_trip(self, rig):
        """The same victim when the tags go through state()/load()
        between the touch and the fill that evicts."""
        sim, cache, h, _ = rig
        sets = cache.num_sets
        a, b, c = (i * sets * BLOCK for i in range(3))
        h.read(a); h.drain()
        h.read(b); h.drain()
        h.read(a); h.drain()   # touch a: b becomes LRU
        state = cache._tags.state(lambda dirty: (dirty,))
        assert state["lines"] == [[0, [[1, False], [0, False]]]]
        cache._tags.load(state, bool, "c.tags")
        h.read(c); h.drain()   # evicts b
        assert cache.contains(a) and cache.contains(c)
        assert not cache.contains(b)

    def test_dirty_eviction_emits_writeback(self, rig):
        sim, cache, h, mem = rig
        sets = cache.num_sets
        h.write(0, b"\xcc" * 8); h.drain()
        h.read(1 * sets * BLOCK); h.drain()
        h.read(2 * sets * BLOCK); h.drain()
        assert cache.st_writebacks.value() == 1

    def test_clean_eviction_no_writeback(self, rig):
        sim, cache, h, _ = rig
        sets = cache.num_sets
        for i in range(3):
            h.read(i * sets * BLOCK); h.drain()
        assert cache.st_writebacks.value() == 0


class TestWritebackAbsorption:
    def test_l2_absorbs_l1_writeback(self):
        sim = Simulation()
        l1 = Cache(sim, "l1", 1024, 2, 1, mshrs=4)
        l2 = Cache(sim, "l2", 8 * 1024, 4, 2, mshrs=8)
        mem = IdealMemory(sim, "mem", latency_cycles=3)
        h = Harness(sim, l1)
        l1.mem_side.connect(l2.cpu_side)
        l2.mem_side.connect(mem.port)

        sets = l1.num_sets
        h.write(0, b"\x55" * 8); h.drain()
        h.read(1 * sets * 64); h.drain()
        h.read(2 * sets * 64); h.drain()  # evict dirty line from L1
        assert l1.st_writebacks.value() == 1
        # L2 has the block (allocated by the earlier fill): absorbed
        assert l2.contains(0)


class TestPrefetcher:
    def test_stride_stream_triggers_prefetches(self):
        sim = Simulation()
        pf = StridePrefetcher(degree=2)
        cache = Cache(sim, "c", 64 * 1024, 4, 2, mshrs=16, prefetcher=pf)
        mem = IdealMemory(sim, "mem", latency_cycles=3)
        cache.mem_side.connect(mem.port)
        h = Harness(sim, cache)
        for i in range(8):
            h.read(i * BLOCK)
            h.drain()
        assert cache.st_prefetches.value() > 0

    def test_prefetch_hits_counted(self):
        sim = Simulation()
        pf = StridePrefetcher(degree=4)
        cache = Cache(sim, "c", 64 * 1024, 4, 2, mshrs=16, prefetcher=pf)
        mem = IdealMemory(sim, "mem", latency_cycles=3)
        cache.mem_side.connect(mem.port)
        h = Harness(sim, cache)
        for i in range(16):
            h.read(i * BLOCK)
            h.drain()
        assert cache.st_prefetch_hits.value() > 0
        # prefetching reduced demand misses below the block count
        assert cache.st_misses.value() < 16

    def test_random_stream_no_prefetch_storm(self):
        sim = Simulation()
        pf = StridePrefetcher(degree=2)
        cache = Cache(sim, "c", 64 * 1024, 4, 2, mshrs=16, prefetcher=pf)
        mem = IdealMemory(sim, "mem", latency_cycles=3)
        cache.mem_side.connect(mem.port)
        h = Harness(sim, cache)
        import random

        rng = random.Random(9)
        for _ in range(30):
            h.read(rng.randrange(0, 1 << 20) & ~63)
            h.drain()
        assert cache.st_prefetches.value() <= 6


class TestMissListeners:
    def test_listener_fires_per_demand_miss(self, rig):
        sim, cache, h, _ = rig
        events = []
        cache.miss_listeners.append(lambda pkt: events.append(pkt.addr))
        h.read(0x100); h.drain()
        h.read(0x100); h.drain()
        h.read(0x100 + BLOCK); h.drain()
        assert len(events) == 2


class TestSparseSets:
    def test_a_set_exists_from_its_first_touch(self):
        store = SparseSets(num_sets=1 << 18, assoc=16)
        assert len(store) == 0
        assert 7 not in store[1234]
        assert len(store) == 1
        assert store[1234] is store[1234]

    def test_occupied_ascends_whatever_the_touch_order(self):
        store = SparseSets(num_sets=64, assoc=2)
        for set_idx in (41, 3, 63, 0, 17):
            store[set_idx][set_idx * 10] = True
        assert list(store) == [41, 3, 63, 0, 17]
        assert [i for i, _ in store.occupied()] == [0, 3, 17, 41, 63]
        assert [i for i, _ in store.state(lambda _: ())["lines"]] == \
            [0, 3, 17, 41, 63]

    def test_an_empty_set_is_not_state(self):
        store = SparseSets(num_sets=64, assoc=2)
        before = store.state(lambda line: (line,))
        store[9][1] = "x"
        store[5].get(1)            # a miss: allocated, never filled
        del store[9][1]            # an invalidation: filled, then emptied
        assert len(store) == 2
        assert store.occupied() == []
        assert store.state(lambda line: (line,)) == before

    def test_state_keeps_lru_order_within_a_set(self):
        store = SparseSets(num_sets=4, assoc=4)
        for tag in (5, 9, 2):
            store[1][tag] = tag % 2 == 0
        store[1].move_to_end(5)
        state = store.state(lambda dirty: (dirty,))
        assert state == {"num_sets": 4, "assoc": 4,
                         "lines": [[1, [[9, False], [2, True], [5, False]]]]}
        twin = SparseSets(num_sets=4, assoc=4)
        twin[3][1] = True          # replaced, not merged
        twin.load(state, bool, "twin")
        assert list(twin) == [1]
        assert list(twin[1].items()) == [(9, False), (2, True), (5, False)]
        assert twin[1].popitem(last=False) == store[1].popitem(last=False)

    @pytest.mark.parametrize(
        "state,why",
        [
            ({"num_sets": 8, "assoc": 4, "lines": []}, "holds 8 sets x 4"),
            ({"num_sets": 4, "assoc": 2, "lines": []}, "holds 4 sets x 2"),
            ({"num_sets": 4, "assoc": 4, "lines": [[4, [[0]]]]}, "set 4 "),
            ({"num_sets": 4, "assoc": 4, "lines": [[-1, [[0]]]]}, "set -1 "),
            ({"num_sets": 4, "assoc": 4,
              "lines": [[0, [[t] for t in range(5)]]]}, "with 5 lines"),
            ({"num_sets": 4, "assoc": 4, "lines": [[0, []]]}, "with 0 lines"),
        ],
    )
    def test_load_refuses_what_does_not_fit(self, state, why):
        store = SparseSets(num_sets=4, assoc=4)
        with pytest.raises(CheckpointError, match="sys.llc.tags: .*" + why):
            store.load(state, lambda: True, "sys.llc.tags")


class TestGeometry:
    def test_bad_size_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            Cache(sim, "c", size=1000, assoc=3, latency_cycles=1, mshrs=4)

    def test_occupancy_counts_lines(self, rig):
        sim, cache, h, _ = rig
        h.read(0); h.read(BLOCK)
        h.drain()
        assert cache.occupancy() == 2

    def test_construction_allocates_no_set(self):
        cache = Cache(Simulation(), "llc", size=16 << 20, assoc=16,
                      latency_cycles=20, mshrs=256)
        assert cache.num_sets == 16384
        assert len(cache._tags) == 0
        assert not cache.contains(0x1234_0000)
        assert cache.occupancy() == 0
