"""Checkpoint engine unit tests: format, validation, bit-identity."""

import gzip
import json

import pytest

from repro.resilience.serialize import (
    CHECKPOINT_VERSION,
    CheckpointError,
    NotCheckpointable,
    checkpoint_blockers,
    structure_digest,
)
from repro.dse.pmu_experiment import build_pmu_system
from repro.soc.cache.sets import SparseSets
from repro.soc.cpu.uop import alu, load, store
from repro.soc.event import Event
from repro.soc.system import CacheConfig, SoC, SoCConfig
from tests.sharing_uops import false_sharing_uops
from repro.workloads.sorting import sort_benchmark


def _workload(n=600):
    uops = []
    for i in range(n):
        uops.append(load(0x1000 + (i * 64) % 8192))
        uops.append(alu(1))
        uops.append(store(0x40000 + (i * 64) % 8192))
    return uops


def _build(num_cores=1):
    soc = SoC(SoCConfig(num_cores=num_cores, memory="DDR4-1ch"))
    for core in soc.cores:
        core.run_stream(iter(_workload()))
    return soc


END = 6_000_000  # ticks; past the workload for a 1-core DDR4-1ch system


def _build_pmu():
    return build_pmu_system(n_sort=12)[0]


def _build_coherent(**caches):
    soc = SoC(SoCConfig(num_cores=2, memory="DDR4-1ch", coherent=True,
                        **caches))
    for i, core in enumerate(soc.cores):
        core.run_stream(false_sharing_uops(i, 2, iters=60))
    return soc


def _build_sort(llc_size=16 << 20):
    soc = SoC(SoCConfig(num_cores=1,
                        llc=CacheConfig(llc_size, 16, 20, 256)))
    soc.cores[0].run_stream(sort_benchmark(12))
    return soc


def _tag_arrays(soc):
    """Every SparseSets of the system, whichever model owns it."""
    return [
        value
        for obj in soc.sim.objects
        for value in vars(obj).values()
        if isinstance(value, SparseSets)
    ]


def _checkpoint_json(soc, path) -> bytes:
    soc.sim.save_checkpoint(path)
    return gzip.open(path).read()


CYCLE_6000 = 6_000 * 500  # ticks at the 2 GHz core clock


class TestRoundTrip:
    def test_mid_run_roundtrip_is_bit_identical(self, tmp_path):
        """save at an arbitrary mid-run tick -> restore on a freshly
        built twin -> continue: identical final tick and statistics."""
        ref = _build()
        ref.run_until_done(max_ticks=10**9)
        ref.sim.run(until=END)
        expected = ref.sim.stats_dump()

        saver = _build()
        saver.sim.startup()
        saver.sim.run(until=150_000)
        path = tmp_path / "mid.ckpt"
        saver.sim.save_checkpoint(path)

        resumed = _build()
        resumed.sim.restore(path)
        assert resumed.sim.now == saver.sim.now
        resumed.run_until_done(max_ticks=10**9)
        resumed.sim.run(until=END)

        assert resumed.sim.now == ref.sim.now
        assert resumed.sim.stats_dump() == expected

    @pytest.mark.parametrize(
        "build,t1,t2",
        [
            # T1 while the caches are still filling (both workloads
            # are over their misses by tick 600 000)
            pytest.param(_build_pmu, 150_000, CYCLE_6000, id="pmu"),
            pytest.param(_build_coherent, 300_000, 700_000, id="coherent"),
        ],
    )
    def test_next_checkpoint_of_a_restored_run_is_byte_identical(
            self, tmp_path, build, t1, t2):
        """A at T1, run on, B at T2; a fresh twin restores A, runs on
        and writes B' at T2: B == B'.  The restored twin never had the
        sets the saver touched and emptied (or only missed in) before
        T1, and it is made to miss in yet more, from the top down —
        none of that is state."""
        saver = build()
        saver.sim.startup()
        saver.sim.run(until=t1)
        saver.sim.save_checkpoint(tmp_path / "a.ckpt")
        saver.sim.run(until=t2)
        saver.sim.save_checkpoint(tmp_path / "b.ckpt")

        resumed = build()
        resumed.sim.restore(tmp_path / "a.ckpt")
        for store in _tag_arrays(resumed):
            for set_idx in range(store.num_sets - 1, 0, -7):
                assert not store[set_idx].get(-1)
        resumed.sim.run(until=t2)
        resumed.sim.save_checkpoint(tmp_path / "b2.ckpt")

        assert all(len(store) > len(store.occupied())
                   for store in _tag_arrays(resumed))
        assert (tmp_path / "a.ckpt").read_bytes() != \
            (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "b.ckpt").read_bytes() == \
            (tmp_path / "b2.ckpt").read_bytes()

    def test_checkpoint_includes_save_tick(self, tmp_path):
        soc = _build()
        soc.sim.startup()
        soc.sim.run(until=100_000)
        tick = soc.sim.save_checkpoint(tmp_path / "a.ckpt")
        assert tick >= 100_000  # may step past blockers, never back

    def test_same_state_same_bytes(self, tmp_path):
        """Two saves of the same instant are byte-identical (gzip mtime
        pinned, keys sorted) — checkpoints are diffable artifacts."""
        soc = _build()
        soc.sim.startup()
        soc.sim.run(until=100_000)
        soc.sim.save_checkpoint(tmp_path / "a.ckpt")
        soc.sim.save_checkpoint(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()


class TestCostsWhatTheRunTouched:
    """Deterministic counts, not timings: state is O(touched)."""

    def test_pmu_checkpoint_is_small(self, tmp_path):
        soc = _build_pmu()
        soc.sim.startup()
        soc.sim.run(until=CYCLE_6000)
        doc = _checkpoint_json(soc, tmp_path / "a.ckpt")
        assert len(doc) < 16 * 1024  # 78 763 B with dense tag arrays
        llc = json.loads(doc)["objects"]["llc"]["state"]["tags"]
        assert 0 < len(llc["lines"]) == len(soc.llc._tags.occupied())

    def test_checkpoint_size_does_not_grow_with_capacity(self, tmp_path):
        sizes = {}
        for llc_size in (16 << 20, 64 << 20):
            soc = _build_sort(llc_size)
            soc.sim.startup()
            soc.sim.run(until=CYCLE_6000)
            doc = json.loads(_checkpoint_json(soc, tmp_path / "a.ckpt"))
            tags = doc["objects"]["llc"]["state"]["tags"]
            # what is left once the resident lines are taken out: the
            # recorded geometry, whose digits are all that may differ
            tags["lines"] = []
            sizes[llc_size] = (soc.llc.occupancy(), len(json.dumps(tags)))
        (lines_a, fixed_a), (lines_b, fixed_b) = sizes.values()
        assert lines_a == lines_b > 0
        assert abs(fixed_a - fixed_b) <= len("65536") - len("16384") + 1

    def test_construction_allocates_no_set(self):
        soc = _build_sort()
        assert all(len(store) == 0 for store in _tag_arrays(soc))
        coherent = _build_coherent()
        assert all(len(store) == 0 for store in _tag_arrays(coherent))


class TestValidation:
    def test_structure_digest_depends_on_topology(self):
        assert structure_digest(_build(1).sim) != \
            structure_digest(_build(2).sim)

    def test_restore_rejects_different_system(self, tmp_path):
        saver = _build(num_cores=1)
        saver.sim.startup()
        path = tmp_path / "one.ckpt"
        saver.sim.save_checkpoint(path)
        other = _build(num_cores=2)
        with pytest.raises(CheckpointError, match="differently built"):
            other.sim.restore(path)

    def test_restore_rejects_different_cache_geometry(self, tmp_path):
        """The structure digest sees paths and types, not sizes: a
        checkpoint of a 16 MiB LLC used to restore onto a 1 MiB one,
        its lines filed under tags computed for the other geometry."""
        saver = _build_sort(16 << 20)
        saver.sim.startup()
        saver.sim.run(until=CYCLE_6000)
        path = tmp_path / "big.ckpt"
        saver.sim.save_checkpoint(path)
        assert saver.llc.occupancy() > 0
        other = _build_sort(1 << 20)
        with pytest.raises(CheckpointError,
                           match=r"llc\.tags: checkpoint holds 16384 sets "
                                 r"x 16 ways.* 1024 x 16"):
            other.sim.restore(path)
        assert other.llc.num_sets == 1024
        assert other.llc.occupancy() == 0

    @pytest.mark.parametrize(
        "caches,where",
        [
            pytest.param({"l1d": CacheConfig(32 * 1024, 4, 2, 24)},
                         r"cpu0\.l1d\.sets", id="coherent-l1"),
            pytest.param({"l1d": CacheConfig(64 * 1024, 8, 2, 24)},
                         r"cpu0\.l1d\.sets", id="coherent-l1-ways"),
            pytest.param({"l2": CacheConfig(128 * 1024, 8, 9, 24)},
                         r"l2dir\.l2", id="directory-l2"),
        ],
    )
    def test_restore_rejects_different_coherent_geometry(
            self, tmp_path, caches, where):
        saver = _build_coherent()
        saver.sim.startup()
        saver.sim.run(until=1_500_000)
        path = tmp_path / "coh.ckpt"
        saver.sim.save_checkpoint(path)
        other = _build_coherent(**caches)
        with pytest.raises(CheckpointError,
                           match=where + ": checkpoint holds"):
            other.sim.restore(path)

    def test_restore_rejects_unknown_version(self, tmp_path):
        soc = _build()
        soc.sim.startup()
        path = tmp_path / "v.ckpt"
        soc.sim.save_checkpoint(path)
        doc = json.loads(gzip.open(path).read())
        doc["version"] = CHECKPOINT_VERSION + 1
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode())
        with pytest.raises(CheckpointError, match="version"):
            _build().sim.restore(path)

    def test_restore_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x01 this is not a checkpoint")
        with pytest.raises(CheckpointError, match="cannot read"):
            _build().sim.restore(path)

    def test_restore_rejects_non_checkpoint_json(self, tmp_path):
        path = tmp_path / "list.ckpt"
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps([1, 2, 3]).encode())
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            _build().sim.restore(path)

    def test_truncated_checkpoint_is_an_error(self, tmp_path):
        soc = _build()
        soc.sim.startup()
        path = tmp_path / "t.ckpt"
        soc.sim.save_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            _build().sim.restore(path)


class TestBlockers:
    def test_bare_closure_blocks_checkpoint(self, sim):
        """An event the engine cannot attribute to a checkpoint hook
        makes the instant non-checkpointable."""
        ev = Event(lambda: None, "anonymous")
        sim.startup()
        sim.eventq.schedule(ev, sim.now + 100)
        assert any("anonymous" in b for b in checkpoint_blockers(sim))

    def test_perpetual_bare_event_raises(self, sim, tmp_path):
        ev = Event(lambda: sim.eventq.schedule(ev, sim.now + 10),
                   "self_rearming")
        sim.startup()
        sim.eventq.schedule(ev, sim.now + 10)
        with pytest.raises(NotCheckpointable, match="self_rearming"):
            sim.save_checkpoint(tmp_path / "never.ckpt", max_wait=1000)

    def test_save_steps_past_transient_blocker(self, sim, tmp_path):
        """A one-shot bare event only delays the save: the engine
        services it, then checkpoints the next clean instant."""
        fired = []
        ev = Event(lambda: fired.append(True), "oneshot")
        sim.startup()
        sim.eventq.schedule(ev, sim.now + 500)
        tick = sim.save_checkpoint(tmp_path / "later.ckpt")
        assert fired and tick >= 500


class TestFormatThreeKeys:
    """What each memory-system component writes under ``state`` is the
    format: a refactor may move where the data lives in the process (a
    refused packet waits in its port, both caches stand on one core),
    never what the file calls it."""

    CACHE_CORE = {"mshrs", "downstream_q", "blocked_resps", "need_retry"}
    STATE = {
        "Cache": CACHE_CORE | {"tags", "prefetched"},
        "CoherentL1Cache": CACHE_CORE | {"sets"},
        "DirectoryController": {
            "entries", "known", "l2", "inq", "busy", "waiting", "resp_q",
            "downstream_q", "need_retry",
        },
        "DRAMController": {
            "channels", "retry_pending", "retry_rejected", "blocked_resps",
        },
        "IdealMemory": {"blocked"},
        # RTLObject's own; the PMU subclass adds its two on top
        "PMURTLObject": {
            "last_output", "cpu_req_queue", "blocked_resps",
            "mem_req_queue", "mem_resp_queue", "inflight", "running",
            "library",
        } | {"pending_reads", "lane_counts"},
    }
    MSHR = {
        "Cache": {"block_addr", "targets", "is_prefetch", "issued_tick"},
        "CoherentL1Cache": {"block_addr", "cmd", "targets", "ready",
                            "granted", "issued_tick"},
    }

    def test_state_and_mshr_key_sets_are_pinned(self, tmp_path):
        ideal = SoC(SoCConfig(num_cores=1, memory="ideal"))
        ideal.cores[0].run_stream(sort_benchmark(12))
        seen, mshrs_seen = set(), set()
        for i, (soc, tick) in enumerate([(_build_coherent(), 300_000),
                                         (_build_pmu(), 150_000),
                                         (ideal, 150_000)]):
            soc.sim.startup()
            soc.sim.run(until=tick)
            doc = json.loads(_checkpoint_json(soc, tmp_path / f"{i}.ckpt"))
            assert doc["version"] == 6
            for obj in soc.sim.objects:
                kind = type(obj).__name__
                if kind not in self.STATE:
                    continue
                state = doc["objects"][obj.path()]["state"]
                # a cache with a prefetcher carries its state too
                assert set(state) - {"prefetcher"} == self.STATE[kind], \
                    obj.path()
                seen.add(kind)
                for mshr in state.get("mshrs", ()):
                    assert set(mshr) == self.MSHR[kind], obj.path()
                    mshrs_seen.add(kind)
        assert seen == set(self.STATE)
        assert mshrs_seen == set(self.MSHR)
