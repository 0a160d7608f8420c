"""Full-config checkpoint round trips: PMU and NVDLA systems.

The restore half runs in a **fresh subprocess** — the strongest form of
the contract: nothing survives but the checkpoint file and the recipe
for rebuilding an identical system.  The resumed run's final statistics
must be bit-identical to an uninterrupted run's.
"""

import gzip
import hashlib
import json
import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# Each config: (builder source, save tick, settle tick).  The builder
# code must define run_to_end(END) -> stats dict and save_at(tick, path);
# both processes exec the same source so the systems are twins.
PMU_SETUP = """
from repro.dse.pmu_experiment import build_pmu_system

soc, pmu, drv = build_pmu_system(n_sort=60, memory="DDR4-1ch")

def save_at(tick, path):
    soc.sim.startup()
    soc.sim.run(until=tick)
    return soc.sim.save_checkpoint(path)

def restore(path):
    soc.sim.restore(path)

def run_to_end(end):
    soc.run_until_done(max_ticks=10**9)
    soc.sim.run(until=end)
    pmu.stop()
    return soc.sim.stats_dump()
"""

NVDLA_SETUP = """
from repro.dse.nvdla_system import build_nvdla_system

system = build_nvdla_system(workload="sanity3", n_nvdla=1,
                            memory="DDR4-1ch", timed_load=False)
soc = system.soc

def save_at(tick, path):
    for h in system.hosts:
        h.start()
    soc.sim.startup()
    soc.sim.run(until=tick)
    return soc.sim.save_checkpoint(path)

def restore(path):
    # restore protocol: rebuild identically, re-attach the workload
    # (start() is idempotent across the checkpoint), then load state
    for h in system.hosts:
        h.start()
    soc.sim.startup()
    soc.sim.restore(path)

def run_to_end(end):
    # where the workload ended the run is part of the contract: the
    # stop tick is a property of the simulation, not of a polling grid
    done_tick = system.run_to_completion()
    soc.sim.run(until=end)
    stats = soc.sim.stats_dump()
    stats["run_to_completion"] = done_tick
    return stats
"""

# Four instances on one clock domain: one tick event, saved under
# nvdla0, ticks them all.
NVDLA4_SETUP = NVDLA_SETUP.replace("n_nvdla=1,", "n_nvdla=4, scale=0.2,")
assert NVDLA4_SETUP != NVDLA_SETUP

# Saved while the host core is still copying the trace in, with the
# engine idle beside it.
NVDLA_LOAD_SETUP = NVDLA_SETUP.replace(
    "n_nvdla=1,", "n_nvdla=1, scale=0.2,").replace(
    "timed_load=False", "timed_load=True") + """
def save_at(tick, path):
    for h in system.hosts:
        h.start()
    soc.sim.startup()
    soc.sim.run(until=tick)
    assert not any(h.loaded for h in system.hosts), "the load is over"
    return soc.sim.save_checkpoint(path)
"""
assert "timed_load=True" in NVDLA_LOAD_SETUP

# The checkpoint is taken by an event of the run, the way
# --checkpoint-every takes them: only such a save can land among cycles
# the core is stepping over (a run() that returns never ends inside a
# window).
PMU_INSIDE_SETUP = PMU_SETUP + """
from repro.soc.event import EventPriority

def save_at(tick, path):
    saved = []
    soc.sim.startup()
    soc.sim.eventq.schedule_fn(
        lambda: saved.append(soc.sim.save_checkpoint(path)), tick,
        EventPriority.STATS)
    soc.sim.run(until=tick + 100_000)
    return saved[0]
"""

# Fig. 5's wiring with the clock lane's threshold armed, saved by an
# event of the run while the PMU lags behind the core: the save catches
# the PMU up and ends the lag, so no lag state is in the file.
PMU_LAG_SETUP = PMU_SETUP.replace(
    'memory="DDR4-1ch")\n',
    'memory="DDR4-1ch")\n'
    "from repro.dse.pmu_experiment import (\n"
    "    COMMIT_LANES, CYCLE_LANE, MISS_LANE)\n"
    "drv.enable(sum(1 << lane for lane in (*COMMIT_LANES, MISS_LANE,\n"
    "                                      CYCLE_LANE)))\n"
    "drv.set_threshold(CYCLE_LANE, 3_000)\n",
) + """
from repro.soc.event import EventPriority

def save_at(tick, path):
    saved = []

    def save():
        assert bool(pmu._owed), "not inside a lag"
        saved.append(soc.sim.save_checkpoint(path))
        assert not bool(pmu._owed)

    soc.sim.startup()
    soc.sim.eventq.schedule_fn(save, tick, EventPriority.STATS)
    soc.sim.run(until=tick + 100_000)
    return saved[0]
"""
assert "set_threshold(CYCLE_LANE" in PMU_LAG_SETUP

# The RTL caches lag while no request, fill or probe is in play; each
# system below is saved by an event of the run inside such a lag.  The
# template reads the simulation off ``soc``.
SAVE_IN_LAG = """
from repro.soc.event import EventPriority

def save_at(tick, path):
    saved = []

    def save():
        assert bool(cache._owed), "not inside a lag"
        saved.append(soc.sim.save_checkpoint(path))
        assert not bool(cache._owed)

    soc.sim.startup()
    soc.sim.eventq.schedule_fn(save, tick, EventPriority.STATS)
    soc.sim.run(until=tick + 100_000)
    return saved[0]

def restore(path):
    soc.sim.restore(path)
"""

CACHE_LAG_SETUP = """
from repro.resilience.targets import CacheRig

soc = CacheRig({"idxw": 4, "requests": 48, "seed": 7, "gap_cycles": 60,
                "span_lines": 8, "ecc": False})
cache = soc.rtlc

def run_to_end(end):
    done_tick = soc.run(max_cycles=100_000)
    soc.sim.run(until=end)
    soc.finish()
    stats = soc.sim.stats_dump()
    stats["run_to_completion"] = done_tick
    stats["observables"] = soc.observables()
    return stats
""" + SAVE_IN_LAG

COHERENT_LAG_SETUP = """
from repro.coherence.check import build_sharing_system
from repro.coherence.check import check_coherence_invariants

soc = build_sharing_system(cores=2, ops=200, seed=900, rtl=1)
cache = soc.rtl

def run_to_end(end):
    soc.sim.startup()
    soc.sim.run(until=end)
    assert all(d.done for d in soc.drivers) and cache.quiet
    check_coherence_invariants(soc)
    return soc.sim.stats_dump()
""" + SAVE_IN_LAG

# Two coherent L1s and a coherent RTL cache behind the directory, saved
# at a plain tick: the directory's entries and L2 tags, the L1s' sets and
# the RTL cache's coherence state and kernel arrays are all in the file.
SHARING_RTL_SETUP = """
from repro.coherence.check import build_sharing_system

soc = build_sharing_system(cores=2, rtl=1)

def save_at(tick, path):
    soc.sim.startup()
    soc.sim.run(until=tick)
    return soc.sim.save_checkpoint(path)
"""

# A plain RTL cache under callback-free MMIO reads, saved while a read
# waits at its pins for a line fill: nothing the save vetoes, so only
# the cache's own veto keeps the request from being lost.
RTLCACHE_MMIO_SETUP = """
from types import SimpleNamespace
from repro.models.rtlcache.wrapper import RTLCacheObject
from repro.soc.iomaster import IOMaster
from repro.soc.mem.ideal import IdealMemory
from repro.soc.simobject import Simulation

soc = SimpleNamespace(sim=Simulation())
cache = RTLCacheObject(soc.sim, "rtlc")
mem = IdealMemory(soc.sim, "mem", latency_cycles=4)
io = IOMaster(soc.sim, "io")
io.port.connect(cache.cpu_side[0])
cache.mem_side[0].connect(mem.port)
soc.sim.register_extra("physmem", mem.physmem)
mem.physmem.write(0x1_0000, bytes(range(256)) * 2)
for i in range(40):
    io.read(0x1_0000 + 8 * (i * 5 % 64), size=8)

def save_at(tick, path):
    soc.sim.startup()
    soc.sim.run(until=tick)
    assert cache._current is not None, "no read at the pins"
    return soc.sim.save_checkpoint(path)

def restore(path):
    soc.sim.restore(path)

def run_to_end(end):
    soc.sim.startup()
    soc.sim.run(until=end)
    stats = soc.sim.stats_dump()
    stats["memory"] = mem.physmem.read(0x1_0000, 512).hex()
    return stats
"""

CHILD_TEMPLATE = """
import json, sys
{setup}
restore({ckpt_path!r})
stats = run_to_end({end})
with open({out_path!r}, "w") as fh:
    json.dump({{"now": soc.sim.now, "stats": stats}}, fh)
"""


def _exec_setup(setup: str) -> dict:
    ns: dict = {}
    exec(setup, ns)
    return ns


def _restore_in_fresh_process(setup, ckpt_path, end, out_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = CHILD_TEMPLATE.format(setup=setup, ckpt_path=str(ckpt_path),
                                 end=end, out_path=str(out_path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "setup,save_tick,end",
    [
        pytest.param(PMU_SETUP, 300_000, 80_000_000, id="pmu"),
        pytest.param(PMU_LAG_SETUP, 1_234_500, 80_000_000, id="pmu-lag"),
        pytest.param(CACHE_LAG_SETUP, 50_250, 3_000_000, id="rtlcache-lag"),
        pytest.param(COHERENT_LAG_SETUP, 115_250, 4_000_000,
                     id="rtlcache-coherent-lag"),
        pytest.param(RTLCACHE_MMIO_SETUP, 5_250, 3_000_000,
                     id="rtlcache-mmio"),
        pytest.param(NVDLA_SETUP, 200_000, 12_000_000, id="nvdla"),
        pytest.param(NVDLA4_SETUP, 200_000, 12_000_000, id="nvdla4"),
        pytest.param(NVDLA_LOAD_SETUP, 1_000_000, 12_000_000,
                     id="nvdla-load"),
    ],
)
def test_fresh_process_restore_is_bit_identical(tmp_path, setup,
                                                save_tick, end):
    # uninterrupted reference run
    ref = _exec_setup(setup)
    expected = ref["run_to_end"](end)
    expected_now = ref["soc"].sim.now

    # a second identical system checkpoints mid-run ...
    saver = _exec_setup(setup)
    ckpt = tmp_path / "mid.ckpt"
    saved_tick = saver["save_at"](save_tick, ckpt)
    assert saved_tick < end

    # ... and a fresh python process restores and finishes the run
    out = _restore_in_fresh_process(setup, ckpt, end, tmp_path / "out.json")
    assert out["now"] == expected_now
    mismatch = {k: (v, out["stats"].get(k))
                for k, v in expected.items() if out["stats"].get(k) != v}
    assert not mismatch, f"stats diverged after restore: {mismatch}"
    assert len(out["stats"]) == len(expected)


@pytest.mark.parametrize(
    "setup,save_tick,digest",
    [
        pytest.param(
            PMU_SETUP, 300_000,
            "a708f5acacf3b6a160b37d47f934363f609d41451a3bd1f924db60442921821c",
            id="pmu",
        ),
        pytest.param(
            NVDLA_SETUP, 200_000,
            "04f41ee5733d335091fa5d8d134aeb293f0cb371ea0489729d8825bbf5338f4d",
            id="nvdla",
        ),
        pytest.param(
            NVDLA4_SETUP, 200_000,
            "490b7a342fc3dc2390cfceb133297a9fb355840d78636a501f0a48dd272c334f",
            id="nvdla4",
        ),
        pytest.param(
            SHARING_RTL_SETUP, 1_000_000,
            "9e25c6182eab4c7301973a8bc7ee5cef77cc1346e9386db261c3fd0593c716a1",
            id="sharing-rtl",
        ),
    ],
)
def test_mid_run_checkpoint_bytes_are_pinned(tmp_path, setup, save_tick,
                                             digest):
    """The mid-run checkpoints above, byte for byte: every event
    name, ``seq``, ``executed`` and packet number in them is part of the
    format, so a change to how events are scheduled or named shows here
    (or bumps ``CHECKPOINT_VERSION``).  Hashed uncompressed — the gzip
    container depends on the zlib build — with the process-wide packet
    counter re-seeded, which earlier tests have advanced."""
    from repro.soc.packet import set_next_packet_id

    set_next_packet_id(0)
    ckpt = tmp_path / "mid.ckpt"
    _exec_setup(setup)["save_at"](save_tick, ckpt)
    with gzip.open(ckpt) as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_nvdla_restore_between_irq_and_csb_drain(tmp_path):
    """The narrowest window: the host app is done (it saw the IRQ and
    posted IRQ_CLEAR) but the write has not reached the accelerator.
    The restored run must still deliver it and end where the
    uninterrupted run did."""
    end = 12_000_000
    ref = _exec_setup(NVDLA_SETUP)
    expected = ref["run_to_end"](end)
    irq_tick = ref["system"].hosts[0].finish_tick
    done_tick = expected["run_to_completion"]
    assert irq_tick + 1 < done_tick

    saver = _exec_setup(NVDLA_SETUP)
    ckpt = tmp_path / "draining.ckpt"
    saved_tick = saver["save_at"](irq_tick + 1, ckpt)
    assert irq_tick < saved_tick < done_tick
    assert saver["system"].hosts[0].done
    assert saver["soc"].iomaster.busy
    assert saver["system"].rtls[0].core.irq_pending

    out = _restore_in_fresh_process(NVDLA_SETUP, ckpt, end,
                                    tmp_path / "out.json")
    assert out["stats"]["run_to_completion"] == done_tick
    assert out["stats"] == expected
    assert out["now"] == ref["soc"].sim.now


@pytest.mark.parametrize(
    "save_tick",
    [pytest.param(1_361_000, id="on-an-edge"),
     pytest.param(1_374_750, id="between-edges")],
)
def test_restore_among_stepped_over_cycles(tmp_path, save_tick):
    """Both ticks lie inside an 8-cycle mispredict stall the core steps
    over, with the PMU beside it in the uninterrupted run: the core's
    pending window crosses the restore in the checkpoint; a PMU lag
    never does (the save ends it)."""
    end = 80_000_000
    ref = _exec_setup(PMU_SETUP)
    expected = ref["run_to_end"](end)

    saver = _exec_setup(PMU_INSIDE_SETUP)
    ckpt = tmp_path / "inside.ckpt"
    assert saver["save_at"](save_tick, ckpt) == save_tick
    doc = json.loads(gzip.open(ckpt).read())
    owed = doc["objects"]["cpu0"]["state"]["skip"]
    armed = doc["objects"]["cpu0"]["named_events"]["cycle"][0]
    assert save_tick < owed < armed, "not inside a window"

    out = _restore_in_fresh_process(PMU_SETUP, ckpt, end,
                                    tmp_path / "out.json")
    assert out["now"] == ref["soc"].sim.now
    assert out["stats"] == expected


def test_restore_inside_a_uop_block(tmp_path):
    """Saved at cycle 3 000, where the core has taken a number of µops
    that is not a multiple of its stream's block: the restore skips
    whole blocks and stops inside the next, and the resumed run must
    match the straight run bit for bit."""
    from repro.soc.cpu.uop import CHUNK

    end = 80_000_000
    ref = _exec_setup(PMU_SETUP)
    expected = ref["run_to_end"](end)

    saver = _exec_setup(PMU_SETUP)
    ckpt = tmp_path / "mid-block.ckpt"
    saver["save_at"](3_000 * saver["soc"].sim.default_clock.period, ckpt)
    doc = json.loads(gzip.open(ckpt).read())
    consumed = doc["objects"]["cpu0"]["state"]["stream_consumed"]
    assert consumed > CHUNK and consumed % CHUNK, consumed

    out = _restore_in_fresh_process(PMU_SETUP, ckpt, end,
                                    tmp_path / "out.json")
    assert out["now"] == ref["soc"].sim.now
    assert out["stats"] == expected


def test_parent_format_checkpoint_is_refused(tmp_path):
    """Version 2 wrote every tag array densely, one list per set; read
    as version 3 its ``tags`` would be taken for ``[set_idx, ways]``
    pairs.  The version check refuses the file before any object sees
    it."""
    saver = _exec_setup(PMU_SETUP)
    ckpt = tmp_path / "v2.ckpt"
    saver["save_at"](300_000, ckpt)
    doc = json.loads(gzip.open(ckpt).read())
    assert doc["version"] == 7
    doc["version"] = 2
    for path in ("l1d0", "llc"):
        sparse = doc["objects"][path]["state"]["tags"]
        dense = [[] for _ in range(sparse["num_sets"])]
        for set_idx, ways in sparse["lines"]:
            dense[set_idx] = ways
        doc["objects"][path]["state"]["tags"] = dense
    with gzip.open(ckpt, "wb") as fh:
        fh.write(json.dumps(doc).encode())
    fresh = _exec_setup(PMU_SETUP)
    from repro.resilience.serialize import CheckpointError

    with pytest.raises(CheckpointError,
                       match="version 2 != supported version 7"):
        fresh["restore"](ckpt)
    assert fresh["soc"].llc.occupancy() == 0


def test_format_4_checkpoint_is_refused(tmp_path):
    """Version 4 saved every RTL model's ``batched_ticks``, the tally of
    the run-ahead windows later versions no longer have: the version check
    refuses the file before the stats tree meets a stat it lacks."""
    saver = _exec_setup(PMU_SETUP)
    ckpt = tmp_path / "v4.ckpt"
    saver["save_at"](300_000, ckpt)
    doc = json.loads(gzip.open(ckpt).read())
    assert doc["version"] == 7
    doc["version"] = 4
    doc["stats"]["children"]["pmu"]["stats"]["batched_ticks"] = {"value": 0}
    with gzip.open(ckpt, "wb") as fh:
        fh.write(json.dumps(doc).encode())
    fresh = _exec_setup(PMU_SETUP)
    from repro.resilience.serialize import CheckpointError

    with pytest.raises(CheckpointError,
                       match="version 4 != supported version 7"):
        fresh["restore"](ckpt)


def test_format_5_checkpoint_is_refused(tmp_path):
    """Version 5 saved a core's ``skip`` as two ticks, the window's first
    uncounted edge and its end; version 6 saves the first owed edge."""
    ckpt = tmp_path / "v5.ckpt"
    _exec_setup(PMU_SETUP)["save_at"](300_000, ckpt)
    doc = json.loads(gzip.open(ckpt).read())
    assert (doc["version"], doc["objects"]["cpu0"]["state"]["skip"]) == (7, 0)
    doc["version"] = 5
    doc["objects"]["cpu0"]["state"]["skip"] = [0, 6_500]
    with gzip.open(ckpt, "wb") as fh:
        fh.write(json.dumps(doc).encode())
    from repro.resilience.serialize import CheckpointError

    with pytest.raises(CheckpointError,
                       match="version 5 != supported version 7"):
        _exec_setup(PMU_SETUP)["restore"](ckpt)


def test_format_6_checkpoint_is_refused(tmp_path):
    """Version 6 saved the always-empty queue of every response port
    (``blocked_resps``, ``blocked``) and a cache's MSHRs as a bare list;
    version 7 saves only request queues, and MSHRs as ``[block,
    fields]`` pairs."""
    ckpt = tmp_path / "v6.ckpt"
    _exec_setup(PMU_SETUP)["save_at"](300_000, ckpt)
    doc = json.loads(gzip.open(ckpt).read())
    assert doc["version"] == 7
    doc["version"] = 6
    for path in ("l1d0", "llc"):
        state = doc["objects"][path]["state"]
        assert "blocked_resps" not in state
        state["blocked_resps"] = []
        state["mshrs"] = [fields for _block, fields in state["mshrs"]]
    with gzip.open(ckpt, "wb") as fh:
        fh.write(json.dumps(doc).encode())
    from repro.resilience.serialize import CheckpointError

    fresh = _exec_setup(PMU_SETUP)
    with pytest.raises(CheckpointError,
                       match="version 6 != supported version 7"):
        fresh["restore"](ckpt)
    assert fresh["soc"].llc.occupancy() == 0
