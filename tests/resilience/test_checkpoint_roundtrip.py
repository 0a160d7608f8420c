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
    return soc.save_checkpoint(path)

def restore(path):
    soc.restore(path)

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
    return soc.save_checkpoint(path)

def restore(path):
    # restore protocol: rebuild identically, re-attach the workload
    # (start() is idempotent across the checkpoint), then load state
    for h in system.hosts:
        h.start()
    soc.sim.startup()
    soc.restore(path)

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
    return soc.save_checkpoint(path)
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
        lambda: saved.append(soc.save_checkpoint(path)), tick,
        EventPriority.STATS)
    soc.sim.run(until=tick + 100_000)
    return saved[0]
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
            "923e427134b9dd5bb6832f764f658a1dda03c1b8f16d098220d76760cc0655b7",
            id="pmu",
        ),
        pytest.param(
            NVDLA_SETUP, 200_000,
            "b382053d2e0050c0c10b83ffec069b9d5c96d904c183d6bf318b439d584d9e57",
            id="nvdla",
        ),
        pytest.param(
            NVDLA4_SETUP, 200_000,
            "952ddfa1ffb62d92ba4700f88e77cae027f6a81d4e02bc7df49cc173d785938c",
            id="nvdla4",
        ),
    ],
)
def test_mid_run_checkpoint_bytes_are_pinned(tmp_path, setup, save_tick,
                                             digest):
    """The three mid-run checkpoints above, byte for byte: every event
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
    over, with the PMU running ahead beside it in the uninterrupted run:
    the core's pending window crosses the restore in the checkpoint;
    the PMU's never does (a window ends before the next queued event,
    here the save)."""
    end = 80_000_000
    ref = _exec_setup(PMU_SETUP)
    expected = ref["run_to_end"](end)

    saver = _exec_setup(PMU_INSIDE_SETUP)
    ckpt = tmp_path / "inside.ckpt"
    assert saver["save_at"](save_tick, ckpt) == save_tick
    doc = json.loads(gzip.open(ckpt).read())
    skip_from, skip_end = doc["objects"]["cpu0"]["state"]["skip"]
    assert save_tick < skip_from < skip_end, "not inside a window"

    out = _restore_in_fresh_process(PMU_SETUP, ckpt, end,
                                    tmp_path / "out.json")
    assert out["now"] == ref["soc"].sim.now
    # batched_ticks counts the mechanism, not the model: the save event
    # cut a window the uninterrupted run took whole
    for stats in (expected, out["stats"]):
        stats.pop("system.pmu.batched_ticks")
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
    assert doc["version"] == 4
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
    from repro.resilience import CheckpointError

    with pytest.raises(CheckpointError,
                       match="version 2 != supported version 4"):
        fresh["restore"](ckpt)
    assert fresh["soc"].llc.occupancy() == 0
