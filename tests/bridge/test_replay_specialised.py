"""The replay a lagging model runs its owed cycles through, folded on the
pins it holds (:func:`repro.rtl.codegen.build_replay`), against the same
cycles stepped one by one through ``tick`` on a twin that runs the
interpreter.

Every bundled codegen-eligible design starts from a seeded random state
(every signal and memory word), holds seeded random values on every
input but the varied one (``rst`` included, which the struct does not
carry), and replays seeded word lists.  ``ran``, the output bytes, and
every signal and memory word must match the twin's.
"""

from __future__ import annotations

import random

import pytest

from repro.models.bitonic.wrapper import BitonicSharedLibrary
from repro.models.pmu.wrapper import (
    PMUSharedLibrary, REG_ENABLE, counter_addr, threshold_addr,
)
from repro.models.rtlcache.coherent import RTLCacheCohSharedLibrary
from repro.models.rtlcache.wrapper import (
    RTLCacheECCSharedLibrary, RTLCacheSharedLibrary,
)
from repro.resilience.serialize import (
    DeserializationContext, SerializationContext,
)

LIBRARIES = (PMUSharedLibrary, RTLCacheSharedLibrary,
             RTLCacheECCSharedLibrary, RTLCacheCohSharedLibrary,
             BitonicSharedLibrary)
TRIALS = 60
MAX_WORDS = 12


def _pair(cls):
    lib, twin = cls(), cls(backend="interp")
    assert lib.sim.backend == "codegen" and twin.sim.backend == "interp"
    return lib, twin


def _randomise(lib, twin, rng: random.Random) -> None:
    """One seeded state, every signal and memory word, on both."""
    module = lib.module
    values = list(lib.sim.values)
    for sig in module.signals.values():
        values[sig.index] = rng.getrandbits(sig.width)
    mems = [[rng.getrandbits(mem.width) for _ in range(mem.depth)]
            for mem in sorted(module.memories.values(),
                              key=lambda mem: mem.index)]
    for sim in (lib.sim, twin.sim):
        sim.values = list(values)
        sim.mems = [list(words) for words in mems]


def _hold(lib, twin, rng: random.Random, fields: dict) -> bytes:
    """*fields* over seeded values for the rest of the input struct,
    packed; ``rst`` set on both, low three times in four."""
    spec = lib.input_spec
    data = {f.name: fields.get(f.name, rng.getrandbits(f.width))
            if f.count == 1 else [rng.getrandbits(f.width)
                                  for _ in range(f.count)]
            for f in spec}
    rst = lib.module.signals[lib.reset_signal].index
    low = rng.random() < 0.75
    for sim in (lib.sim, twin.sim):
        sim.values[rst] = 0 if low else 1
    return spec.pack(**data)


def _steady(lib) -> bytes:
    return lib.output_spec.pack(**lib.collect())


def _check(lib, twin, data: bytes, field, words) -> int:
    """Replay *words* on *lib* and step them on *twin*; both must agree.
    The cycles run."""
    steady = _steady(lib)
    assert _steady(twin) == steady
    before = lib.ticks
    out = lib.tick_varying(data, field, words, steady)
    ran = lib.ticks - before
    spec = twin.input_spec
    fields = spec.unpack(data)
    stepped, expect = 0, steady
    for word in words:
        if field is not None:
            fields[field] = word
        expect = twin.tick(spec.pack(**fields))
        stepped += 1
        if expect != steady:
            break
    assert (ran, out) == (stepped, expect)
    assert lib.sim.values == twin.sim.values
    assert lib.sim.mems == twin.sim.mems
    assert lib.sim.cycle == twin.sim.cycle
    return ran


def _scalars(lib) -> list:
    return [f for f in lib.input_spec if f.count == 1]


@pytest.mark.parametrize("cls", LIBRARIES, ids=lambda c: c.__name__)
def test_replay_is_the_stepped_cycles(cls):
    """Random states, held pins and word lists: replayed as stepped."""
    lib, twin = _pair(cls)
    rng = random.Random(f"replay-{cls.__name__}")
    moved_early = ran_out = 0
    for _ in range(TRIALS):
        _randomise(lib, twin, rng)
        varied = rng.choice([None, *_scalars(lib)])
        data = _hold(lib, twin, rng, {})
        n = rng.randint(1, MAX_WORDS)
        words = [rng.getrandbits(varied.width) if varied else 0
                 for _ in range(n)]
        ran = _check(lib, twin, data, varied and varied.name, words)
        moved_early += ran < n
        ran_out += ran == n
    # both endings are exercised
    assert moved_early and ran_out


def _pmu_armed(lib, twin, rng: random.Random) -> None:
    """A reset PMU, every lane enabled, lane thresholds a few counts
    above their counters: irq rises part-way through a replay."""
    spec = lib.input_spec
    writes = [(REG_ENABLE, (1 << 20) - 1)]
    for lane in range(20):
        count = rng.getrandbits(8)
        writes += [(counter_addr(lane), count),
                   (threshold_addr(lane), count + rng.randint(2, 9))]
    for x in (lib, twin):
        x.reset()
        for addr, value in writes:
            x.tick(spec.pack(awvalid=1, awaddr=addr, wdata=value))
        x.tick(spec.zeros())
    assert lib.sim.values == twin.sim.values
    assert lib.sim.mems == twin.sim.mems


@pytest.mark.parametrize("channel", ["write", "read", "both"])
def test_pmu_held_mmio_is_replayed(channel):
    """Held pins that are not zero: a configuration write
    (``awvalid=1``) and a register read (``arvalid=1``) on every lagged
    edge, while ``events`` varies and a lane crosses its threshold
    part-way through."""
    lib, twin = _pair(PMUSharedLibrary)
    rng = random.Random(f"pmu-mmio-{channel}")
    moved_early = 0
    for _ in range(TRIALS // 2):
        _pmu_armed(lib, twin, rng)
        fields = {"awvalid": 0, "arvalid": 0}
        if channel in ("write", "both"):
            lane = rng.randrange(20)
            fields.update(awvalid=1, wdata=rng.getrandbits(32),
                          awaddr=rng.choice([counter_addr(lane),
                                             threshold_addr(lane),
                                             REG_ENABLE]))
        if channel in ("read", "both"):
            fields.update(arvalid=1, araddr=rng.choice(
                [counter_addr(rng.randrange(20)), REG_ENABLE, 0xFFC]))
        data = _hold(lib, twin, rng, fields)
        words = [rng.getrandbits(20) for _ in range(rng.randint(1, 9))]
        ran = _check(lib, twin, data, "events", words)
        moved_early += ran < len(words)
    assert moved_early


def test_pmu_quiet_replay_runs_to_the_crossing():
    """All pins low but the clock lane: the replay the Fig. 5 run
    lags through, ending exactly where irq rises."""
    lib, twin = _pair(PMUSharedLibrary)
    rng = random.Random("pmu-quiet")
    for _ in range(TRIALS // 2):
        _pmu_armed(lib, twin, rng)
        words = [1 << 5 | rng.getrandbits(20) & rng.getrandbits(20)
                 for _ in range(12)]
        ran = _check(lib, twin, lib.input_spec.zeros(), "events", words)
        assert ran < len(words)


def test_two_held_tuples_reset_and_restore_on_one_library():
    """One library meets two tuples of held pins, a reset and a restore
    between replays: each tuple is specialised once and reused, and
    every replay still matches the stepped twin."""
    lib, twin = _pair(PMUSharedLibrary)
    rng = random.Random("pmu-two")
    spec = lib.input_spec
    quiet = spec.zeros()
    write = spec.pack(awvalid=1, awaddr=counter_addr(3), wdata=7)
    _pmu_armed(lib, twin, rng)
    saved = [x.serialize(SerializationContext()) for x in (lib, twin)]
    for data in (quiet, write, quiet, write):
        _check(lib, twin, data, "events", [rng.getrandbits(20)
                                           for _ in range(6)])
    cases = lib._replays["events"].cases
    assert len(cases) == 2
    first = dict(cases)
    for x in (lib, twin):
        x.reset()
    for data in (write, quiet):
        _check(lib, twin, data, "events", [1 << 5] * 6)
    for x, state in zip((lib, twin), saved):
        x.unserialize(state, DeserializationContext([]))
    assert lib.sim.values == twin.sim.values
    for data in (quiet, write):
        _check(lib, twin, data, "events", [rng.getrandbits(20)
                                           for _ in range(6)])
    # the same two specialisations served every replay
    assert lib._replays["events"].cases == first
