"""The replay a lagging model runs its owed cycles through, folded on the
pins it holds and taking runs of equal input words
(:func:`repro.rtl.codegen.build_replay`), against the same cycles
stepped one by one through ``tick`` on a twin that runs the
interpreter.

Every bundled codegen-eligible design starts from a seeded random state
(every signal and memory word), holds seeded random values on every
input but the varied one (``rst`` included, which the struct does not
carry), and replays seeded runs.  ``ran``, the output bytes, and every
signal and memory word must match the twin's.  Where lowering (i)
makes a run one step (the PMU's counting, the RTL caches' idle cycle),
runs are long, cross a threshold part-way (the step falls back to
cycles), sit near a counter's wrap, or hold ``rst`` high.
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
from tests.bytecodes import generated_bytecodes

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


def _check(lib, twin, data: bytes, field, runs) -> int:
    """Replay *runs* on *lib* and step them on *twin*; both must agree.
    The cycles run."""
    steady = _steady(lib)
    assert _steady(twin) == steady
    before = lib.ticks
    out = lib.tick_varying(data, field, runs, steady)
    ran = lib.ticks - before
    spec = twin.input_spec
    fields = spec.unpack(data)
    stepped, expect = 0, steady
    for value, n in runs:
        if field is not None:
            fields[field] = value
        for _ in range(n):
            expect = twin.tick(spec.pack(**fields))
            stepped += 1
            if expect != steady:
                break
        if expect != steady:
            break
    assert (ran, out) == (stepped, expect)
    assert lib.sim.values == twin.sim.values
    assert lib.sim.mems == twin.sim.mems
    assert lib.sim.cycle == twin.sim.cycle
    return ran


def _runs(values, rng: random.Random) -> list:
    """As many cycles as *values*, as runs: each value held from a
    seeded cycle to the next value's (the first from cycle 0)."""
    starts = sorted({0, *rng.sample(range(len(values)),
                                    rng.randint(0, len(values) - 1))})
    return [(values[at], end - at)
            for at, end in zip(starts, starts[1:] + [len(values)])]


def _one_step(lib, field, where=lambda pins: True) -> list:
    """Per replay *lib* built for *field* whose held pins (a dict by
    name) satisfy *where*: whether (i) made its runs one step each."""
    vary = lib.module.signals[field].index if field else None
    names = {s.index: s.name for s in lib.module.signals.values()}
    held = [names[i] for i in lib.sim._codegen.inputs if i != vary]
    return ["while True:" in case.source
            for key, case in lib._replays[field].cases.items()
            if where(dict(zip(held, key)))]


def _scalars(lib) -> list:
    return [f for f in lib.input_spec if f.count == 1]


@pytest.mark.parametrize("cls", LIBRARIES, ids=lambda c: c.__name__)
def test_replay_is_the_stepped_cycles(cls):
    """Random states, held pins and runs: replayed as stepped."""
    lib, twin = _pair(cls)
    rng = random.Random(f"replay-{cls.__name__}")
    moved_early = ran_out = 0
    for _ in range(TRIALS):
        _randomise(lib, twin, rng)
        varied = rng.choice([None, *_scalars(lib)])
        data = _hold(lib, twin, rng, {})
        # from the random state, then from where that replay ended
        for _ in range(2):
            runs = _runs([rng.getrandbits(varied.width) if varied else 0
                          for _ in range(rng.randint(1, MAX_WORDS))], rng)
            n = sum(length for _, length in runs)
            ran = _check(lib, twin, data, varied and varied.name, runs)
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
        runs = _runs([rng.getrandbits(20)
                      for _ in range(rng.randint(1, 9))], rng)
        ran = _check(lib, twin, data, "events", runs)
        moved_early += ran < sum(n for _, n in runs)
    assert moved_early
    # a held write stores the counters or what the counting reads, a
    # held counter read reads them after it: (i) makes no run one step
    stepped = _one_step(lib, "events", lambda pins: not pins["rst"] and (
        pins["awvalid"] or pins["arvalid"] and pins["araddr"] < 0x100))
    assert stepped and not any(stepped)


def test_pmu_quiet_replay_runs_to_the_crossing():
    """All pins low but the clock lane: the replay the Fig. 5 run
    lags through, ending exactly where irq rises."""
    lib, twin = _pair(PMUSharedLibrary)
    rng = random.Random("pmu-quiet")
    for _ in range(TRIALS // 2):
        _pmu_armed(lib, twin, rng)
        runs = _runs([1 << 5 | rng.getrandbits(20) & rng.getrandbits(20)
                      for _ in range(12)], rng)
        ran = _check(lib, twin, lib.input_spec.zeros(), "events", runs)
        assert ran < sum(n for _, n in runs)


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
        _check(lib, twin, data, "events", _runs(
            [rng.getrandbits(20) for _ in range(6)], rng))
    cases = lib._replays["events"].cases
    assert len(cases) == 2
    first = dict(cases)
    for x in (lib, twin):
        x.reset()
    for data in (write, quiet):
        _check(lib, twin, data, "events", [(1 << 5, 6)])
    for x, state in zip((lib, twin), saved):
        x.unserialize(state, DeserializationContext([]))
    assert lib.sim.values == twin.sim.values
    for data in (quiet, write):
        _check(lib, twin, data, "events", _runs(
            [rng.getrandbits(20) for _ in range(6)], rng))
    # the same two specialisations served every replay
    assert lib._replays["events"].cases == first


# -- (i): a run is one step ----------------------------------------------


def _pmu_lane(lib, twin, lane: int, count: int, threshold: int) -> None:
    """A reset PMU with lanes 0-5 enabled, lane *lane* at *count* of
    *threshold*."""
    spec = lib.input_spec
    for x in (lib, twin):
        x.reset()
        for addr, value in ((REG_ENABLE, 0b111111),
                            (counter_addr(lane), count),
                            (threshold_addr(lane), threshold)):
            x.tick(spec.pack(awvalid=1, awaddr=addr, wdata=value))
        x.tick(spec.zeros())


def test_pmu_long_runs_are_one_step_each():
    """Runs of thousands of cycles, with and without other lanes set,
    threshold far: every run a step, the counters as stepped."""
    lib, twin = _pair(PMUSharedLibrary)
    _pmu_lane(lib, twin, 5, 7, 50_000)
    runs = [(1 << 5, 4000), (0b100101, 1), (1 << 5, 2500),
            (0b101111, 3), (0, 900), (1 << 5, 1)]
    assert _check(lib, twin, lib.input_spec.zeros(), "events", runs) \
        == sum(n for _, n in runs)
    assert lib.peek_counter(5) == 7 + 4000 + 1 + 2500 + 3 + 1
    assert _one_step(lib, "events") == [True]


@pytest.mark.parametrize("cross", [1, 2, 17, 999, 1000])
def test_pmu_run_crossing_a_threshold_steps_to_the_irq(cross):
    """A run whose *cross*-th cycle reaches the threshold: the step
    falls back to cycles and the replay ends there, ``irq`` high."""
    lib, twin = _pair(PMUSharedLibrary)
    _pmu_lane(lib, twin, 5, 100, 100 + cross)
    ran = _check(lib, twin, lib.input_spec.zeros(), "events",
                 [(1 << 5, 1000), (1 << 5, 5)])
    assert ran == cross
    assert lib.output_spec.unpack(_steady(lib))["irq"] == 1


def _bytecodes(lib, state, runs) -> int:
    """Bytecodes the generated replay runs for *runs* on the PMU lanes
    from the saved *state*."""
    lib.unserialize(state, DeserializationContext([]))
    return generated_bytecodes(
        lambda: lib.tick_varying(lib.input_spec.zeros(), "events", runs,
                                 _steady(lib)),
        lambda code: code.co_name == "_replay")


@pytest.mark.parametrize("below", [4, 10, 1000])
def test_pmu_counter_near_its_wrap_steps_the_run(below):
    """A lane with no threshold *below* counts under 2**32: a run that
    would wrap it is refused as a step and stepped cycle by cycle (each
    cycle more costs more), one that stops short is one step (two such
    runs cost the same); either way, as stepped."""
    lib, twin = _pair(PMUSharedLibrary)
    _pmu_lane(lib, twin, 0, (1 << 32) - below, 0)
    state = lib.serialize(SerializationContext())
    cost = [_bytecodes(lib, state, [(1, below + d)]) for d in (-2, -1, 0, 1)]
    assert cost[0] == cost[1] < cost[2] < cost[3], cost
    lib.unserialize(state, DeserializationContext([]))
    quiet = lib.input_spec.zeros()
    assert _check(lib, twin, quiet, "events", [(1, below - 1)]) \
        == below - 1
    assert _check(lib, twin, quiet, "events", [(1, 6), (0b11, 4)]) == 10
    assert lib.peek_counter(0) == 9


def test_pmu_runs_with_reset_held():
    """``rst`` held at 1: every run's cycle clears the state, as
    stepped, whatever the counters were."""
    lib, twin = _pair(PMUSharedLibrary)
    rng = random.Random("pmu-rst")
    rst = lib.module.signals[lib.reset_signal].index
    for _ in range(TRIALS // 3):
        _randomise(lib, twin, rng)
        for sim in (lib.sim, twin.sim):
            sim.values[rst] = 1
        _check(lib, twin, lib.input_spec.zeros(), "events",
               [(rng.getrandbits(20), rng.randint(1, 300))
                for _ in range(4)])


@pytest.mark.parametrize("cls", LIBRARIES[1:4], ids=lambda c: c.__name__)
def test_idle_cache_runs_are_one_edge(cls):
    """The RTL caches' idle text (every pin held at 0) is (i)'s k = 0
    case: from random states, runs of any length cost one edge and end
    as stepped."""
    lib, twin = _pair(cls)
    rng = random.Random(f"idle-{cls.__name__}")
    rst = lib.module.signals[lib.reset_signal].index
    zeros = lib.input_spec.zeros()
    for _ in range(TRIALS // 3):
        _randomise(lib, twin, rng)
        for sim in (lib.sim, twin.sim):
            sim.values[rst] = 0
        _check(lib, twin, zeros, None, [(0, rng.randint(1, 3000))])
        # the outputs settled: what is left of a long run runs out
        assert _check(lib, twin, zeros, None, [(0, 2000)]) == 2000
    assert all(_one_step(lib, None))
