"""Differential harness: generated exchange vs the poke/peek reference.

Every bundled RTL wrapper is built three ways — codegen (the generated
``exchange``), the interpreter backend and codegen with an enabled VCD
writer (both on the ``drive``/``collect`` reference path) — and driven
in lock-step with seeded random input structs.  After every call the
output bytes and the complete model state must agree, also across a
reset, a checkpoint restore and single-bit upsets poked in between two
ticks: the generated function may only be an encoding of the pin map,
and must not remember anything the reference does not.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.bridge import Field, RTLSharedLibrary, StructSpec
from repro.hdl.verilog import compile_verilog
from repro.models.bitonic import BitonicSharedLibrary
from repro.models.pmu import PMUSharedLibrary
from repro.models.rtlcache.coherent import RTLCacheCohSharedLibrary
from repro.models.rtlcache.wrapper import (
    RTLCacheECCSharedLibrary,
    RTLCacheSharedLibrary,
)
from repro.resilience.faults import FaultInjector, flip_targets

WRAPPERS = [
    PMUSharedLibrary,
    RTLCacheSharedLibrary,
    RTLCacheECCSharedLibrary,
    RTLCacheCohSharedLibrary,
    BitonicSharedLibrary,
]

STEPS = 520
#: cycles per call, cycled through: single ticks dominate, the batches
#: straddle the generated loop's n < 16 plain path and its snapshots
BATCHES = (1, 1, 1, 1, 15, 1, 1, 16, 1, 1, 64, 1)


def _forbidden(*_args):
    raise AssertionError("the generated exchange took the reference path")


def _trio(cls, monkeypatch, opt_level: int):
    monkeypatch.setenv("REPRO_OPT_LEVEL", str(opt_level))
    fused = cls()
    interp = cls(backend="interp")
    traced = cls(trace_stream=io.StringIO(), trace_enabled=True)
    assert fused.sim.backend == "codegen" and not fused.tracing
    assert interp.sim.backend == "interp"
    assert traced.sim.backend == "codegen" and traced.tracing
    fused.drive = fused.collect = _forbidden
    return fused, interp, traced


def _random_struct(rng: random.Random, spec) -> bytes:
    """Mostly-small values keep valid bits toggling and addresses
    colliding; full-width ones exercise the masks."""
    def value(width: int) -> int:
        return rng.getrandbits(width if rng.random() < 0.3 else min(width, 3))

    return spec.pack(**{
        f.name: value(f.width) if f.count == 1
        else [value(f.width) for _ in range(f.count)]
        for f in spec
    })


def _state(lib) -> tuple:
    sim = lib.sim
    return (list(sim.values), [list(m) for m in sim.mems], sim.cycle,
            lib.ticks, lib.checkpoint_state())


def _assert_same(libs, what: str) -> None:
    ref = _state(libs[0])
    for lib in libs[1:]:
        assert _state(lib) == ref, f"{what}: {lib.sim.backend} state diverged"


def _lockstep(libs, rng: random.Random, flops: list, others: list) -> None:
    """Drive *libs* with one random stimulus; *flops* and *others* are
    ``(name, width)`` upset targets for the two kinds of flip."""
    for lib in libs:
        lib.reset()
    _assert_same(libs, "after reset")

    saved = None
    for step in range(STEPS):
        if step == 130:
            saved = libs[1].checkpoint_state()      # the interpreter's
        elif step == 200:
            for lib in libs:
                lib.reset()
        elif step == 260:
            for lib in libs:
                lib.load_checkpoint_state(saved)
        elif step in (320, 321, 400):
            # an upset between two ticks
            targets = others if step == 321 and others else flops
            name, width = targets[rng.randrange(len(targets))]
            bit = rng.randrange(width)
            for lib in libs:
                assert FaultInjector._flip_on(lib.sim, name, bit)
            _assert_same(libs, f"step {step}: flipped {name}.{bit}")

        data = _random_struct(rng, libs[0].input_spec)
        cycles = BATCHES[step % len(BATCHES)]
        if cycles == 1:
            outs = [lib.tick(data) for lib in libs]
        else:
            outs = [lib.tick_batch(data, cycles) for lib in libs]
        assert outs[1] == outs[0] and outs[2] == outs[0], f"step {step}"
        _assert_same(libs, f"step {step}")
    assert libs[0].ticks == libs[0].sim.cycle - 2  # reset's two cycles


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("cls", WRAPPERS, ids=lambda c: c.__name__)
def test_exchange_matches_reference(cls, opt_level, monkeypatch):
    libs = _trio(cls, monkeypatch, opt_level)
    module = libs[0].module
    flops = flip_targets(module)
    words = flip_targets(module, include_memories=True)[len(flops):]
    _lockstep(libs, random.Random(f"{cls.__name__}/{opt_level}"), flops, words)


#: a register feeding a long comb chain: at -O2 the chain is one
#: activity-guarded cone keyed on ``r`` (none of the bundled designs
#: gets a guarded cone)
FATCONE_V = """
module fatcone(input clk, input rst, input [7:0] x,
               output reg [7:0] r, output [7:0] y);
  wire [7:0] t0;
  assign t0 = r + 8'd1;
%s
  assign y = t19;
  always @(posedge clk) begin
    if (rst) r <= 8'd0; else r <= r + x;
  end
endmodule
""" % "\n".join(
    f"  wire [7:0] t{i};\n  assign t{i} = t{i-1} ^ (t{i-1} + 8'd{i});"
    for i in range(1, 20)
)


class FatConeLibrary(RTLSharedLibrary):
    input_spec = StructSpec("fat_in", [Field("x", 8)])
    output_spec = StructSpec("fat_out", [Field("r", 8), Field("y", 8)])

    def __init__(self, **kwargs) -> None:
        super().__init__(compile_verilog(FATCONE_V, top="fatcone"), **kwargs)


def test_exchange_shares_activity_cone_keys(monkeypatch):
    """A poked comb wire is recomputed by the next settle only because
    the poke drops the cone keys the exchange's settle call compares:
    an exchange with keys of its own would keep the corrupted value."""
    libs = _trio(FatConeLibrary, monkeypatch, 2)
    assert libs[0].sim._codegen.guarded_cones > 0
    _lockstep(libs, random.Random("fatcone"), [("r", 8)], [("t5", 8)])

    hold = FatConeLibrary.input_spec.pack(x=0)   # r, the cone's key, rests
    for lib in libs:
        lib.tick(hold)
        assert FaultInjector._flip_on(lib.sim, "t5", 0)
    clean = libs[1].sim.peek("t5") ^ 1
    assert len({lib.tick(hold) for lib in libs}) == 1
    assert [lib.sim.peek("t5") for lib in libs] == [clean] * 3
    _assert_same(libs, "after the comb-wire upset")


def test_second_library_shares_exchange_code_not_state():
    """The exchange text of one design is compiled once per process;
    each library binds it to its own simulator, codecs and cone keys."""
    first, second = PMUSharedLibrary(), PMUSharedLibrary()
    assert first._exchange.source == second._exchange.source
    assert first._exchange.__code__ is second._exchange.__code__
    assert first._exchange is not second._exchange
    assert first._exchange.__globals__ is not second._exchange.__globals__
    for lib in (first, second):
        lib.reset()
    idle = list(second.sim.values), second.sim.cycle
    busy = first.input_spec.pack(events=0b1011)
    for _ in range(50):
        first.tick(busy)
    assert (second.sim.values, second.sim.cycle) == idle
    fresh = PMUSharedLibrary()
    fresh.reset()
    assert second.tick(busy) == fresh.tick(busy)
    assert second.sim.values == fresh.sim.values


def test_exchange_errors_match_reference():
    fused, interp = PMUSharedLibrary(), PMUSharedLibrary(backend="interp")
    for lib in (fused, interp):
        lib.reset()
    for bad in (b"", b"\0" * (fused.input_spec.size + 1)):
        errors = []
        for lib in (fused, interp):
            with pytest.raises(ValueError) as err:
                lib.tick(bad)
            errors.append(str(err.value))
            assert lib.ticks == 0 and lib.sim.cycle == 2
        assert errors[0] == errors[1]
    for lib in (fused, interp):
        with pytest.raises(ValueError, match="cannot batch 0 cycles"):
            lib.tick_batch(lib.input_spec.zeros(), 0)


class TestPinMap:
    """The table is checked against the module at construction."""

    def _library(self, pins, inputs=None, outputs=None):
        class Lib(RTLSharedLibrary):
            input_spec = StructSpec("i", inputs or [Field("x", 8)])
            output_spec = StructSpec("o", outputs or [Field("y", 8)])

        Lib.pins = pins
        return Lib(compile_verilog(FATCONE_V, top="fatcone"))

    def test_renamed_and_qualified_keys(self):
        lib = self._library({"i.v": "x", "o.v": "y"},
                            inputs=[Field("v", 8)], outputs=[Field("v", 8)])
        lib.reset()
        out = lib.tick(lib.input_spec.pack(v=3))
        assert lib.sim.peek("x") == 3
        assert lib.output_spec.unpack(out)["v"] == lib.sim.peek("y")

    def test_array_field_on_one_narrow_pin_truncates_like_poke(self):
        lib = self._library({}, inputs=[Field("x", 4, count=3)])
        lib.reset()
        lib.tick(lib.input_spec.pack(x=[0x1, 0x2, 0xF]))
        assert lib.sim.peek("x") == 0x21        # 8-bit pin: third lane lost

    @pytest.mark.parametrize("pins, inputs, message", [
        ({"x": "nope"}, None, "not signals of 'fatcone'"),
        ({"x": ("x", "rst")}, None, "1 elements but 2 pins"),
        ({"x": "y"}, None, "must drive a module input"),
        ({"x": "x", "x2": "x"}, [Field("x", 8), Field("x2", 8)],
         "nothing else drives, not 'x'"),
        ({"z": "x"}, None, r"names no struct field: \['z'\]"),
    ])
    def test_bad_maps_rejected(self, pins, inputs, message):
        with pytest.raises(ValueError, match=message):
            self._library(pins, inputs=inputs)
