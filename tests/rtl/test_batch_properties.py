"""Property-based tests for batched stepping.

Two algebraic laws back the batching fast path:

* **split**: ``run_cycles(a); run_cycles(b)`` must equal
  ``run_cycles(a + b)`` for any split — the generated batch loop may not
  observe where the caller chops up time;
* **checkpoint round-trip**: saving mid-batch and re-running from the
  snapshot must reproduce the exact same state, with or without VCD
  tracing enabled.
"""

from __future__ import annotations

import io
import random

from hypothesis import given, settings, strategies as st

from repro.bridge.shared_library import RTLSharedLibrary
from repro.bridge.structs import Field, StructSpec
from repro.hdl.verilog import compile_verilog
from repro.resilience.serialize import (DeserializationContext,
                                        SerializationContext)

LCG_V = """
module lcg(
    input clk,
    input rst,
    input [15:0] seed,
    input load,
    output reg [15:0] state,
    output [7:0] byte_out
);
    reg [7:0] hist [0:7];
    reg [2:0] wp;

    assign byte_out = state[15:8];

    always @(posedge clk) begin
        if (rst) begin
            state <= 16'h1;
            wp <= 0;
        end else if (load) begin
            state <= seed;
        end else begin
            state <= state * 25173 + 13849;
            hist[wp] <= state[7:0];
            wp <= wp + 1;
        end
    end
endmodule
"""

MODULE = compile_verilog(LCG_V, top="lcg")


class LCGLibrary(RTLSharedLibrary):
    input_spec = StructSpec("lcg_in", [Field("seed", 16), Field("load", 1)])
    output_spec = StructSpec("lcg_out", [Field("state", 16),
                                         Field("byte_out", 8)])


def _library(seed, backend="codegen", trace_stream=None):
    lib = LCGLibrary(MODULE, trace_stream=trace_stream,
                     trace_enabled=trace_stream is not None, backend=backend)
    sim = lib.sim
    sim.reset("rst")
    rng = random.Random(seed)
    sim.poke("seed", rng.getrandbits(16))
    sim.poke("load", 1)
    sim.settle()
    sim.tick()
    sim.poke("load", 0)
    sim.settle()
    return lib


def _fresh(seed, backend="codegen"):
    return _library(seed, backend).sim


def _state(sim):
    return (sim.cycle, list(sim.values), [list(m) for m in sim.mems])


@settings(max_examples=30, deadline=None)
@given(a=st.integers(0, 50), b=st.integers(0, 50),
       seed=st.integers(0, 2**16 - 1))
def test_run_cycles_split_equivalence(a, b, seed):
    split = _fresh(seed)
    whole = _fresh(seed)
    split.run_cycles(a)
    split.run_cycles(b)
    whole.run_cycles(a + b)
    assert _state(split) == _state(whole)


@settings(max_examples=30, deadline=None)
@given(a=st.integers(0, 50), b=st.integers(0, 50),
       seed=st.integers(0, 2**16 - 1))
def test_split_matches_interp_singles(a, b, seed):
    """The batched codegen run equals a per-cycle interpreter run."""
    batched = _fresh(seed)
    stepped = _fresh(seed, backend="interp")
    batched.run_cycles(a)
    batched.run_cycles(b)
    for _ in range(a + b):
        stepped.tick()
    assert _state(batched)[1:] == _state(stepped)[1:]


@settings(max_examples=25, deadline=None)
@given(pre=st.integers(0, 40), post=st.integers(1, 40),
       seed=st.integers(0, 2**16 - 1))
def test_checkpoint_mid_batch_roundtrip(pre, post, seed):
    lib = _library(seed)
    sim = lib.sim
    sim.run_cycles(pre)
    ckpt = lib.serialize(SerializationContext())
    sim.run_cycles(post)
    first = _state(sim)
    lib.unserialize(ckpt, DeserializationContext([]))
    assert _state(sim) == (ckpt["cycle"], ckpt["values"], ckpt["mems"])
    sim.run_cycles(post)
    assert _state(sim) == first


@settings(max_examples=15, deadline=None)
@given(pre=st.integers(0, 20), post=st.integers(1, 20),
       seed=st.integers(0, 2**16 - 1))
def test_checkpoint_roundtrip_with_tracing(pre, post, seed):
    """Tracing forces the per-cycle path; checkpoints must still be exact,
    and the traced run must end in the same state as an untraced one."""
    lib = _library(seed, trace_stream=io.StringIO())
    sim = lib.sim
    plain = _fresh(seed)
    sim.run_cycles(pre)
    ckpt = lib.serialize(SerializationContext())
    sim.run_cycles(post)
    first = _state(sim)
    lib.unserialize(ckpt, DeserializationContext([]))
    sim.run_cycles(post)
    assert _state(sim) == first
    plain.run_cycles(pre + post)
    assert _state(plain) == first


def test_negative_run_cycles_rejected():
    sim = _fresh(0)
    try:
        sim.run_cycles(-1)
    except ValueError:
        pass
    else:
        raise AssertionError("run_cycles(-1) should raise ValueError")


def test_zero_run_cycles_is_noop():
    sim = _fresh(0)
    before = _state(sim)
    sim.run_cycles(0)
    assert _state(sim) == before
