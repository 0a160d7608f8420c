"""Differential harness: codegen vs interp, bit-exact every cycle.

Every example design is driven with seeded random stimulus through both
execution backends in lock-step; after each cycle the complete
VCD-visible state — every signal value and every memory word — must be
identical.  This is the proof obligation for the codegen fast path: it
may only be an *encoding* of the interpreter's semantics, never an
approximation.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.hdl.verilog import compile_verilog
from repro.hdl.vhdl import compile_vhdl
from repro.models.bitonic.wrapper import load_bitonic_source
from repro.models.pmu.wrapper import load_pmu_source
from repro.models.rtlcache.wrapper import load_rtl_cache_source
from repro.rtl.simulator import RTLSimulator
from repro.rtl.vcd import VCDWriter

# Small designs exercising the codegen rewrites individually: part-select
# NBAs, memories, for-loop counters and ternary conditions.
MIXER_V = """
module mixer(
    input clk,
    input rst,
    input [7:0] a,
    input [7:0] b,
    input sel,
    output reg [7:0] acc,
    output [8:0] sum,
    output [7:0] muxed
);
    reg [3:0] shift;
    reg [7:0] mem [0:15];
    integer i;

    assign sum = a + b;
    assign muxed = sel ? a : b;

    always @(posedge clk) begin
        if (rst) begin
            acc <= 0;
            shift <= 0;
            for (i = 0; i < 16; i = i + 1)
                mem[i] <= 0;
        end else begin
            acc <= acc + muxed;
            shift[0] <= sel;
            shift[3:1] <= shift[2:0];
            mem[a[3:0]] <= b;
        end
    end
endmodule
"""

TOGGLER_VHDL = """
entity toggler is
  generic (W : integer := 8);
  port (
    clk : in bit;
    rst : in bit;
    d   : in bit_vector(7 downto 0);
    q   : out bit_vector(7 downto 0);
    tog : out bit
  );
end entity;

architecture rtl of toggler is
  signal state : bit_vector(7 downto 0);
  signal t : bit;
begin
  q <= state xor d;
  tog <= t;
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state <= (others => '0');
        t <= '0';
      else
        state <= d;
        t <= not t;
      end if;
    end if;
  end process;
end architecture;
"""


def _sim_pair(module):
    """Two simulators over one shared design, one per backend."""
    cg = RTLSimulator(module, backend="codegen")
    it = RTLSimulator(module, backend="interp")
    assert cg.backend == "codegen", "expected the codegen fast path here"
    assert it.backend == "interp"
    return cg, it


def _stimulus_signals(module):
    return [s for s in module.inputs if s.name not in ("clk", "clock")]


def _assert_states_equal(cg, it, cycle):
    __tracebackhide__ = True
    if cg.values != it.values:
        diffs = [
            f"  {s.name}: codegen={cg.values[s.index]:#x} "
            f"interp={it.values[s.index]:#x}"
            for s in cg.module.signals.values()
            if cg.values[s.index] != it.values[s.index]
        ]
        pytest.fail(f"signal divergence at cycle {cycle}:\n" + "\n".join(diffs))
    if cg.mems != it.mems:
        diffs = [
            f"  {m.name}[{a}]: codegen={x:#x} interp={y:#x}"
            for m in cg.module.memories.values()
            for a, (x, y) in enumerate(zip(cg.mems[m.index], it.mems[m.index]))
            if x != y
        ]
        pytest.fail(f"memory divergence at cycle {cycle}:\n" + "\n".join(diffs))


def run_differential(module, cycles, seed, reset="rst"):
    """Lock-step both backends under identical random stimulus."""
    cg, it = _sim_pair(module)
    for sim in (cg, it):
        sim.reset(reset)
    rng = random.Random(seed)
    stim = _stimulus_signals(module)
    _assert_states_equal(cg, it, "reset")
    for cycle in range(cycles):
        for sig in stim:
            val = rng.getrandbits(sig.width)
            cg.values[sig.index] = val
            it.values[sig.index] = val
        cg.settle()
        it.settle()
        _assert_states_equal(cg, it, f"{cycle} (post-settle)")
        cg.tick()
        it.tick()
        _assert_states_equal(cg, it, cycle)


# -- the example designs --------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2])
def test_pmu_differential(seed):
    module = compile_verilog(load_pmu_source(), top="pmu")
    run_differential(module, cycles=2000, seed=seed)


def test_rtlcache_differential():
    module = compile_verilog(load_rtl_cache_source(), top="rtl_cache",
                             params={"IDXW": 4})
    run_differential(module, cycles=3000, seed=3)


@pytest.mark.parametrize("config", ["ECC", "SNOOP"])
def test_rtlcache_configuration_differential(config):
    module = compile_verilog(load_rtl_cache_source(), top="rtl_cache",
                             params={"IDXW": 4, config: 1})
    run_differential(module, cycles=3000, seed=3)


def test_bitonic_differential():
    module = compile_vhdl(load_bitonic_source(), top="bitonic8",
                          params={"W": 16})
    run_differential(module, cycles=1500, seed=4)


def test_generated_verilog_differential():
    module = compile_verilog(MIXER_V, top="mixer")
    run_differential(module, cycles=1500, seed=5)


def test_generated_vhdl_differential():
    module = compile_vhdl(TOGGLER_VHDL, top="toggler")
    run_differential(module, cycles=1500, seed=6)


# -- VCD equivalence ------------------------------------------------------

def test_vcd_output_identical_across_backends():
    """With tracing on, both backends must dump the very same waveform."""
    module = compile_verilog(MIXER_V, top="mixer")
    dumps = []
    for backend in ("codegen", "interp"):
        stream = io.StringIO()
        sim = RTLSimulator(
            module,
            trace=VCDWriter(module, stream=stream, enabled=True),
            backend=backend,
        )
        sim.reset("rst")
        rng = random.Random(7)
        for _ in range(200):
            for sig in _stimulus_signals(module):
                sim.values[sig.index] = rng.getrandbits(sig.width)
            sim.settle()
            sim.tick()
        dumps.append(stream.getvalue())
    assert dumps[0] == dumps[1]
