"""Cross-frontend equivalence: the same design written in Verilog and in
VHDL must behave identically — the paper's claim that both toolflows
produce interchangeable models behind the wrapper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.verilog import compile_verilog
from repro.hdl.vhdl import compile_vhdl
from repro.rtl.simulator import RTLSimulator

ALU_VERILOG = """
module alu (
    input clk,
    input rst,
    input [1:0] op,
    input [7:0] a,
    input [7:0] b,
    output [7:0] y,
    output zero
);
    reg [7:0] acc;
    always @(posedge clk) begin
        if (rst)
            acc <= 0;
        else begin
            case (op)
                2'd0: acc <= a + b;
                2'd1: acc <= a - b;
                2'd2: acc <= a & b;
                default: acc <= a ^ b;
            endcase
        end
    end
    assign y = acc;
    assign zero = (acc == 0);
endmodule
"""

ALU_VHDL = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity alu is
  port (
    clk  : in  std_logic;
    rst  : in  std_logic;
    op   : in  std_logic_vector(1 downto 0);
    a    : in  std_logic_vector(7 downto 0);
    b    : in  std_logic_vector(7 downto 0);
    y    : out std_logic_vector(7 downto 0);
    zero : out std_logic
  );
end entity;

architecture rtl of alu is
  signal acc : std_logic_vector(7 downto 0);
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        acc <= (others => '0');
      else
        case op is
          when "00" => acc <= std_logic_vector(unsigned(a) + unsigned(b));
          when "01" => acc <= std_logic_vector(unsigned(a) - unsigned(b));
          when "10" => acc <= a and b;
          when others => acc <= a xor b;
        end case;
      end if;
    end if;
  end process;
  y <= acc;
  zero <= '1' when unsigned(acc) = 0 else '0';
end architecture;
"""


@pytest.fixture(scope="module")
def sims():
    return (
        RTLSimulator(compile_verilog(ALU_VERILOG)),
        RTLSimulator(compile_vhdl(ALU_VHDL)),
    )


def _step(sim, op, a, b):
    sim.poke("op", op)
    sim.poke("a", a)
    sim.poke("b", b)
    sim.settle()
    sim.tick()
    return sim.peek("y"), sim.peek("zero")


class TestEquivalence:
    def test_both_compile_with_same_interface(self, sims):
        v, h = sims
        v_io = {(s.name, s.width) for s in v.module.inputs + v.module.outputs}
        h_io = {(s.name, s.width) for s in h.module.inputs + h.module.outputs}
        assert v_io == h_io

    def test_directed_vectors_match(self, sims):
        v, h = sims
        for sim in sims:
            sim.reset()
        vectors = [
            (0, 200, 100), (1, 5, 9), (2, 0xF0, 0x3C), (3, 0xAA, 0xAA),
            (0, 255, 1), (1, 0, 0),
        ]
        for op, a, b in vectors:
            assert _step(v, op, a, b) == _step(h, op, a, b), (op, a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        op=st.integers(min_value=0, max_value=3),
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
    )
    def test_property_lockstep(self, sims, op, a, b):
        v, h = sims
        assert _step(v, op, a, b) == _step(h, op, a, b)
