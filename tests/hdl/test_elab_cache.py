"""Design compilation cache: identical sources share one elaboration."""

from __future__ import annotations

import pytest

from repro.hdl.elaborator import ELAB_CACHE
from repro.hdl.verilog import compile_verilog
from repro.hdl.vhdl import compile_vhdl

COUNTER_V = """
module ctr(input clk, input rst, output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 0; else q <= q + 1;
    end
endmodule
"""

COUNTER_VHDL = """
entity ctr is
  port (clk : in bit; rst : in bit; q : out bit_vector(7 downto 0));
end entity;
architecture rtl of ctr is
  signal cnt : bit_vector(7 downto 0);
begin
  q <= cnt;
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        cnt <= (others => '0');
      end if;
    end if;
  end process;
end architecture;
"""


@pytest.fixture(autouse=True)
def clean_cache():
    ELAB_CACHE.clear()
    yield
    ELAB_CACHE.clear()


class TestSharing:
    def test_identical_compiles_share_one_design(self):
        a = compile_verilog(COUNTER_V, top="ctr")
        b = compile_verilog(COUNTER_V, top="ctr")
        assert a is b
        assert ELAB_CACHE.info()["hits"] >= 1

    def test_different_params_do_not_share(self):
        src = COUNTER_V.replace("[7:0]", "[W-1:0]").replace(
            "module ctr(", "module ctr #(parameter W = 8) ("
        )
        a = compile_verilog(src, top="ctr", params={"W": 8})
        b = compile_verilog(src, top="ctr", params={"W": 16})
        assert a is not b
        assert a.signals["q"].width == 8
        assert b.signals["q"].width == 16

    def test_different_source_does_not_share(self):
        a = compile_verilog(COUNTER_V, top="ctr")
        b = compile_verilog(COUNTER_V + "\n// trailing comment", top="ctr")
        assert a is not b

    def test_vhdl_keying_is_case_insensitive(self):
        a = compile_vhdl(COUNTER_VHDL, top="ctr")
        b = compile_vhdl(COUNTER_VHDL, top="CTR")
        assert a is b

    def test_frontends_never_collide(self):
        """Same source text through both frontends must key separately."""
        key_v = ELAB_CACHE.key("verilog", COUNTER_V, "ctr", None)
        key_h = ELAB_CACHE.key("vhdl", COUNTER_V, "ctr", None)
        assert key_v != key_h


class TestInstrumentationKeying:
    """Coverage-instrumented builds must never collide with plain ones."""

    def test_instrumented_and_plain_do_not_share(self):
        from repro.hdl.common import CoverageOptions

        plain = compile_verilog(COUNTER_V, top="ctr")
        cov = compile_verilog(COUNTER_V, top="ctr",
                              instrument=CoverageOptions())
        assert plain is not cov
        assert plain.coverage_points == []
        assert cov.coverage_points

    def test_same_instrument_options_share(self):
        from repro.hdl.common import CoverageOptions

        a = compile_verilog(COUNTER_V, top="ctr",
                            instrument=CoverageOptions())
        b = compile_verilog(COUNTER_V, top="ctr",
                            instrument=CoverageOptions())
        assert a is b

    def test_different_instrument_options_do_not_share(self):
        from repro.hdl.common import CoverageOptions

        a = compile_verilog(COUNTER_V, top="ctr",
                            instrument=CoverageOptions())
        b = compile_verilog(COUNTER_V, top="ctr",
                            instrument=CoverageOptions(statement=False))
        assert a is not b

    def test_key_includes_instrument_token(self):
        from repro.hdl.common import CoverageOptions

        plain = ELAB_CACHE.key("verilog", COUNTER_V, "ctr", None)
        cov = ELAB_CACHE.key("verilog", COUNTER_V, "ctr", None,
                             CoverageOptions())
        assert plain != cov


class TestSharedSimulation:
    def test_shared_design_simulates_independently(self):
        from repro.rtl.simulator import RTLSimulator

        module = compile_verilog(COUNTER_V, top="ctr")
        assert compile_verilog(COUNTER_V, top="ctr") is module
        s1 = RTLSimulator(module)
        s2 = RTLSimulator(module)
        for s in (s1, s2):
            s.reset("rst")
        s1.tick(5)
        s2.tick(2)
        assert s1.peek("q") == 5
        assert s2.peek("q") == 2


class TestKnob:
    def test_clear_resets_counters(self):
        compile_verilog(COUNTER_V, top="ctr")
        compile_verilog(COUNTER_V, top="ctr")
        ELAB_CACHE.clear()
        info = ELAB_CACHE.info()
        assert info == {**info, "entries": 0, "hits": 0, "misses": 0}

    def test_miss_then_hit_counters(self):
        compile_verilog(COUNTER_V, top="ctr")
        assert ELAB_CACHE.info()["misses"] == 1
        compile_verilog(COUNTER_V, top="ctr")
        info = ELAB_CACHE.info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["entries"] == 1
