"""Verilog generate-for and generate-if: structural unrolling, the taken
arm, naming, nesting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.common import ElabError
from repro.hdl.verilog import compile_verilog
from repro.rtl import CombLoopError, RTLSimulator, ir

RIPPLE = """
module fa (input a, input b, input cin, output s, output cout);
    assign s = a ^ b ^ cin;
    assign cout = (a & b) | (a & cin) | (b & cin);
endmodule

module ripple_add #(parameter W = 8) (
    input [W-1:0] x, input [W-1:0] y,
    output [W-1:0] sum, output carry
);
    wire [W:0] c;
    assign c[0] = 1'b0;
    genvar i;
    generate
        for (i = 0; i < W; i = i + 1) begin : bit
            wire s_i;
            fa u (.a(x[i]), .b(y[i]), .cin(c[i]), .s(s_i), .cout(c[i+1]));
            assign sum[i] = s_i;
        end
    endgenerate
    assign carry = c[W];
endmodule
"""


class TestGenerateFor:
    @pytest.fixture(scope="class")
    def adder(self):
        return RTLSimulator(compile_verilog(RIPPLE, top="ripple_add"))

    def test_structural_adder_adds(self, adder):
        for a, b in ((0, 0), (1, 1), (200, 100), (255, 255), (170, 85)):
            adder.poke("x", a)
            adder.poke("y", b)
            adder.settle()
            assert adder.peek("sum") == (a + b) & 0xFF, (a, b)
            assert adder.peek("carry") == (a + b) >> 8

    def test_per_iteration_names_are_scoped(self, adder):
        names = set(adder.module.signals)
        assert "bit[0].s_i" in names and "bit[7].s_i" in names
        assert "bit[3].u.s" in names  # instance inside the generate block

    def test_parameterised_width(self):
        sim = RTLSimulator(
            compile_verilog(RIPPLE, top="ripple_add", params={"W": 12})
        )
        sim.poke("x", 0xFFF)
        sim.poke("y", 1)
        sim.settle()
        assert sim.peek("sum") == 0 and sim.peek("carry") == 1

    def test_generate_without_region_keyword(self):
        """Verilog-2005 allows a bare for-generate at module scope."""
        src = """
        module t (input [3:0] a, output [3:0] y);
            genvar i;
            for (i = 0; i < 4; i = i + 1) begin : g
                assign y[i] = ~a[i];
            end
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 0b0101)
        sim.settle()
        assert sim.peek("y") == 0b1010

    def test_nested_generate(self):
        src = """
        module t (input [3:0] a, output [15:0] y);
            genvar i;
            genvar j;
            for (i = 0; i < 4; i = i + 1) begin : outer
                for (j = 0; j < 4; j = j + 1) begin : inner
                    assign y[i * 4 + j] = a[i] & a[j];
                end
            end
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 0b1010)
        sim.settle()
        expected = 0
        a = 0b1010
        for i in range(4):
            for j in range(4):
                if (a >> i) & 1 and (a >> j) & 1:
                    expected |= 1 << (i * 4 + j)
        assert sim.peek("y") == expected

    def test_genvar_visible_in_expressions(self):
        src = """
        module t (output [7:0] y);
            genvar i;
            for (i = 0; i < 8; i = i + 1) begin : g
                assign y[i] = (i % 2 == 0);
            end
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.settle()
        assert sim.peek("y") == 0b01010101

    def test_registered_generate_blocks(self):
        src = """
        module t (input clk, input [3:0] d, output [3:0] q);
            genvar i;
            for (i = 0; i < 4; i = i + 1) begin : g
                reg bitreg;
                always @(posedge clk) bitreg <= d[i];
                assign q[i] = bitreg;
            end
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("d", 0b1100)
        sim.settle()
        sim.tick()
        assert sim.peek("q") == 0b1100

    def test_runaway_generate_rejected(self):
        src = """
        module t (output y);
            genvar i;
            for (i = 0; i >= 0; i = i + 1) begin : g
            end
            assign y = 0;
        endmodule
        """
        with pytest.raises(ElabError, match="iterations"):
            compile_verilog(src)


SELECT = """
module t #(parameter P = 1) (input [3:0] a, output [3:0] y);
    if (P) begin
        wire [3:0] fwd;
        assign fwd = a;
        assign y = fwd;
    end else begin : inv
        wire [3:0] fwd;
        assign fwd = ~a;
        assign y = fwd;
    end
endmodule
"""


def _settled(src, a, **params):
    sim = RTLSimulator(compile_verilog(src, top="t", params=params))
    sim.poke("a", a)
    sim.settle()
    return sim


class TestGenerateIf:
    def test_only_the_taken_arm_exists_and_labels_prefix(self):
        taken = _settled(SELECT, 0b0101, P=1)
        assert "fwd" in taken.module.signals  # unlabelled: no prefix
        assert not any(n.startswith("inv.") for n in taken.module.signals)
        other = _settled(SELECT, 0b0101, P=0)
        assert "inv.fwd" in other.module.signals
        assert "fwd" not in other.module.signals
        assert (taken.peek("y"), other.peek("y")) == (0b0101, 0b1010)

    def test_nests_in_and_around_generate_for(self):
        src = """
        module t #(parameter N = 4) (input [3:0] a, output [3:0] y);
            genvar i;
            if (N == 4) begin : wide
                for (i = 0; i < N; i = i + 1) begin : g
                    if (i % 2 == 0) assign y[i] = a[i];
                    else begin : odd
                        wire b;
                        assign b = ~a[i];
                        assign y[i] = b;
                    end
                end
            end else assign y = ~a;
        endmodule
        """
        sim = _settled(src, 0b0000)
        names = set(sim.module.signals)
        assert {"wide.g[1].odd.b", "wide.g[3].odd.b"} <= names
        assert sim.peek("y") == 0b1010
        assert _settled(src, 0b0001, N=2).peek("y") == 0b1110

    def test_non_constant_condition_is_an_error_at_its_location(self):
        src = "module t (input a, output y);\n if (a) assign y = 1;\nendmodule"
        with pytest.raises(ElabError, match="must be constant") as err:
            compile_verilog(src, top="t", filename="c.v")
        assert (err.value.loc.filename, err.value.loc.line) == ("c.v", 2)

    def test_procedural_constant_if_compiles_one_arm(self):
        src = """
        module t #(parameter P = 1) (input clk, input [3:0] a,
                                     output reg [3:0] q);
            always @(posedge clk) if (P) q <= a; else q <= ~a;
        endmodule
        """
        for p, want in ((1, 0b0101), (0, 0b1010)):
            sim = _settled(src, 0b0101, P=p)
            body = sim.module.sync_procs[0].body
            assert [type(stmt) for stmt in body] == [ir.Store]
            sim.tick()
            assert sim.peek("q") == want


class TestIterativeSettle:
    def test_bitwise_feedback_settles(self):
        """Word-level false loops (ripple carry) settle iteratively."""
        sim = RTLSimulator(compile_verilog(RIPPLE, top="ripple_add"))
        assert sim._iterative

    def test_true_loop_still_detected(self):
        src = """
        module t (output y);
            wire a;
            wire b;
            assign a = ~b;
            assign b = a;
            assign y = a;
        endmodule
        """
        with pytest.raises(CombLoopError):
            RTLSimulator(compile_verilog(src))


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=0xFFFF),
    b=st.integers(min_value=0, max_value=0xFFFF),
)
def test_property_structural_adder_matches_python(a, b):
    sim = test_property_structural_adder_matches_python._sim
    sim.poke("x", a)
    sim.poke("y", b)
    sim.settle()
    assert sim.peek("sum") == (a + b) & 0xFFFF
    assert sim.peek("carry") == (a + b) >> 16


test_property_structural_adder_matches_python._sim = RTLSimulator(
    compile_verilog(RIPPLE, top="ripple_add", params={"W": 16})
)
