"""Elaborator internals: codegen inspection, deep hierarchies, width rules."""

import pytest

from repro.hdl.common import ElabError
from repro.hdl.verilog import compile_verilog
from repro.rtl.simulator import RTLSimulator


class TestGeneratedSource:
    def test_source_attached_to_module(self):
        rtl = compile_verilog(
            "module t (input a, output y); assign y = ~a; endmodule"
        )
        src = rtl.generated_source
        assert "def _comb_" in src
        assert "v[" in src

    def test_sync_process_signature(self):
        rtl = compile_verilog("""
        module t (input clk, input d, output q);
            reg r;
            always @(posedge clk) r <= d;
            assign q = r;
        endmodule
        """)
        assert "def _sync_" in rtl.generated_source
        assert "(v, m, nba, nbm)" in rtl.generated_source


class TestHierarchy:
    def test_three_level_parameter_propagation(self):
        src = """
        module leaf #(parameter W = 1) (input [W-1:0] a, output [W-1:0] y);
            assign y = a + 1;
        endmodule
        module mid #(parameter W = 1) (input [W-1:0] a, output [W-1:0] y);
            leaf #(.W(W)) u (.a(a), .y(y));
        endmodule
        module top (input [11:0] a, output [11:0] y);
            mid #(.W(12)) u (.a(a), .y(y));
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src, top="top"))
        sim.poke("a", 0xFFF)
        sim.settle()
        assert sim.peek("y") == 0  # wraps at 12 bits: param reached the leaf

    def test_flattened_names_are_prefixed(self):
        src = """
        module inner (input a, output y); assign y = a; endmodule
        module outer (input a, output y);
            inner u0 (.a(a), .y(y));
        endmodule
        """
        rtl = compile_verilog(src, top="outer")
        assert any(name.startswith("u0.") for name in rtl.signals)

    def test_two_instances_do_not_share_state(self):
        src = """
        module cnt (input clk, input en, output [3:0] q);
            reg [3:0] c;
            always @(posedge clk) if (en) c <= c + 1;
            assign q = c;
        endmodule
        module top (input clk, input e0, input e1,
                    output [3:0] q0, output [3:0] q1);
            cnt a (.clk(clk), .en(e0), .q(q0));
            cnt b (.clk(clk), .en(e1), .q(q1));
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src, top="top"))
        sim.poke("e0", 1); sim.poke("e1", 0); sim.settle()
        sim.tick(5)
        assert sim.peek("q0") == 5 and sim.peek("q1") == 0

    def test_unconnected_port_allowed(self):
        src = """
        module leaf (input a, output y, output z);
            assign y = a;
            assign z = ~a;
        endmodule
        module top (input a, output y);
            leaf u (.a(a), .y(y), .z());
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src, top="top"))
        sim.poke("a", 1); sim.settle()
        assert sim.peek("y") == 1

    def test_output_to_expression_rejected(self):
        src = """
        module leaf (input a, output y); assign y = a; endmodule
        module top (input a, output y);
            leaf u (.a(a), .y(y + 1));
        endmodule
        """
        with pytest.raises(ElabError):
            compile_verilog(src, top="top")


class TestWidthRules:
    def test_wider_operand_wins(self):
        src = """
        module t (input [3:0] a, input [11:0] b, output [11:0] y);
            assign y = a + b;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 0xF); sim.poke("b", 0xFF0); sim.settle()
        assert sim.peek("y") == 0xFFF

    def test_assignment_truncates(self):
        src = """
        module t (input [7:0] a, output [3:0] y);
            assign y = a;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 0xAB); sim.settle()
        assert sim.peek("y") == 0xB

    def test_memory_index_wraps(self):
        """Out-of-range memory index wraps (documented deviation)."""
        src = """
        module t (input [7:0] idx, output [7:0] y);
            reg [7:0] m [0:3];
            always @(*) begin
                m[0] = 8'h11;
                m[1] = 8'h22;
                m[2] = 8'h33;
                m[3] = 8'h44;
            end
            assign y = m[idx];
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("idx", 5)  # 5 % 4 == 1
        sim.settle()
        assert sim.peek("y") == 0x22

    def test_shift_by_huge_amount(self):
        src = """
        module t (input [7:0] a, input [7:0] s, output [7:0] y);
            assign y = a << s;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 0xFF); sim.poke("s", 200); sim.settle()
        assert sim.peek("y") == 0


class TestRegressions:
    def test_signal_init_value(self):
        src = """
        module t (input clk, output [7:0] y);
            reg [7:0] r = 8'h5A;
            assign y = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.settle()
        assert sim.peek("y") == 0x5A

    def test_multiple_assign_statements_one_keyword(self):
        src = """
        module t (input a, output x, output y);
            assign x = a, y = ~a;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 1); sim.settle()
        assert sim.peek("x") == 1 and sim.peek("y") == 0

    def test_nba_to_concat_lvalue(self):
        src = """
        module t (input clk, input [7:0] d, output [3:0] hi, output [3:0] lo);
            reg [3:0] h;
            reg [3:0] l;
            always @(posedge clk) {h, l} <= d;
            assign hi = h;
            assign lo = l;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("d", 0xA7); sim.settle(); sim.tick()
        assert sim.peek("hi") == 0xA and sim.peek("lo") == 0x7
