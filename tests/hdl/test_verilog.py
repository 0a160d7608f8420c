"""Verilog frontend: parse + elaborate + simulate semantics.

Each test compiles a small module through the full toolflow and checks
behaviour, mirroring how Verilator users validate generated models.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.common import ElabError, ParseError
from repro.hdl.verilog import compile_verilog
from repro.rtl.kernel import CombLoopError
from repro.rtl.simulator import RTLSimulator


def comb_eval(expr: str, width=8, inputs=("a", "b", "c"), in_width=8, **values):
    """Compile `assign y = expr;` and evaluate it for given input values."""
    ports = ", ".join(f"input [{in_width - 1}:0] {n}" for n in inputs)
    src = f"""
    module t ({ports}, output [{width - 1}:0] y);
        assign y = {expr};
    endmodule
    """
    sim = RTLSimulator(compile_verilog(src))
    for name, value in values.items():
        sim.poke(name, value)
    sim.settle()
    return sim.peek("y")


class TestOperators:
    def test_arithmetic(self):
        assert comb_eval("a + b", a=200, b=100) == (300 & 0xFF)
        assert comb_eval("a - b", a=5, b=10) == ((5 - 10) & 0xFF)
        assert comb_eval("a * b", a=20, b=20) == (400 & 0xFF)

    def test_division_and_modulo(self):
        assert comb_eval("a / b", a=17, b=5) == 3
        assert comb_eval("a % b", a=17, b=5) == 2

    def test_division_by_zero_yields_zero(self):
        assert comb_eval("a / b", a=17, b=0) == 0
        assert comb_eval("a % b", a=17, b=0) == 0

    def test_bitwise(self):
        assert comb_eval("a & b", a=0xF0, b=0xAA) == 0xA0
        assert comb_eval("a | b", a=0xF0, b=0x0A) == 0xFA
        assert comb_eval("a ^ b", a=0xFF, b=0x0F) == 0xF0

    def test_shifts(self):
        assert comb_eval("a << b", a=1, b=3) == 8
        assert comb_eval("a >> b", a=0x80, b=4) == 8
        assert comb_eval("a << b", a=0xFF, b=4) == 0xF0  # masked to 8 bits

    def test_comparisons(self):
        assert comb_eval("a < b", width=1, a=1, b=2) == 1
        assert comb_eval("a >= b", width=1, a=2, b=2) == 1
        assert comb_eval("a == b", width=1, a=5, b=5) == 1
        assert comb_eval("a != b", width=1, a=5, b=5) == 0

    def test_logical(self):
        assert comb_eval("a && b", width=1, a=3, b=0) == 0
        assert comb_eval("a || b", width=1, a=0, b=7) == 1
        assert comb_eval("!a", width=1, a=0) == 1

    def test_unary(self):
        assert comb_eval("~a", a=0x0F) == 0xF0
        assert comb_eval("-a", a=1) == 0xFF

    def test_reductions(self):
        assert comb_eval("&a", width=1, a=0xFF) == 1
        assert comb_eval("&a", width=1, a=0xFE) == 0
        assert comb_eval("|a", width=1, a=0) == 0
        assert comb_eval("|a", width=1, a=4) == 1
        assert comb_eval("^a", width=1, a=0b1011) == 1
        assert comb_eval("^a", width=1, a=0b1010) == 0
        assert comb_eval("~&a", width=1, a=0xFF) == 0
        assert comb_eval("~|a", width=1, a=0) == 1

    def test_ternary(self):
        assert comb_eval("a ? b : c", a=1, b=5, c=9) == 5
        assert comb_eval("a ? b : c", a=0, b=5, c=9) == 9

    def test_precedence(self):
        assert comb_eval("a + b * c", a=1, b=2, c=3) == 7
        assert comb_eval("(a + b) * c", a=1, b=2, c=3) == 9
        assert comb_eval("a | b & c", a=0b100, b=0b011, c=0b010) == 0b110

    def test_xnor(self):
        assert comb_eval("a ~^ b", a=0xFF, b=0xFF) == 0xFF
        assert comb_eval("a ^~ b", a=0xF0, b=0x0F) == 0x00


class TestSelectsAndConcat:
    def test_constant_bit_select(self):
        assert comb_eval("a[3]", width=1, a=0b1000) == 1

    def test_dynamic_bit_select(self):
        assert comb_eval("a[b]", width=1, a=0b0100, b=2) == 1

    def test_part_select(self):
        assert comb_eval("a[7:4]", width=4, a=0xAB) == 0xA

    def test_part_select_out_of_range_rejected(self):
        with pytest.raises(ElabError):
            comb_eval("a[9:4]", a=0)

    def test_concat(self):
        assert comb_eval("{a[3:0], b[3:0]}", a=0xA, b=0xB) == 0xAB

    def test_replication(self):
        assert comb_eval("{4{a[0]}}", width=4, a=1) == 0xF

    def test_concat_lvalue(self):
        src = """
        module t (input [7:0] x, output [3:0] hi, output [3:0] lo);
            assign {hi, lo} = x;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("x", 0xC5)
        sim.settle()
        assert sim.peek("hi") == 0xC and sim.peek("lo") == 5

    def test_bit_select_lvalue(self):
        src = """
        module t (input clk, input [2:0] idx, input val, output [7:0] q);
            reg [7:0] r;
            always @(posedge clk) r[idx] <= val;
            assign q = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("idx", 5); sim.poke("val", 1); sim.settle(); sim.tick()
        assert sim.peek("q") == 0b100000

    def test_part_select_lvalue(self):
        src = """
        module t (input [3:0] n, output [7:0] q);
            reg [7:0] r;
            always @(*) begin
                r = 8'h00;
                r[7:4] = n;
            end
            assign q = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("n", 0x9); sim.settle()
        assert sim.peek("q") == 0x90


class TestParameters:
    def test_default_and_override(self):
        src = """
        module t #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
            assign y = a + 1;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 0xF); sim.settle()
        assert sim.peek("y") == 0  # wraps at 4 bits
        sim16 = RTLSimulator(compile_verilog(src, params={"W": 16}))
        sim16.poke("a", 0xF); sim16.settle()
        assert sim16.peek("y") == 0x10

    def test_localparam(self):
        src = """
        module t (output [7:0] y);
            localparam MAGIC = 42;
            assign y = MAGIC + 1;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.settle()
        assert sim.peek("y") == 43

    def test_unknown_override_rejected(self):
        src = "module t (output y); assign y = 0; endmodule"
        with pytest.raises(ElabError):
            compile_verilog(src, params={"NOPE": 1})

    def test_parameter_expressions(self):
        src = """
        module t #(parameter W = 8, parameter HALF = W / 2)
                  (output [HALF-1:0] y);
            assign y = {HALF{1'b1}};
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.settle()
        assert sim.peek("y") == 0xF


class TestAlwaysBlocks:
    def test_comb_always_star(self):
        src = """
        module t (input [7:0] a, input [7:0] b, output [7:0] y);
            reg [7:0] r;
            always @(*) begin
                if (a > b) r = a;
                else r = b;
            end
            assign y = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 9); sim.poke("b", 4); sim.settle()
        assert sim.peek("y") == 9

    def test_case_statement(self):
        src = """
        module t (input [1:0] sel, output [7:0] y);
            reg [7:0] r;
            always @(*) begin
                case (sel)
                    2'd0: r = 8'h11;
                    2'd1, 2'd2: r = 8'h22;
                    default: r = 8'h33;
                endcase
            end
            assign y = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        for sel, expect in ((0, 0x11), (1, 0x22), (2, 0x22), (3, 0x33)):
            sim.poke("sel", sel); sim.settle()
            assert sim.peek("y") == expect

    def test_for_loop_in_sync_block(self):
        src = """
        module t (input clk, input [7:0] din, output [7:0] dout);
            reg [7:0] pipe [0:3];
            integer i;
            always @(posedge clk) begin
                for (i = 3; i > 0; i = i - 1)
                    pipe[i] <= pipe[i-1];
                pipe[0] <= din;
            end
            assign dout = pipe[3];
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        for v in (10, 20, 30, 40):
            sim.poke("din", v); sim.settle(); sim.tick()
        assert sim.peek("dout") == 10

    def test_blocking_assign_sequencing_in_comb(self):
        src = """
        module t (input [7:0] a, output [7:0] y);
            reg [7:0] t1;
            reg [7:0] r;
            always @(*) begin
                t1 = a + 1;
                r = t1 * 2;
            end
            assign y = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("a", 3); sim.settle()
        assert sim.peek("y") == 8

    def test_async_reset_idiom(self):
        src = """
        module t (input clk, input rst, output [3:0] q);
            reg [3:0] c;
            always @(posedge clk or posedge rst) begin
                if (rst) c <= 0;
                else c <= c + 1;
            end
            assign q = c;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.reset()
        sim.tick(5)
        assert sim.peek("q") == 5


class TestHierarchy:
    SRC = """
    module half_adder (input x, input y, output s, output c);
        assign s = x ^ y;
        assign c = x & y;
    endmodule

    module full_adder (input a, input b, input cin, output sum, output cout);
        wire s1;
        wire c1;
        wire c2;
        half_adder ha1 (.x(a), .y(b), .s(s1), .c(c1));
        half_adder ha2 (.x(s1), .y(cin), .s(sum), .c(c2));
        assign cout = c1 | c2;
    endmodule
    """

    def test_two_level_hierarchy(self):
        sim = RTLSimulator(compile_verilog(self.SRC, top="full_adder"))
        for a in (0, 1):
            for b in (0, 1):
                for cin in (0, 1):
                    sim.poke("a", a); sim.poke("b", b); sim.poke("cin", cin)
                    sim.settle()
                    total = a + b + cin
                    assert sim.peek("sum") == total & 1
                    assert sim.peek("cout") == total >> 1

    def test_unknown_module_rejected(self):
        src = "module t (output y); nosuch u0 (.p(y)); endmodule"
        with pytest.raises(ElabError):
            compile_verilog(src, top="t")

    def test_unknown_port_rejected(self):
        src = self.SRC + """
        module t (output y);
            half_adder u (.nope(y));
        endmodule
        """
        with pytest.raises(ElabError):
            compile_verilog(src, top="t")

    def test_top_ambiguity_requires_explicit(self):
        with pytest.raises(ElabError, match="multiple modules"):
            compile_verilog(self.SRC)


class TestErrors:
    def test_comb_loop_detected(self):
        # an oscillating zero-delay loop never converges; a value-stable
        # structural loop (a=b; b=a) settles like in event-driven sims
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

    def test_unknown_identifier(self):
        src = "module t (output y); assign y = zz; endmodule"
        with pytest.raises(ElabError):
            compile_verilog(src)

    def test_syntax_error_has_location(self):
        src = "module t (output y)\n  assign y = 1;\nendmodule"
        with pytest.raises(ParseError) as exc:
            compile_verilog(src)
        assert ":2:" in str(exc.value) or ":1:" in str(exc.value)

    def test_ascending_range_rejected(self):
        src = "module t (input [0:7] a, output y); assign y = a[0]; endmodule"
        with pytest.raises(ElabError):
            compile_verilog(src)


# ---------------------------------------------------------------------------
# Property-based: random same-width expressions vs a modular-arithmetic oracle
# ---------------------------------------------------------------------------

_BINOPS = {
    "+": lambda a, b, m: (a + b) & m,
    "-": lambda a, b, m: (a - b) & m,
    "*": lambda a, b, m: (a * b) & m,
    "&": lambda a, b, m: a & b,
    "|": lambda a, b, m: a | b,
    "^": lambda a, b, m: a ^ b,
}


@st.composite
def _expr_trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(["a", "b", "c"]))
    op = draw(st.sampled_from(sorted(_BINOPS)))
    left = draw(_expr_trees(depth=depth + 1))
    right = draw(_expr_trees(depth=depth + 1))
    return (op, left, right)


def _tree_to_verilog(tree) -> str:
    if isinstance(tree, str):
        return tree
    op, l, r = tree
    return f"({_tree_to_verilog(l)} {op} {_tree_to_verilog(r)})"


def _tree_eval(tree, env, mask) -> int:
    if isinstance(tree, str):
        return env[tree]
    op, l, r = tree
    return _BINOPS[op](_tree_eval(l, env, mask), _tree_eval(r, env, mask), mask)


@settings(max_examples=60, deadline=None)
@given(
    tree=_expr_trees(),
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=255),
    c=st.integers(min_value=0, max_value=255),
)
def test_property_expressions_match_modular_oracle(tree, a, b, c):
    """Same-width +,-,*,&,|,^ expressions behave as mod-2^W arithmetic."""
    expr = _tree_to_verilog(tree)
    got = comb_eval(expr, a=a, b=b, c=c)
    want = _tree_eval(tree, {"a": a, "b": b, "c": c}, 0xFF)
    assert got == want, expr


class TestCasez:
    def test_priority_encoder(self):
        src = """
        module pri_enc (input [7:0] req, output [2:0] grant, output any);
            reg [2:0] g;
            reg a;
            always @(*) begin
                a = 1;
                casez (req)
                    8'b1???????: g = 3'd7;
                    8'b01??????: g = 3'd6;
                    8'b001?????: g = 3'd5;
                    8'b0001????: g = 3'd4;
                    8'b00001???: g = 3'd3;
                    8'b000001??: g = 3'd2;
                    8'b0000001?: g = 3'd1;
                    8'b00000001: g = 3'd0;
                    default: begin g = 3'd0; a = 0; end
                endcase
            end
            assign grant = g;
            assign any = a;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        for req in range(256):
            sim.poke("req", req)
            sim.settle()
            if req == 0:
                assert sim.peek("any") == 0
            else:
                assert sim.peek("grant") == req.bit_length() - 1

    def test_z_digit_wildcard(self):
        src = """
        module t (input [3:0] x, output y);
            reg r;
            always @(*) begin
                casez (x)
                    4'b1zz1: r = 1;
                    default: r = 0;
                endcase
            end
            assign y = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        for x, expect in ((0b1001, 1), (0b1111, 1), (0b1011, 1),
                          (0b0001, 0), (0b1000, 0)):
            sim.poke("x", x)
            sim.settle()
            assert sim.peek("y") == expect, bin(x)

    def test_hex_wildcard_nibbles(self):
        src = """
        module t (input [7:0] x, output y);
            reg r;
            always @(*) begin
                casez (x)
                    8'hA?: r = 1;
                    default: r = 0;
                endcase
            end
            assign y = r;
        endmodule
        """
        sim = RTLSimulator(compile_verilog(src))
        sim.poke("x", 0xA7); sim.settle()
        assert sim.peek("y") == 1
        sim.poke("x", 0xB7); sim.settle()
        assert sim.peek("y") == 0

    def test_wildcard_outside_case_rejected(self):
        from repro.hdl.common import ElabError

        with pytest.raises(ElabError):
            compile_verilog(
                "module t (output [1:0] y); assign y = 2'b1?; endmodule"
            )
