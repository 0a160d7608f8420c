"""Every lint rule has a positive (fires) and negative (clean) fixture."""

from __future__ import annotations

from repro.verify import lint_source
from repro.verify.lint import (
    RULE_ASYNCRESET,
    RULE_CASE,
    RULE_LATCH,
    RULE_MULTIDRIVEN,
    RULE_SNOOPDRIVE,
    RULE_SYNTAX,
    RULE_UNDRIVEN,
    RULE_UNUSED,
    RULE_WIDTH,
)


def rules_of(source: str, filename: str = "t.v") -> set[str]:
    return {f.rule for f in lint_source(source, filename).findings}


class TestMultiDriven:
    def test_two_continuous_assigns_fire(self):
        src = """
        module m(input a, input b, output x);
            assign x = a;
            assign x = b;
        endmodule
        """
        assert RULE_MULTIDRIVEN in rules_of(src)

    def test_two_always_blocks_fire(self):
        src = """
        module m(input clk, input a, output reg r);
            always @(posedge clk) r <= a;
            always @(posedge clk) r <= ~a;
        endmodule
        """
        assert RULE_MULTIDRIVEN in rules_of(src)

    def test_cont_assign_plus_always_fires(self):
        src = """
        module m(input clk, input a, output reg r);
            assign r = a;
            always @(posedge clk) r <= ~a;
        endmodule
        """
        assert RULE_MULTIDRIVEN in rules_of(src)

    def test_single_driver_is_clean(self):
        src = """
        module m(input a, output x);
            assign x = a;
        endmodule
        """
        assert RULE_MULTIDRIVEN not in rules_of(src)

    def test_generate_if_arms_are_one_driver_but_not_with_another(self):
        src = """
        module m #(parameter P = 0) (input a, input b, output x);
            if (P) assign x = a; else assign x = b;
            {}
        endmodule
        """
        for p in (0, 1):
            for extra, fires in (("", False), ("assign x = a & b;", True)):
                report = lint_source(src.format(extra), "t.v",
                                     params={"P": p})
                rules = {f.rule for f in report.findings}
                assert (RULE_MULTIDRIVEN in rules) == fires, (p, extra)

    def test_shared_loop_variable_is_clean(self):
        """A loop index reused across blocks is idiomatic, not a bug."""
        src = """
        module m(input clk, output reg [3:0] a, output reg [3:0] b);
            integer i;
            always @(posedge clk) begin
                for (i = 0; i < 4; i = i + 1) a[i] <= 1'b0;
            end
            always @(posedge clk) begin
                for (i = 0; i < 4; i = i + 1) b[i] <= 1'b1;
            end
        endmodule
        """
        findings = lint_source(src, "t.v").findings
        assert not any(
            f.rule == RULE_MULTIDRIVEN and "'i'" in f.message
            for f in findings
        )


class TestLatch:
    def test_if_without_else_fires(self):
        src = """
        module m(input s, input d, output reg q);
            always @(*) begin
                if (s) q = d;
            end
        endmodule
        """
        assert RULE_LATCH in rules_of(src)

    def test_if_with_else_is_clean(self):
        src = """
        module m(input s, input d, output reg q);
            always @(*) begin
                if (s) q = d; else q = 1'b0;
            end
        endmodule
        """
        assert RULE_LATCH not in rules_of(src)

    def test_default_before_if_is_clean(self):
        src = """
        module m(input s, input d, output reg q);
            always @(*) begin
                q = 1'b0;
                if (s) q = d;
            end
        endmodule
        """
        assert RULE_LATCH not in rules_of(src)

    def test_sequential_block_never_fires(self):
        src = """
        module m(input clk, input s, input d, output reg q);
            always @(posedge clk) begin
                if (s) q <= d;
            end
        endmodule
        """
        assert RULE_LATCH not in rules_of(src)


class TestWidth:
    def test_truncating_assign_fires(self):
        src = """
        module m(input [7:0] a, output [3:0] x);
            assign x = a;
        endmodule
        """
        assert RULE_WIDTH in rules_of(src)

    def test_matching_widths_are_clean(self):
        src = """
        module m(input [7:0] a, output [7:0] x);
            assign x = a;
        endmodule
        """
        assert RULE_WIDTH not in rules_of(src)

    def test_port_connection_mismatch_fires(self):
        src = """
        module child(input [7:0] d, output [7:0] q);
            assign q = d;
        endmodule
        module top(input [3:0] d, output [7:0] q);
            child u0(.d(d), .q(q));
        endmodule
        """
        assert RULE_WIDTH in rules_of(src)

    def test_unsized_literal_is_flexible(self):
        src = """
        module m(output [3:0] x);
            assign x = 3;
        endmodule
        """
        assert RULE_WIDTH not in rules_of(src)


class TestCase:
    def test_incomplete_case_without_default_fires(self):
        src = """
        module m(input [1:0] sel, output reg q);
            always @(*) begin
                q = 1'b0;
                case (sel)
                    2'b00: q = 1'b1;
                    2'b01: q = 1'b0;
                endcase
            end
        endmodule
        """
        assert RULE_CASE in rules_of(src)

    def test_default_arm_is_clean(self):
        src = """
        module m(input [1:0] sel, output reg q);
            always @(*) begin
                case (sel)
                    2'b00: q = 1'b1;
                    default: q = 1'b0;
                endcase
            end
        endmodule
        """
        assert RULE_CASE not in rules_of(src)

    def test_exhaustive_case_is_clean(self):
        src = """
        module m(input sel, output reg q);
            always @(*) begin
                case (sel)
                    1'b0: q = 1'b1;
                    1'b1: q = 1'b0;
                endcase
            end
        endmodule
        """
        assert RULE_CASE not in rules_of(src)


class TestUnusedUndriven:
    def test_unused_wire_fires(self):
        src = """
        module m(input a, output x);
            wire dead;
            assign dead = a;
            assign x = a;
        endmodule
        """
        findings = lint_source(src, "t.v").findings
        assert any(f.rule == RULE_UNUSED and "'dead'" in f.message
                   for f in findings)

    def test_used_wire_is_clean(self):
        src = """
        module m(input a, output x);
            wire mid;
            assign mid = a;
            assign x = mid;
        endmodule
        """
        assert RULE_UNUSED not in rules_of(src)

    def test_undriven_wire_fires(self):
        src = """
        module m(output x);
            wire ghost;
            assign x = ghost;
        endmodule
        """
        findings = lint_source(src, "t.v").findings
        assert any(f.rule == RULE_UNDRIVEN and "'ghost'" in f.message
                   for f in findings)

    def test_input_port_is_never_undriven(self):
        src = """
        module m(input a, output x);
            assign x = a;
        endmodule
        """
        assert RULE_UNDRIVEN not in rules_of(src)


class TestAsyncReset:
    def test_untested_async_reset_fires(self):
        src = """
        module m(input clk, input rst, input d, output reg q);
            always @(posedge clk or posedge rst) begin
                q <= d;
            end
        endmodule
        """
        assert RULE_ASYNCRESET in rules_of(src)

    def test_wrong_polarity_fires(self):
        src = """
        module m(input clk, input rst_n, input d, output reg q);
            always @(posedge clk or negedge rst_n) begin
                if (rst_n) q <= 1'b0;
                else q <= d;
            end
        endmodule
        """
        assert RULE_ASYNCRESET in rules_of(src)

    def test_proper_async_reset_is_clean(self):
        src = """
        module m(input clk, input rst_n, input d, output reg q);
            always @(posedge clk or negedge rst_n) begin
                if (!rst_n) q <= 1'b0;
                else q <= d;
            end
        endmodule
        """
        assert RULE_ASYNCRESET not in rules_of(src)

    def test_mixed_polarity_across_blocks_fires(self):
        src = """
        module m(input clk, input rst, input d, output reg a, output reg b);
            always @(posedge clk or posedge rst) begin
                if (rst) a <= 1'b0; else a <= d;
            end
            always @(posedge clk or negedge rst) begin
                if (!rst) b <= 1'b0; else b <= d;
            end
        endmodule
        """
        assert RULE_ASYNCRESET in rules_of(src)

    def test_sync_only_sensitivity_is_clean(self):
        src = """
        module m(input clk, input rst, input d, output reg q);
            always @(posedge clk) begin
                if (rst) q <= 1'b0; else q <= d;
            end
        endmodule
        """
        assert RULE_ASYNCRESET not in rules_of(src)


class TestSyntaxFindings:
    def test_verilog_parse_error_becomes_finding(self):
        report = lint_source("module m(input a;\n", "broken.v")
        assert [f.rule for f in report.findings] == [RULE_SYNTAX]
        f = report.findings[0]
        assert f.severity == "error"
        assert f.file == "broken.v"
        assert f.line >= 1
        assert not report.clean

    def test_vhdl_parse_error_becomes_finding(self):
        report = lint_source("entity e is port (\n", "broken.vhdl")
        assert [f.rule for f in report.findings] == [RULE_SYNTAX]
        assert report.findings[0].file == "broken.vhdl"

    def test_valid_source_has_no_syntax_finding(self):
        assert RULE_SYNTAX not in rules_of(
            "module m(input a, output x); assign x = a; endmodule"
        )


class TestVHDLLint:
    """The same pipeline lints VHDL via the shared AST."""

    def test_clean_vhdl_entity(self):
        src = """
        entity ctr is
          port (clk : in bit; rst : in bit;
                q : out bit_vector(7 downto 0));
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
        assert lint_source(src, "ctr.vhdl").clean

    def test_vhdl_unused_signal_fires(self):
        src = """
        entity e is
          port (a : in bit; x : out bit);
        end entity;
        architecture rtl of e is
          signal dead : bit;
        begin
          x <= a;
        end architecture;
        """
        findings = lint_source(src, "e.vhdl").findings
        assert any(f.rule == RULE_UNUSED and "'dead'" in f.message
                   for f in findings)


class TestSnoopDrive:
    """Snoop handshake outputs must be driven in every state of a
    clocked block — a conditionally-driven snoop_ack holds its last
    value and acknowledges probes that were never observed."""

    BAD = """
    module m(input clk, input rst, input snoop_valid,
             output reg snoop_ack, output reg snoop_hit);
        always @(posedge clk) begin
            if (rst) begin
                snoop_ack <= 1'b0;
                snoop_hit <= 1'b0;
            end else begin
                if (snoop_valid) begin
                    snoop_ack <= 1'b1;
                    snoop_hit <= 1'b1;
                end
            end
        end
    endmodule
    """

    GOOD = """
    module m(input clk, input rst, input snoop_valid,
             output reg snoop_ack, output reg snoop_hit);
        always @(posedge clk) begin
            if (rst) begin
                snoop_ack <= 1'b0;
                snoop_hit <= 1'b0;
            end else begin
                snoop_ack <= 1'b0;
                snoop_hit <= 1'b0;
                if (snoop_valid) begin
                    snoop_ack <= 1'b1;
                    snoop_hit <= 1'b1;
                end
            end
        end
    endmodule
    """

    def test_conditionally_driven_snoop_output_fires(self):
        assert RULE_SNOOPDRIVE in rules_of(self.BAD)

    def test_default_assignment_every_state_is_clean(self):
        assert RULE_SNOOPDRIVE not in rules_of(self.GOOD)

    def test_non_snoop_outputs_are_not_flagged(self):
        src = """
        module m(input clk, input en, output reg ack);
            always @(posedge clk) begin
                if (en) ack <= 1'b1;
            end
        endmodule
        """
        assert RULE_SNOOPDRIVE not in rules_of(src)

    def test_internal_snoop_regs_are_not_flagged(self):
        src = """
        module m(input clk, input en, output reg q);
            reg snoop_seen;
            always @(posedge clk) begin
                if (en) snoop_seen <= 1'b1;
                q <= snoop_seen;
            end
        endmodule
        """
        assert RULE_SNOOPDRIVE not in rules_of(src)

    def test_finding_is_a_waivable_warning(self):
        report = lint_source(self.BAD, "t.v")
        f = [x for x in report.findings if x.rule == RULE_SNOOPDRIVE][0]
        assert f.severity == "warning"
        waived = lint_source(
            self.BAD.replace("always @(posedge clk) begin",
                             "always @(posedge clk) begin "
                             "// repro-lint: waive=SNOOPDRIVE"),
            "t.v",
        )
        assert all(x.waived for x in waived.findings
                   if x.rule == RULE_SNOOPDRIVE)

    def test_bundled_coherent_cache_is_clean(self):
        from repro.verify.designs import get_design

        design = get_design("rtlcache_coh")
        report = lint_source(design.source(), design.filename,
                             params=design.params)
        assert not [f for f in report.findings if not f.waived]
        # the snoop ports are live in this configuration: nothing about
        # them needed a waiver
        assert not [f for f in report.findings if "snoop" in f.message]
