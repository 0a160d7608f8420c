"""VHDL frontend: parse + elaborate + simulate semantics (GHDL flow)."""

import pytest

from repro.hdl.common import Loc, ParseError
from repro.hdl.vhdl import compile_vhdl
from repro.hdl.vhdl.lexer import parse_bitstring, tokenize
from repro.rtl.simulator import RTLSimulator


def vhdl_comb(body: str, decls: str = "", in_width=8, out_width=8):
    src = f"""
    library ieee;
    use ieee.std_logic_1164.all;
    use ieee.numeric_std.all;
    entity t is
      port (
        a : in std_logic_vector({in_width - 1} downto 0);
        b : in std_logic_vector({in_width - 1} downto 0);
        y : out std_logic_vector({out_width - 1} downto 0)
      );
    end entity;
    architecture rtl of t is
      {decls}
    begin
      {body}
    end architecture;
    """
    return RTLSimulator(compile_vhdl(src))


class TestLexer:
    def test_case_insensitive(self):
        toks = tokenize("ENTITY Foo IS")
        assert [(t.kind, t.text) for t in toks[:3]] == [
            ("KW", "entity"), ("ID", "foo"), ("KW", "is")
        ]

    def test_comment(self):
        toks = tokenize("a -- comment\nb")
        assert [t.text for t in toks if t.kind == "ID"] == ["a", "b"]

    def test_char_literal(self):
        toks = tokenize("x <= '1';")
        assert any(t.kind == "CHAR" and t.text == "'1'" for t in toks)

    def test_bitstrings(self):
        assert parse_bitstring('"0101"', Loc(1, 1)) == (4, 5)
        assert parse_bitstring('x"ff"', Loc(1, 1)) == (8, 255)
        assert parse_bitstring('b"11"', Loc(1, 1)) == (2, 3)

    def test_operators(self):
        toks = tokenize("y <= a /= b;")
        assert any(t.is_op("/=") for t in toks)
        assert any(t.is_op("<=") for t in toks)


class TestConcurrent:
    def test_arithmetic_assignment(self):
        sim = vhdl_comb("y <= std_logic_vector(unsigned(a) + unsigned(b));")
        sim.poke("a", 200); sim.poke("b", 100); sim.settle()
        assert sim.peek("y") == (300 & 0xFF)

    def test_logical_ops(self):
        sim = vhdl_comb("y <= a and b;")
        sim.poke("a", 0xF0); sim.poke("b", 0xAA); sim.settle()
        assert sim.peek("y") == 0xA0

    def test_when_else_chain(self):
        sim = vhdl_comb(
            'y <= x"01" when unsigned(a) > unsigned(b) else '
            'x"02" when a = b else x"03";'
        )
        sim.poke("a", 9); sim.poke("b", 3); sim.settle()
        assert sim.peek("y") == 1
        sim.poke("b", 9); sim.settle()
        assert sim.peek("y") == 2
        sim.poke("b", 20); sim.settle()
        assert sim.peek("y") == 3

    def test_concatenation(self):
        sim = vhdl_comb("y <= a(3 downto 0) & b(3 downto 0);")
        sim.poke("a", 0x0A); sim.poke("b", 0x0B); sim.settle()
        assert sim.peek("y") == 0xAB

    def test_not_operator(self):
        sim = vhdl_comb("y <= not a;")
        sim.poke("a", 0x0F); sim.settle()
        assert sim.peek("y") == 0xF0

    def test_shift_operators(self):
        sim = vhdl_comb("y <= std_logic_vector(unsigned(a) sll 2);")
        sim.poke("a", 3); sim.settle()
        assert sim.peek("y") == 12

    def test_slice_read(self):
        sim = vhdl_comb("y <= a(7 downto 4) & a(3 downto 0);")
        sim.poke("a", 0x5C); sim.settle()
        assert sim.peek("y") == 0x5C

    def test_bit_index(self):
        src = """
        entity t is
          port (a : in std_logic_vector(7 downto 0); y : out std_logic);
        end entity;
        architecture rtl of t is begin
          y <= a(6);
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        sim.poke("a", 0x40); sim.settle()
        assert sim.peek("y") == 1


class TestProcesses:
    def test_clocked_register(self):
        src = """
        entity t is
          port (clk : in std_logic;
                d : in std_logic_vector(7 downto 0);
                q : out std_logic_vector(7 downto 0));
        end entity;
        architecture rtl of t is
          signal r : std_logic_vector(7 downto 0);
        begin
          process(clk) begin
            if rising_edge(clk) then
              r <= d;
            end if;
          end process;
          q <= r;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        sim.poke("d", 0x7E); sim.settle()
        assert sim.peek("q") == 0
        sim.tick()
        assert sim.peek("q") == 0x7E

    def test_sync_reset_elsif_idiom(self):
        src = """
        entity t is
          port (clk, rst, en : in std_logic;
                q : out std_logic_vector(3 downto 0));
        end entity;
        architecture rtl of t is
          signal c : std_logic_vector(3 downto 0);
        begin
          process(rst, clk) begin
            if rst = '1' then
              c <= (others => '0');
            elsif rising_edge(clk) then
              if en = '1' then
                c <= std_logic_vector(unsigned(c) + 1);
              end if;
            end if;
          end process;
          q <= c;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        sim.reset()
        sim.poke("en", 1); sim.settle(); sim.tick(5)
        assert sim.peek("q") == 5
        sim.poke("rst", 1); sim.settle(); sim.tick()
        assert sim.peek("q") == 0

    def test_combinational_process(self):
        src = """
        entity t is
          port (a, b : in std_logic_vector(7 downto 0);
                y : out std_logic_vector(7 downto 0));
        end entity;
        architecture rtl of t is begin
          process(a, b) begin
            if unsigned(a) > unsigned(b) then
              y <= a;
            else
              y <= b;
            end if;
          end process;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        sim.poke("a", 3); sim.poke("b", 9); sim.settle()
        assert sim.peek("y") == 9

    def test_case_statement(self):
        src = """
        entity t is
          port (sel : in std_logic_vector(1 downto 0);
                y : out std_logic_vector(7 downto 0));
        end entity;
        architecture rtl of t is begin
          process(sel) begin
            case sel is
              when "00" => y <= x"11";
              when "01" | "10" => y <= x"22";
              when others => y <= x"33";
            end case;
          end process;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        for sel, expect in ((0, 0x11), (1, 0x22), (2, 0x22), (3, 0x33)):
            sim.poke("sel", sel); sim.settle()
            assert sim.peek("y") == expect

    def test_for_loop_shift_register(self):
        src = """
        entity t is
          port (clk : in std_logic;
                din : in std_logic;
                q : out std_logic_vector(3 downto 0));
        end entity;
        architecture rtl of t is
          signal r : std_logic_vector(3 downto 0);
        begin
          process(clk) begin
            if rising_edge(clk) then
              for i in 3 downto 1 loop
                r(i) <= r(i - 1);
              end loop;
              r(0) <= din;
            end if;
          end process;
          q <= r;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        for bit in (1, 0, 1, 1):
            sim.poke("din", bit); sim.settle(); sim.tick()
        # after feeding 1,0,1,1: r3=first bit fed, r0=last -> 1011
        assert sim.peek("q") == 0b1011

    def test_variables_rejected_with_message(self):
        src = """
        entity t is port (y : out std_logic); end entity;
        architecture rtl of t is begin
          process
            variable v : std_logic;
          begin
            y <= '0';
          end process;
        end architecture;
        """
        with pytest.raises(ParseError, match="variable"):
            compile_vhdl(src)


class TestGenericsAndInstances:
    def test_generic_override(self):
        src = """
        entity t is
          generic (W : integer := 4);
          port (a : in std_logic_vector(W-1 downto 0);
                y : out std_logic_vector(W-1 downto 0));
        end entity;
        architecture rtl of t is begin
          y <= std_logic_vector(unsigned(a) + 1);
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src, params={"W": 12}))
        sim.poke("a", 0xFFF); sim.settle()
        assert sim.peek("y") == 0

    def test_constant_declaration(self):
        src = """
        entity t is port (y : out std_logic_vector(7 downto 0)); end entity;
        architecture rtl of t is
          constant MAGIC : integer := 42;
        begin
          y <= std_logic_vector(to_unsigned(MAGIC + 1, 8));
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        sim.settle()
        assert sim.peek("y") == 43

    def test_entity_instantiation(self):
        src = """
        entity inv is
          generic (W : integer := 8);
          port (a : in std_logic_vector(W-1 downto 0);
                y : out std_logic_vector(W-1 downto 0));
        end entity;
        architecture rtl of inv is begin
          y <= not a;
        end architecture;

        entity top is
          port (x : in std_logic_vector(7 downto 0);
                z : out std_logic_vector(7 downto 0));
        end entity;
        architecture rtl of top is
          signal mid : std_logic_vector(7 downto 0);
        begin
          u0 : entity work.inv generic map (W => 8) port map (a => x, y => mid);
          u1 : entity work.inv generic map (W => 8) port map (a => mid, y => z);
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src, top="top"))
        sim.poke("x", 0x3C); sim.settle()
        assert sim.peek("z") == 0x3C  # double inversion

    def test_others_one_aggregate_rejected(self):
        src = """
        entity t is port (y : out std_logic_vector(7 downto 0)); end entity;
        architecture rtl of t is begin
          y <= (others => '1');
        end architecture;
        """
        with pytest.raises(ParseError):
            compile_vhdl(src)


class TestForGenerate:
    def test_instantiation_bank(self):
        src = """
        entity inv is
          port (a : in std_logic; y : out std_logic);
        end entity;
        architecture rtl of inv is begin
          y <= not a;
        end architecture;

        entity invbank is
          generic (W : integer := 8);
          port (x : in std_logic_vector(W-1 downto 0);
                z : out std_logic_vector(W-1 downto 0));
        end entity;
        architecture rtl of invbank is
        begin
          g : for i in 0 to W-1 generate
            u : entity work.inv port map (a => x(i), y => z(i));
          end generate;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src, top="invbank"))
        sim.poke("x", 0xC3)
        sim.settle()
        assert sim.peek("z") == (~0xC3) & 0xFF

    def test_concurrent_assign_in_generate(self):
        src = """
        entity t is
          port (a : in std_logic_vector(3 downto 0);
                y : out std_logic_vector(3 downto 0));
        end entity;
        architecture rtl of t is begin
          g : for i in 0 to 3 generate
            y(i) <= a(3 - i);
          end generate;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        sim.poke("a", 0b0011)
        sim.settle()
        assert sim.peek("y") == 0b1100  # bit reversal

    def test_downto_generate(self):
        src = """
        entity t is
          port (a : in std_logic_vector(3 downto 0);
                y : out std_logic_vector(3 downto 0));
        end entity;
        architecture rtl of t is begin
          g : for i in 3 downto 0 generate
            y(i) <= a(i);
          end generate;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src))
        sim.poke("a", 0b1010)
        sim.settle()
        assert sim.peek("y") == 0b1010

    def test_generic_bound_generate(self):
        src = """
        entity t is
          generic (N : integer := 4);
          port (y : out std_logic_vector(N-1 downto 0));
        end entity;
        architecture rtl of t is begin
          g : for i in 0 to N-1 generate
            y(i) <= '1' when (i mod 2) = 0 else '0';
          end generate;
        end architecture;
        """
        sim = RTLSimulator(compile_vhdl(src, params={"N": 8}))
        sim.settle()
        assert sim.peek("y") == 0b01010101
