"""Unified syntax-error shape across both frontends.

Both the Verilog and VHDL frontends raise
:class:`repro.hdl.common.HDLSyntaxError` subclasses carrying a structured
``loc`` (file/line/col) and a bare ``message`` — the contract the lint
subsystem relies on to render malformed sources as findings.
"""

from __future__ import annotations

import pytest

from repro.hdl.common import HDLError, HDLSyntaxError
from repro.hdl.verilog import compile_verilog
from repro.hdl.vhdl import compile_vhdl


class TestVerilog:
    def test_parse_error_is_syntax_error(self):
        with pytest.raises(HDLSyntaxError) as exc:
            compile_verilog("module m(input a;\n", filename="broken.v")
        err = exc.value
        assert isinstance(err, HDLError)
        assert err.loc is not None
        assert err.loc.filename == "broken.v"
        assert err.loc.line >= 1
        assert err.loc.col >= 1
        assert err.message
        assert "broken.v" in str(err)

    def test_lex_error_is_syntax_error(self):
        with pytest.raises(HDLSyntaxError) as exc:
            compile_verilog("module m; ` endmodule", filename="lex.v")
        assert exc.value.loc is not None

    @pytest.mark.parametrize("kind", ["", "wire ", "reg "])
    def test_a_signed_port_is_refused_not_dropped(self, kind):
        """``signed`` would make the port unsigned if it were skipped:
        it is refused where it stands."""
        direction = "output" if kind == "reg " else "input"
        src = (f"module m(input clk,\n  {direction} {kind}signed [7:0] a);\n"
               "endmodule\n")
        with pytest.raises(HDLSyntaxError) as exc:
            compile_verilog(src, filename="signed.v")
        err = exc.value
        assert "signed arithmetic is not supported" in err.message
        col = 4 + len(direction) + len(kind)
        assert (err.loc.line, err.loc.col) == (2, col)


class TestVHDL:
    def test_parse_error_is_syntax_error(self):
        with pytest.raises(HDLSyntaxError) as exc:
            compile_vhdl("entity e is port (\n", filename="broken.vhdl")
        err = exc.value
        assert err.loc is not None
        assert err.loc.filename == "broken.vhdl"
        assert err.loc.line >= 1
        assert err.message

    def test_message_attribute_is_bare_text(self):
        """``message`` must not embed the location (str(err) does)."""
        with pytest.raises(HDLSyntaxError) as exc:
            compile_vhdl("entity e is port (\n", filename="broken.vhdl")
        err = exc.value
        assert "broken.vhdl" not in err.message
        assert "broken.vhdl" in str(err)


class TestElabErrorsAreNotSyntaxErrors:
    def test_semantic_error_is_hdl_but_not_syntax(self):
        src = """
        module m(input a, output x);
            assign x = nosuch;
        endmodule
        """
        with pytest.raises(HDLError) as exc:
            compile_verilog(src, top="m")
        assert not isinstance(exc.value, HDLSyntaxError)
