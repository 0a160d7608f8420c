"""Recursive-descent parser for the synthesizable Verilog subset.

Supported constructs (see DESIGN.md): ANSI-style module headers with
parameters, ``wire``/``reg``/``integer`` declarations (including memory
arrays), ``assign``, ``always @(*)`` / ``always @(posedge …)`` blocks with
``begin/end``, ``if``/``else``, ``case``/``casez``, ``for`` loops,
blocking and non-blocking assignments, the full operator set of
:mod:`repro.hdl.ast`, named-port module instantiation, and generate-for
and generate-if.

The parser lowers everything into the language-neutral AST shared with
the VHDL frontend.
"""

from __future__ import annotations

from .. import ast
from ..common import ParseError, TokenStream
from .lexer import parse_based_literal, parse_based_pattern, tokenize


def parse(source: str, filename: str = "<verilog>") -> dict[str, ast.ModuleDecl]:
    """Parse *source* and return ``{module_name: ModuleDecl}``."""
    ts = TokenStream(tokenize(source, filename))
    modules: dict[str, ast.ModuleDecl] = {}
    while not ts.at_eof():
        mod = _parse_module(ts)
        if mod.name in modules:
            raise ParseError(f"duplicate module {mod.name!r}", mod.loc)
        modules[mod.name] = mod
    if not modules:
        raise ParseError("no modules found", ts.peek().loc)
    return modules


# ---------------------------------------------------------------------------
# module structure
# ---------------------------------------------------------------------------


def _parse_module(ts: TokenStream) -> ast.ModuleDecl:
    kw = ts.expect_kw("module")
    name = ts.expect_id().text
    mod = ast.ModuleDecl(kw.loc, name)

    if ts.accept_op("#"):  # parameter list: #(parameter W = 8, ...)
        ts.expect_op("(")
        while True:
            ts.expect_kw("parameter")
            pname = ts.expect_id().text
            ts.expect_op("=")
            value = _parse_expr(ts)
            mod.items.append(ast.ParamDecl(kw.loc, pname, value))
            if not ts.accept_op(","):
                break
        ts.expect_op(")")

    ts.expect_op("(")
    if not ts.peek().is_op(")"):
        _parse_port_list(ts, mod)
    ts.expect_op(")")
    ts.expect_op(";")

    while not ts.peek().is_kw("endmodule"):
        _parse_item(ts, mod)
    ts.expect_kw("endmodule")
    return mod


def _parse_port_list(ts: TokenStream, mod: ast.ModuleDecl) -> None:
    direction = None
    rng: ast.Range | None = None
    while True:
        tok = ts.peek()
        if tok.is_kw("input", "output"):
            direction = ts.next().text
            ts.accept_kw("wire", "reg", "signed")
            rng = _parse_optional_range(ts)
        if direction is None:
            raise ParseError("port list must start with input/output", tok.loc)
        name_tok = ts.expect_id()
        mod.items.append(
            ast.NetDecl(
                name_tok.loc,
                name_tok.text,
                rng=rng,
                kind="reg" if direction == "output" else "wire",
                direction=direction,
            )
        )
        if not ts.accept_op(","):
            break


def _parse_optional_range(ts: TokenStream) -> ast.Range | None:
    if not ts.accept_op("["):
        return None
    msb = _parse_expr(ts)
    ts.expect_op(":")
    lsb = _parse_expr(ts)
    ts.expect_op("]")
    return ast.Range(msb, lsb)


def _parse_item(ts: TokenStream, mod) -> None:
    """Parse one module/generate item into ``mod.items``."""
    tok = ts.peek()
    if tok.is_kw("genvar"):
        ts.next()
        ts.expect_id()
        while ts.accept_op(","):
            ts.expect_id()
        ts.expect_op(";")
    elif tok.is_kw("generate"):
        ts.next()
        while not ts.peek().is_kw("endgenerate"):
            _parse_item(ts, mod)
        ts.expect_kw("endgenerate")
    elif tok.is_kw("for"):
        mod.items.append(_parse_generate_for(ts))
    elif tok.is_kw("if"):
        mod.items.append(_parse_generate_if(ts))
    elif tok.is_kw("wire", "reg", "integer"):
        _parse_net_decl(ts, mod)
    elif tok.is_kw("parameter", "localparam"):
        is_local = tok.text == "localparam"
        ts.next()
        while True:
            name = ts.expect_id().text
            ts.expect_op("=")
            value = _parse_expr(ts)
            mod.items.append(ast.ParamDecl(tok.loc, name, value, is_local))
            if not ts.accept_op(","):
                break
        ts.expect_op(";")
    elif tok.is_kw("assign"):
        ts.next()
        while True:
            lhs = _parse_lvalue(ts)
            ts.expect_op("=")
            rhs = _parse_expr(ts)
            mod.items.append(ast.ContAssign(tok.loc, lhs, rhs))
            if not ts.accept_op(","):
                break
        ts.expect_op(";")
    elif tok.is_kw("always"):
        mod.items.append(_parse_always(ts))
    elif tok.kind == "ID":
        mod.items.append(_parse_instance(ts))
    else:
        raise ParseError(f"unexpected token {tok.text!r} in module body", tok.loc)


def _parse_net_decl(ts: TokenStream, mod: ast.ModuleDecl) -> None:
    kind_tok = ts.next()
    kind = kind_tok.text
    rng = None if kind == "integer" else _parse_optional_range(ts)
    while True:
        name_tok = ts.expect_id()
        mem_range = _parse_optional_range(ts)
        init = None
        if ts.accept_op("="):
            init = _parse_expr(ts)
            if mem_range is not None:
                raise ParseError("cannot initialise a memory inline", name_tok.loc)
        mod.items.append(
            ast.NetDecl(
                name_tok.loc,
                name_tok.text,
                rng=rng,
                kind=kind,
                mem_range=mem_range,
                init=init,
            )
        )
        if not ts.accept_op(","):
            break
    ts.expect_op(";")


_gen_counter = 0


def _parse_generate_for(ts: TokenStream) -> ast.GenerateFor:
    """``for (i = 0; i < N; i = i + 1) begin : label … end`` at module
    scope (inside or outside a generate region)."""
    global _gen_counter
    kw = ts.expect_kw("for")
    ts.expect_op("(")
    var = ts.expect_id().text
    ts.expect_op("=")
    init = _parse_expr(ts)
    ts.expect_op(";")
    cond = _parse_expr(ts)
    ts.expect_op(";")
    var2 = ts.expect_id().text
    if var2 != var:
        raise ParseError(f"generate-for step must update {var!r}", kw.loc)
    ts.expect_op("=")
    step = _parse_expr(ts)
    ts.expect_op(")")
    body = _parse_generate_block(ts)
    if not body.label:
        _gen_counter += 1
        body.label = f"genblk{_gen_counter}"
    return ast.GenerateFor(kw.loc, var, init, cond, step, body.label,
                           body.items)


def _parse_generate_block(ts: TokenStream) -> ast.GenerateBlock:
    """``begin [: label] … end`` in a generate region."""
    block = ast.GenerateBlock(ts.expect_kw("begin").loc, "")
    if ts.accept_op(":"):
        block.label = ts.expect_id().text
    while not ts.peek().is_kw("end"):
        _parse_item(ts, block)
    ts.expect_kw("end")
    return block


def _parse_generate_if(ts: TokenStream) -> ast.GenerateIf:
    """``if (cond) arm [else arm]`` at module scope (inside or outside a
    generate region); ``else if`` chains nest."""
    kw = ts.expect_kw("if")
    ts.expect_op("(")
    cond = _parse_expr(ts)
    ts.expect_op(")")
    then = _parse_generate_arm(ts)
    other = _parse_generate_arm(ts) if ts.accept_kw("else") else []
    return ast.GenerateIf(kw.loc, cond, then, other)


def _parse_generate_arm(ts: TokenStream) -> list:
    """One item or a block; a labelled block stays one
    :class:`ast.GenerateBlock`, an unlabelled one is its bare items."""
    if ts.peek().is_kw("begin"):
        arm = _parse_generate_block(ts)
        return [arm] if arm.label else arm.items
    arm = ast.GenerateBlock(ts.peek().loc, "")
    _parse_item(ts, arm)
    return arm.items


def _parse_always(ts: TokenStream) -> ast.AlwaysBlock:
    kw = ts.expect_kw("always")
    ts.expect_op("@")
    ts.expect_op("(")
    sensitivity: list[ast.SensItem] | None
    if ts.accept_op("*"):
        sensitivity = None
    else:
        sensitivity = []
        while True:
            edge = None
            if ts.accept_kw("posedge"):
                edge = "pos"
            elif ts.accept_kw("negedge"):
                edge = "neg"
            sig = ts.expect_id().text
            sensitivity.append(ast.SensItem(edge, sig))
            if not (ts.accept_kw("or") or ts.accept_op(",")):
                break
        has_edge = any(s.edge for s in sensitivity)
        has_level = any(s.edge is None for s in sensitivity)
        if has_edge and has_level:
            raise ParseError("mixed edge/level sensitivity not supported", kw.loc)
        if not has_edge:
            sensitivity = None  # explicit level list == combinational
    ts.expect_op(")")
    body = _parse_stmt(ts)
    return ast.AlwaysBlock(kw.loc, sensitivity, body)


def _parse_instance(ts: TokenStream) -> ast.Instance:
    mod_tok = ts.expect_id()
    params: dict[str, ast.Expr] = {}
    if ts.accept_op("#"):
        ts.expect_op("(")
        while True:
            ts.expect_op(".")
            pname = ts.expect_id().text
            ts.expect_op("(")
            params[pname] = _parse_expr(ts)
            ts.expect_op(")")
            if not ts.accept_op(","):
                break
        ts.expect_op(")")
    inst_tok = ts.expect_id()
    ts.expect_op("(")
    conns: dict[str, ast.Expr | None] = {}
    if not ts.peek().is_op(")"):
        while True:
            ts.expect_op(".")
            port = ts.expect_id().text
            ts.expect_op("(")
            conns[port] = None if ts.peek().is_op(")") else _parse_expr(ts)
            ts.expect_op(")")
            if not ts.accept_op(","):
                break
    ts.expect_op(")")
    ts.expect_op(";")
    return ast.Instance(mod_tok.loc, mod_tok.text, inst_tok.text, params, conns)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


def _parse_stmt(ts: TokenStream) -> ast.Stmt:
    tok = ts.peek()
    if tok.is_kw("begin"):
        ts.next()
        stmts: list[ast.Stmt] = []
        while not ts.peek().is_kw("end"):
            stmts.append(_parse_stmt(ts))
        ts.expect_kw("end")
        return ast.Block(tok.loc, stmts)
    if tok.is_kw("if"):
        ts.next()
        ts.expect_op("(")
        cond = _parse_expr(ts)
        ts.expect_op(")")
        then = _parse_stmt(ts)
        other = None
        if ts.accept_kw("else"):
            other = _parse_stmt(ts)
        return ast.If(tok.loc, cond, then, other)
    if tok.is_kw("case", "casez"):
        return _parse_case(ts)
    if tok.is_kw("for"):
        return _parse_for(ts)
    if tok.is_op(";"):
        ts.next()
        return ast.Null(tok.loc)
    # assignment
    lhs = _parse_lvalue(ts)
    if ts.accept_op("<="):
        blocking = False
    else:
        ts.expect_op("=")
        blocking = True
    rhs = _parse_expr(ts)
    ts.expect_op(";")
    return ast.Assign(tok.loc, lhs, rhs, blocking)


def _parse_case(ts: TokenStream) -> ast.Case:
    kw = ts.next()  # case | casez
    ts.expect_op("(")
    subject = _parse_expr(ts)
    ts.expect_op(")")
    items: list[ast.CaseItem] = []
    while not ts.peek().is_kw("endcase"):
        if ts.accept_kw("default"):
            ts.accept_op(":")
            items.append(ast.CaseItem(None, _parse_stmt(ts)))
        else:
            matches = [_parse_expr(ts)]
            while ts.accept_op(","):
                matches.append(_parse_expr(ts))
            ts.expect_op(":")
            items.append(ast.CaseItem(matches, _parse_stmt(ts)))
    ts.expect_kw("endcase")
    return ast.Case(kw.loc, subject, items)


def _parse_for(ts: TokenStream) -> ast.For:
    kw = ts.expect_kw("for")
    ts.expect_op("(")
    var = ts.expect_id().text
    ts.expect_op("=")
    init = _parse_expr(ts)
    ts.expect_op(";")
    cond = _parse_expr(ts)
    ts.expect_op(";")
    var2 = ts.expect_id().text
    if var2 != var:
        raise ParseError(f"for-loop step must update {var!r}", kw.loc)
    ts.expect_op("=")
    step = _parse_expr(ts)
    ts.expect_op(")")
    body = _parse_stmt(ts)
    return ast.For(kw.loc, var, init, cond, step, body)


def _parse_lvalue(ts: TokenStream) -> ast.Lvalue:
    tok = ts.peek()
    if tok.is_op("{"):
        ts.next()
        parts = [_parse_lvalue(ts)]
        while ts.accept_op(","):
            parts.append(_parse_lvalue(ts))
        ts.expect_op("}")
        return ast.LvConcat(tok.loc, parts)
    name = ts.expect_id().text
    if ts.accept_op("["):
        first = _parse_expr(ts)
        if ts.accept_op(":"):
            lsb = _parse_expr(ts)
            ts.expect_op("]")
            return ast.LvSlice(tok.loc, name, first, lsb)
        ts.expect_op("]")
        return ast.LvIndex(tok.loc, name, first)
    return ast.LvId(tok.loc, name)


# ---------------------------------------------------------------------------
# expressions (precedence climbing)
# ---------------------------------------------------------------------------

# precedence levels, loosest first
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^", "~^", "^~"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", ">>>", "<<<"],
    ["+", "-"],
    ["*", "/", "%"],
]

_CANON_OP = {">>>": ">>", "<<<": "<<", "~^": "^~"}


def _parse_expr(ts: TokenStream) -> ast.Expr:
    return _parse_ternary(ts)


def _parse_ternary(ts: TokenStream) -> ast.Expr:
    cond = _parse_binary(ts, 0)
    if ts.accept_op("?"):
        then = _parse_ternary(ts)
        ts.expect_op(":")
        other = _parse_ternary(ts)
        return ast.Ternary(cond.loc, cond, then, other)
    return cond


def _parse_binary(ts: TokenStream, level: int) -> ast.Expr:
    if level >= len(_BINARY_LEVELS):
        return _parse_unary(ts)
    ops = _BINARY_LEVELS[level]
    left = _parse_binary(ts, level + 1)
    while ts.peek().is_op(*ops):
        op = ts.next().text
        op = _CANON_OP.get(op, op)
        right = _parse_binary(ts, level + 1)
        left = ast.Binary(left.loc, op, left, right)
    return left


_UNARY_OPS = ("~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~")


def _parse_unary(ts: TokenStream) -> ast.Expr:
    tok = ts.peek()
    if tok.is_op(*_UNARY_OPS):
        ts.next()
        operand = _parse_unary(ts)
        if tok.text == "+":
            return operand
        op = _CANON_OP.get(tok.text, tok.text)
        return ast.Unary(tok.loc, op, operand)
    return _parse_primary(ts)


def _parse_primary(ts: TokenStream) -> ast.Expr:
    tok = ts.peek()
    if tok.kind == "NUMBER":
        ts.next()
        return ast.Literal(tok.loc, int(tok.text.replace("_", "")), None)
    if tok.kind == "BASED":
        ts.next()
        digits = tok.text.partition("'")[2].lstrip("sS")[1:]
        if any(c in "?zZ" for c in digits):
            width, value, care = parse_based_pattern(tok.text, tok.loc)
            return ast.WildcardLiteral(tok.loc, value, care, width)
        width, value = parse_based_literal(tok.text, tok.loc)
        return ast.Literal(tok.loc, value, width)
    if tok.is_op("("):
        ts.next()
        inner = _parse_expr(ts)
        ts.expect_op(")")
        return inner
    if tok.is_op("{"):
        ts.next()
        first = _parse_expr(ts)
        if ts.peek().is_op("{"):
            # replication {N{expr}} — N must elaborate to a constant
            ts.next()
            value = _parse_expr(ts)
            ts.expect_op("}")
            ts.expect_op("}")
            return ast.Repeat(tok.loc, first, value)
        parts = [first]
        while ts.accept_op(","):
            parts.append(_parse_expr(ts))
        ts.expect_op("}")
        return ast.Concat(tok.loc, parts)
    if tok.kind == "ID":
        ts.next()
        name = tok.text
        if ts.accept_op("["):
            first = _parse_expr(ts)
            if ts.accept_op(":"):
                lsb = _parse_expr(ts)
                ts.expect_op("]")
                return ast.Slice(tok.loc, name, first, lsb)
            ts.expect_op("]")
            return ast.Index(tok.loc, name, first)
        return ast.Ident(tok.loc, name)
    raise ParseError(f"unexpected token {tok.text!r} in expression", tok.loc)
