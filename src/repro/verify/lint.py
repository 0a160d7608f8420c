"""Static lint: a pass pipeline over the shared HDL AST.

Because both frontends lower to one AST (:mod:`repro.hdl.ast`), a single
rule set serves Verilog and VHDL designs alike — the same way the
elaborator serves both.  The pipeline is deliberately *static*: it folds
parameters (their declared defaults unless overridden), keeps the taken
arm of each generate-if and constant ``if``, resolves declared widths, and
never needs to elaborate (so it can diagnose designs the elaborator
would reject).

Rules
-----
``MULTIDRIVEN``   a net driven from more than one place (two continuous
                  assignments, two always blocks, instance output vs.
                  local driver, ...)
``LATCH``         a combinational always block assigns a signal on some
                  but not all control paths (storage is inferred)
``WIDTH``         implicit truncation in an assignment, or a port
                  connection whose width differs from the port
``CASE``          a case statement with no default arm that does not
                  cover every subject value
``UNUSED``        a declared net that is never read (outputs exempt)
``UNDRIVEN``      a net that is read but never driven (inputs exempt)
``ASYNCRESET``    an async reset in the sensitivity list that the body
                  does not test first / with the matching polarity, or
                  one reset used with both polarities across blocks
``SNOOPDRIVE``    a ``snoop_``-prefixed output port assigned on some but
                  not all paths of a clocked block — a coherence probe
                  response must be driven in every FSM state, or a
                  participant can observe a stale acknowledge
``SYNTAX``        a frontend :class:`~repro.hdl.HDLSyntaxError`,
                  rendered as a finding instead of a traceback

Every rule is exercised positively and negatively by
``tests/verify/test_lint_rules.py``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, Optional

from ..hdl import ast
from ..hdl.common import HDLSyntaxError
from .findings import (
    SEV_ERROR,
    SEV_WARNING,
    Finding,
    LintReport,
    WaiverEntry,
    apply_waivers,
)

RULE_MULTIDRIVEN = "MULTIDRIVEN"
RULE_LATCH = "LATCH"
RULE_WIDTH = "WIDTH"
RULE_CASE = "CASE"
RULE_UNUSED = "UNUSED"
RULE_UNDRIVEN = "UNDRIVEN"
RULE_ASYNCRESET = "ASYNCRESET"
RULE_SNOOPDRIVE = "SNOOPDRIVE"
RULE_SYNTAX = "SYNTAX"

#: rule id -> (severity, one-line description)
RULES: dict[str, tuple[str, str]] = {
    RULE_MULTIDRIVEN: (SEV_ERROR, "net driven from multiple places"),
    RULE_LATCH: (SEV_WARNING, "inferred latch in combinational block"),
    RULE_WIDTH: (SEV_WARNING, "width mismatch in assignment or port"),
    RULE_CASE: (SEV_WARNING, "case statement does not cover all values"),
    RULE_UNUSED: (SEV_WARNING, "signal declared but never read"),
    RULE_UNDRIVEN: (SEV_WARNING, "signal read but never driven"),
    RULE_ASYNCRESET: (SEV_WARNING, "inconsistent async reset usage"),
    RULE_SNOOPDRIVE: (SEV_WARNING,
                      "snoop output not driven in every state"),
    RULE_SYNTAX: (SEV_ERROR, "source failed to parse"),
}

#: maximum subject width for exhaustive case-coverage counting
_MAX_CASE_WIDTH = 20


# ---------------------------------------------------------------------------
# Static module model: folded params + declared widths
# ---------------------------------------------------------------------------


class _ModuleInfo:
    """Folded parameters, declared widths and, in :attr:`items`, the
    module items that exist under those parameters; :attr:`modules` is
    the parsed file, for instances."""

    def __init__(self, mod: ast.ModuleDecl,
                 param_over: Optional[dict[str, int]] = None,
                 modules: Optional[dict[str, ast.ModuleDecl]] = None) -> None:
        self.mod = mod
        self.modules = modules or {}
        self.params: dict[str, int] = {}
        self.widths: dict[str, Optional[int]] = {}
        self.mem_widths: dict[str, Optional[int]] = {}
        self.kinds: dict[str, str] = {}
        self.dirs: dict[str, Optional[str]] = {}
        self.decl_locs: dict[str, ast.Loc] = {}
        self.items: list = []
        for item in ast.generate_items(mod.items, self.fold):
            self.items.append(item)
            if isinstance(item, ast.ParamDecl):
                if param_over and not item.is_local and item.name in param_over:
                    self.params[item.name] = param_over[item.name]
                    continue
                v = ast.fold(item.value, self.params)
                if v is not None:
                    self.params[item.name] = v
            elif isinstance(item, ast.NetDecl):
                self._declare(item)

    def fold(self, expr: Optional[ast.Expr]) -> Optional[int]:
        return ast.fold(expr, self.params)

    def _declare(self, decl: ast.NetDecl) -> None:
        if decl.kind == "integer":
            width: Optional[int] = 32
        elif decl.rng is None:
            width = 1
        else:
            msb = ast.fold(decl.rng.msb, self.params)
            lsb = ast.fold(decl.rng.lsb, self.params)
            width = (msb - lsb + 1) if (msb is not None and lsb is not None
                                        and msb >= lsb) else None
        self.kinds[decl.name] = decl.kind
        self.dirs[decl.name] = decl.direction
        self.decl_locs[decl.name] = decl.loc
        if decl.mem_range is not None:
            self.mem_widths[decl.name] = width
        else:
            self.widths[decl.name] = width

    # -- expression/lvalue widths (None = unknown or context-sized) -------

    def expr_width(self, e: ast.Expr) -> Optional[int]:
        if isinstance(e, (ast.Literal, ast.WildcardLiteral)):
            return e.width  # None for unsized literals (context width)
        if isinstance(e, ast.Ident):
            if e.name in self.params:
                return None  # parameters size from context
            return self.widths.get(e.name)
        if isinstance(e, ast.Index):
            if e.name in self.mem_widths:
                return self.mem_widths[e.name]
            return 1
        if isinstance(e, ast.Slice):
            msb = ast.fold(e.msb, self.params)
            lsb = ast.fold(e.lsb, self.params)
            if msb is None or lsb is None or msb < lsb:
                return None
            return msb - lsb + 1
        if isinstance(e, ast.Concat):
            widths = [self.expr_width(p) for p in e.parts]
            if any(w is None for w in widths):
                return None
            return sum(widths)  # type: ignore[arg-type]
        if isinstance(e, ast.Repeat):
            count = ast.fold(e.count, self.params)
            w = self.expr_width(e.value)
            if count is None or w is None:
                return None
            return count * w
        if isinstance(e, ast.Unary):
            if e.op in ("~", "-", "+"):
                return self.expr_width(e.operand)
            return 1  # reductions and !
        if isinstance(e, ast.Binary):
            if e.op in ("<", ">", "<=", ">=", "==", "!=", "&&", "||"):
                return 1
            if e.op in ("<<", ">>"):
                return self.expr_width(e.left)
            lw = self.expr_width(e.left)
            rw = self.expr_width(e.right)
            if lw is None or rw is None:
                return None
            return max(lw, rw)
        if isinstance(e, ast.Ternary):
            tw = self.expr_width(e.then)
            fw = self.expr_width(e.other)
            if tw is None or fw is None:
                return None
            return max(tw, fw)
        return None

    def lvalue_width(self, lv: ast.Lvalue) -> Optional[int]:
        if isinstance(lv, ast.LvId):
            return self.widths.get(lv.name)
        if isinstance(lv, ast.LvIndex):
            if lv.name in self.mem_widths:
                return self.mem_widths[lv.name]
            return 1
        if isinstance(lv, ast.LvSlice):
            msb = ast.fold(lv.msb, self.params)
            lsb = ast.fold(lv.lsb, self.params)
            if msb is None or lsb is None or msb < lsb:
                return None
            return msb - lsb + 1
        if isinstance(lv, ast.LvConcat):
            widths = [self.lvalue_width(p) for p in lv.parts]
            if any(w is None for w in widths):
                return None
            return sum(widths)  # type: ignore[arg-type]
        return None


# ---------------------------------------------------------------------------
# AST walking helpers
# ---------------------------------------------------------------------------


def _expr_reads(e: Optional[ast.Expr], out: set[str]) -> None:
    """Collect every identifier an expression reads."""
    if e is None:
        return
    if isinstance(e, ast.Ident):
        out.add(e.name)
    elif isinstance(e, ast.Index):
        out.add(e.name)
        _expr_reads(e.index, out)
    elif isinstance(e, ast.Slice):
        out.add(e.name)
        _expr_reads(e.msb, out)
        _expr_reads(e.lsb, out)
    elif isinstance(e, ast.Concat):
        for p in e.parts:
            _expr_reads(p, out)
    elif isinstance(e, ast.Repeat):
        _expr_reads(e.count, out)
        _expr_reads(e.value, out)
    elif isinstance(e, ast.Unary):
        _expr_reads(e.operand, out)
    elif isinstance(e, ast.Binary):
        _expr_reads(e.left, out)
        _expr_reads(e.right, out)
    elif isinstance(e, ast.Ternary):
        _expr_reads(e.cond, out)
        _expr_reads(e.then, out)
        _expr_reads(e.other, out)


def _lvalue_targets(lv: ast.Lvalue) -> list[tuple[str, bool]]:
    """``(name, is_full_write)`` pairs assigned by an lvalue."""
    if isinstance(lv, ast.LvId):
        return [(lv.name, True)]
    if isinstance(lv, (ast.LvIndex, ast.LvSlice)):
        return [(lv.name, False)]
    if isinstance(lv, ast.LvConcat):
        out: list[tuple[str, bool]] = []
        for p in lv.parts:
            out.extend(_lvalue_targets(p))
        return out
    return []


def _lvalue_reads(lv: ast.Lvalue, out: set[str]) -> None:
    """Identifiers an lvalue *reads* (index/slice bound expressions)."""
    if isinstance(lv, ast.LvIndex):
        _expr_reads(lv.index, out)
    elif isinstance(lv, ast.LvSlice):
        _expr_reads(lv.msb, out)
        _expr_reads(lv.lsb, out)
    elif isinstance(lv, ast.LvConcat):
        for p in lv.parts:
            _lvalue_reads(p, out)


def _stmt_reads(stmt: ast.Stmt, out: set[str]) -> None:
    for s in ast.walk(stmt):
        if isinstance(s, ast.Assign):
            _expr_reads(s.rhs, out)
            _lvalue_reads(s.lhs, out)
        elif isinstance(s, ast.If):
            _expr_reads(s.cond, out)
        elif isinstance(s, ast.Case):
            _expr_reads(s.subject, out)
            for item in s.items:
                for m in item.matches or ():
                    _expr_reads(m, out)
        elif isinstance(s, ast.For):
            _expr_reads(s.init, out)
            _expr_reads(s.cond, out)
            _expr_reads(s.step, out)


def _stmt_writes(stmt: ast.Stmt) -> list[tuple[str, bool, ast.Loc]]:
    out: list[tuple[str, bool, ast.Loc]] = []
    for s in ast.walk(stmt):
        if isinstance(s, ast.Assign):
            for name, full in _lvalue_targets(s.lhs):
                out.append((name, full, s.loc))
        elif isinstance(s, ast.For):
            out.append((s.var, True, s.loc))
    return out


def _behavioral_items(info: _ModuleInfo) -> Iterator[ast.Item]:
    """Module items including those inside generate scopes (loops
    un-unrolled); an always block's ``if`` on a constant keeps only its
    taken arm."""
    def rec(items: Iterable) -> Iterator[ast.Item]:
        for item in items:
            if isinstance(item, (ast.GenerateFor, ast.GenerateBlock)):
                yield from rec(ast.generate_items(item.items, info.fold))
            elif isinstance(item, ast.AlwaysBlock):
                yield replace(item, body=ast.prune_if(item.body, info.fold))
            else:
                yield item

    yield from rec(info.items)


# ---------------------------------------------------------------------------
# Rule passes
# ---------------------------------------------------------------------------


def _finding(rule: str, loc: ast.Loc, message: str) -> Finding:
    severity = RULES[rule][0]
    return Finding(rule, severity, message, loc.filename, loc.line, loc.col)


def _pass_multidriven(info: _ModuleInfo) -> list[Finding]:
    cont_full: dict[str, list[ast.Loc]] = {}
    cont_partial: dict[str, list[ast.Loc]] = {}
    always_drv: dict[str, list[ast.Loc]] = {}
    inst_drv: dict[str, list[ast.Loc]] = {}

    for item in _behavioral_items(info):
        if isinstance(item, ast.ContAssign):
            for name, full in _lvalue_targets(item.lhs):
                (cont_full if full else cont_partial).setdefault(
                    name, []
                ).append(item.loc)
        elif isinstance(item, ast.AlwaysBlock):
            block_targets = {name for name, _full, _loc
                             in _stmt_writes(item.body)}
            for name in block_targets:
                always_drv.setdefault(name, []).append(item.loc)
        elif isinstance(item, ast.Instance):
            child = info.modules.get(item.module)
            if child is None:
                continue
            out_ports = {p.name for p in child.ports()
                         if p.direction == ast.DIR_OUTPUT}
            for port, conn in item.conns.items():
                if port not in out_ports or conn is None:
                    continue
                if isinstance(conn, (ast.Ident, ast.Index, ast.Slice)):
                    inst_drv.setdefault(conn.name, []).append(item.loc)

    findings: list[Finding] = []
    names = sorted(set(cont_full) | set(cont_partial) | set(always_drv)
                   | set(inst_drv))
    for name in names:
        cf = cont_full.get(name, [])
        cp = cont_partial.get(name, [])
        ab = always_drv.get(name, [])
        iv = inst_drv.get(name, [])
        # loop variables are conventionally shared across procedural code
        is_loop_var = info.kinds.get(name) == "integer"
        conflict = None
        if len(cf) >= 2:
            conflict = "multiple continuous assignments"
        elif cf and cp:
            conflict = "full and partial continuous assignments"
        elif (cf or cp) and ab:
            conflict = "continuous assignment and always block"
        elif len(ab) >= 2 and not is_loop_var:
            conflict = f"{len(ab)} always blocks"
        elif iv and (cf or cp or ab):
            conflict = "instance output and local driver"
        elif len(iv) >= 2:
            conflict = "multiple instance outputs"
        if conflict is None:
            continue
        loc = (cf + cp + ab + iv)[0]
        findings.append(_finding(
            RULE_MULTIDRIVEN, loc,
            f"net '{name}' is driven from multiple places ({conflict})",
        ))
    return findings


def _assign_paths(stmt: ast.Stmt) -> tuple[set[str], set[str]]:
    """``(always_assigned, sometimes_assigned)`` names for a statement."""
    if isinstance(stmt, ast.Block):
        always: set[str] = set()
        sometimes: set[str] = set()
        for s in stmt.stmts:
            a, m = _assign_paths(s)
            always |= a
            sometimes |= m
        return always, sometimes
    if isinstance(stmt, ast.Assign):
        names = {name for name, _full in _lvalue_targets(stmt.lhs)}
        return set(names), set(names)
    if isinstance(stmt, ast.If):
        t_a, t_s = _assign_paths(stmt.then)
        if stmt.other is None:
            return set(), t_s
        e_a, e_s = _assign_paths(stmt.other)
        return t_a & e_a, t_s | e_s
    if isinstance(stmt, ast.Case):
        arms = [_assign_paths(item.body) for item in stmt.items]
        sometimes = set().union(*(s for _a, s in arms)) if arms else set()
        has_default = any(item.matches is None for item in stmt.items)
        if not has_default or not arms:
            return set(), sometimes
        always = arms[0][0]
        for a, _s in arms[1:]:
            always &= a
        return always, sometimes
    if isinstance(stmt, ast.For):
        # the init assignment of the loop variable always executes
        _b_a, b_s = _assign_paths(stmt.body)
        return {stmt.var}, {stmt.var} | b_s
    return set(), set()


def _pass_latch(info: _ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    for item in _behavioral_items(info):
        if not isinstance(item, ast.AlwaysBlock) or item.sensitivity is not None:
            continue
        always, sometimes = _assign_paths(item.body)
        for name in sorted(sometimes - always):
            findings.append(_finding(
                RULE_LATCH, item.loc,
                f"'{name}' is not assigned on every path of this "
                "combinational block; storage (a latch) is inferred",
            ))
    return findings


def _pass_width(info: _ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []

    def check_assign(lhs: ast.Lvalue, rhs: ast.Expr, loc: ast.Loc) -> None:
        lw = info.lvalue_width(lhs)
        rw = info.expr_width(rhs)
        if lw is None or rw is None or rw <= lw:
            return
        findings.append(_finding(
            RULE_WIDTH, loc,
            f"{rw}-bit expression implicitly truncated to {lw}-bit target",
        ))

    for item in _behavioral_items(info):
        if isinstance(item, ast.ContAssign):
            check_assign(item.lhs, item.rhs, item.loc)
        elif isinstance(item, ast.AlwaysBlock):
            for s in ast.walk(item.body):
                if isinstance(s, ast.Assign):
                    check_assign(s.lhs, s.rhs, s.loc)
        elif isinstance(item, ast.Instance):
            child = info.modules.get(item.module)
            if child is None:
                continue
            over = {name: v for name, expr in item.params.items()
                    if (v := ast.fold(expr, info.params)) is not None}
            child_info = _ModuleInfo(child, over)
            for port_decl in child.ports():
                conn = item.conns.get(port_decl.name)
                if conn is None:
                    continue
                pw = child_info.widths.get(port_decl.name)
                cw = info.expr_width(conn)
                if pw is None or cw is None or pw == cw:
                    continue
                findings.append(_finding(
                    RULE_WIDTH, item.loc,
                    f"port '{port_decl.name}' of '{item.module}' is "
                    f"{pw}-bit but connected to a {cw}-bit expression",
                ))
    return findings


def _pass_case(info: _ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    for item in _behavioral_items(info):
        if not isinstance(item, ast.AlwaysBlock):
            continue
        for s in ast.walk(item.body):
            if not isinstance(s, ast.Case):
                continue
            if any(it.matches is None for it in s.items):
                continue  # default arm covers the rest
            width = info.expr_width(s.subject)
            values: set[int] = set()
            exact = True
            for it in s.items:
                for m in it.matches or ():
                    if isinstance(m, ast.WildcardLiteral):
                        exact = False
                        continue
                    v = ast.fold(m, info.params)
                    if v is None:
                        exact = False
                    else:
                        values.add(v)
            if (exact and width is not None and width <= _MAX_CASE_WIDTH
                    and len(values) == (1 << width)):
                continue  # exhaustive without a default
            missing = ""
            if exact and width is not None and width <= _MAX_CASE_WIDTH:
                missing = (f" ({(1 << width) - len(values)} of "
                           f"{1 << width} values unmatched)")
            findings.append(_finding(
                RULE_CASE, s.loc,
                "case statement has no default arm and does not cover "
                f"every subject value{missing}",
            ))
    return findings


def _module_reads_writes(info: _ModuleInfo) -> tuple[set[str], set[str]]:
    reads: set[str] = set()
    writes: set[str] = set()
    for item in _behavioral_items(info):
        if isinstance(item, ast.ContAssign):
            _expr_reads(item.rhs, reads)
            _lvalue_reads(item.lhs, reads)
            writes.update(n for n, _f in _lvalue_targets(item.lhs))
        elif isinstance(item, ast.AlwaysBlock):
            for sens in item.sensitivity or ():
                reads.add(sens.name)
            _stmt_reads(item.body, reads)
            writes.update(n for n, _f, _l in _stmt_writes(item.body))
        elif isinstance(item, ast.Instance):
            child = info.modules.get(item.module)
            out_ports = (
                {p.name for p in child.ports()
                 if p.direction == ast.DIR_OUTPUT}
                if child is not None else set()
            )
            for expr in item.params.values():
                _expr_reads(expr, reads)
            for port, conn in item.conns.items():
                if conn is None:
                    continue
                if port in out_ports and isinstance(
                    conn, (ast.Ident, ast.Index, ast.Slice)
                ):
                    writes.add(conn.name)
                    if isinstance(conn, ast.Index):
                        _expr_reads(conn.index, reads)
                    elif isinstance(conn, ast.Slice):
                        _expr_reads(conn.msb, reads)
                        _expr_reads(conn.lsb, reads)
                else:
                    _expr_reads(conn, reads)
    return reads, writes


def _pass_unused_undriven(info: _ModuleInfo) -> list[Finding]:
    reads, writes = _module_reads_writes(info)
    findings: list[Finding] = []
    declared = sorted(set(info.widths) | set(info.mem_widths))
    for name in declared:
        direction = info.dirs.get(name)
        loc = info.decl_locs[name]
        if name not in reads and direction != ast.DIR_OUTPUT:
            findings.append(_finding(
                RULE_UNUSED, loc, f"'{name}' is declared but never read",
            ))
        if (name in reads and name not in writes
                and direction != ast.DIR_INPUT):
            findings.append(_finding(
                RULE_UNDRIVEN, loc, f"'{name}' is read but never driven",
            ))
    return findings


def _cond_polarity(cond: ast.Expr, name: str) -> Optional[str]:
    """How *cond* tests *name* at its top level: "pos", "neg" or None."""
    if isinstance(cond, ast.Ident) and cond.name == name:
        return "pos"
    if (isinstance(cond, ast.Unary) and cond.op in ("!", "~")
            and isinstance(cond.operand, ast.Ident)
            and cond.operand.name == name):
        return "neg"
    if isinstance(cond, ast.Binary) and cond.op in ("==", "!="):
        ident, lit = cond.left, cond.right
        if isinstance(lit, ast.Ident) and isinstance(ident, ast.Literal):
            ident, lit = lit, ident
        if isinstance(ident, ast.Ident) and ident.name == name and \
                isinstance(lit, ast.Literal):
            truthy = (lit.value != 0) == (cond.op == "==")
            return "pos" if truthy else "neg"
    return None


def _pass_async_reset(info: _ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    styles: dict[str, set[str]] = {}
    for item in _behavioral_items(info):
        if not isinstance(item, ast.AlwaysBlock) or not item.sensitivity:
            continue
        if len(item.sensitivity) < 2:
            continue
        body = item.body
        if isinstance(body, ast.Block) and body.stmts:
            body = body.stmts[0]
        for sens in item.sensitivity[1:]:
            name = sens.name
            styles.setdefault(name, set()).add(sens.edge or "pos")
            if not isinstance(body, ast.If):
                findings.append(_finding(
                    RULE_ASYNCRESET, item.loc,
                    f"async reset '{name}' is in the sensitivity list but "
                    "the block body does not start with a reset test",
                ))
                continue
            polarity = _cond_polarity(body.cond, name)
            reads: set[str] = set()
            _expr_reads(body.cond, reads)
            if name not in reads:
                findings.append(_finding(
                    RULE_ASYNCRESET, item.loc,
                    f"async reset '{name}' is in the sensitivity list but "
                    "the first condition does not test it",
                ))
            elif polarity is not None and polarity != (sens.edge or "pos"):
                findings.append(_finding(
                    RULE_ASYNCRESET, item.loc,
                    f"async reset '{name}' is sensitive to the "
                    f"{sens.edge}edge but tested with "
                    f"{'active-high' if polarity == 'pos' else 'active-low'}"
                    " polarity",
                ))
    for name, used in sorted(styles.items()):
        if len(used) > 1:
            loc = info.mod.loc
            findings.append(_finding(
                RULE_ASYNCRESET, loc,
                f"reset '{name}' is used with both posedge and negedge "
                "sensitivity across always blocks",
            ))
    return findings


def _pass_snoopdrive(info: _ModuleInfo) -> list[Finding]:
    """Snoop response ports must be driven in every state of a clocked
    block: a ``snoop_`` output that is only assigned on some paths holds
    its previous value on the others, so a coherence participant polling
    it can see a stale acknowledge or hit flag from an earlier probe."""
    findings: list[Finding] = []
    for item in _behavioral_items(info):
        if not isinstance(item, ast.AlwaysBlock) or not item.sensitivity:
            continue
        always, sometimes = _assign_paths(item.body)
        for name in sorted(sometimes - always):
            if not name.startswith("snoop_"):
                continue
            if info.dirs.get(name) != ast.DIR_OUTPUT:
                continue
            findings.append(_finding(
                RULE_SNOOPDRIVE, item.loc,
                f"snoop port '{name}' is assigned on some but not all "
                "paths of this clocked block; drive it (e.g. a default "
                "clear) in every state so probes never observe a stale "
                "response",
            ))
    return findings


# ---------------------------------------------------------------------------
# Pipeline entry points
# ---------------------------------------------------------------------------

_PASSES = (
    _pass_multidriven,
    _pass_latch,
    _pass_width,
    _pass_case,
    _pass_unused_undriven,
    _pass_async_reset,
    _pass_snoopdrive,
)


def lint_modules(
    modules: dict[str, ast.ModuleDecl],
    params: Optional[dict[str, int]] = None,
) -> list[Finding]:
    """Run every pass over every module, each with the *params* it
    declares overridden; deterministic ordering."""
    findings: list[Finding] = []
    for name in sorted(modules):
        info = _ModuleInfo(modules[name], params, modules)
        for rule_pass in _PASSES:
            findings.extend(rule_pass(info))
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    return findings


def _frontend_for(filename: str, frontend: Optional[str]) -> str:
    if frontend is not None:
        return frontend
    return "vhdl" if filename.endswith((".vhd", ".vhdl")) else "verilog"


def lint_source(
    source: str,
    filename: str = "<hdl>",
    frontend: Optional[str] = None,
    waivers: Iterable[WaiverEntry] = (),
    params: Optional[dict[str, int]] = None,
) -> LintReport:
    """Lint one source file under *params*; syntax errors become SYNTAX
    findings."""
    fe = _frontend_for(filename, frontend)
    if fe == "vhdl":
        from ..hdl.vhdl.parser import parse
    else:
        from ..hdl.verilog.parser import parse
    try:
        modules = parse(source, filename)
    except HDLSyntaxError as err:
        loc = err.loc
        finding = Finding(
            RULE_SYNTAX, SEV_ERROR, err.message,
            loc.filename if loc else filename,
            loc.line if loc else 0,
            loc.col if loc else 0,
        )
        report = LintReport([finding])
        apply_waivers(report.findings, {filename: source}, list(waivers))
        return report
    findings = lint_modules(modules, params)
    apply_waivers(findings, {filename: source}, list(waivers))
    return LintReport(findings)
