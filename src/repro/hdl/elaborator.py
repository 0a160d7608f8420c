"""Elaborator: compile the shared HDL AST into an executable RTLModule.

This plays Verilator's role in the paper: the design hierarchy is
flattened, parameters are folded, and every process (``assign`` /
``always`` / VHDL process) is compiled into a body tree
(:mod:`repro.rtl.ir`) operating on the module's flat value arrays; the
tree is printed as a *generated Python function* — the direct analogue
of the C++ ``eval`` functions Verilator emits.  The printed model is
``RTLModule.generated_source``, for inspection/debugging.

Semantics notes (documented deviations, all standard co-sim compromises):

* Two-valued logic (no X/Z).  Registers start at 0 unless initialised.
* ``always @(posedge clk or posedge rst)`` is treated as clocked on the
  first edge item; asynchronous-set/reset behaviour therefore resolves at
  the next clock edge (the bridge holds reset across full cycles, so
  observable behaviour matches).
* Self-determined expression widths: arithmetic/bitwise results take the
  wider operand's width; comparisons and logical operators are 1 bit.
* Out-of-range memory indices wrap modulo the depth (real Verilog reads X).
* Non-blocking writes to bit/part-selects stage masked partial updates,
  applied in program order after all processes sample — so multiple NBA
  bit writes to one register in the same edge compose correctly.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

from . import ast
from .common import CoverageOptions, ElabError, Loc
from ..rtl import ir
from ..rtl.kernel import FSMInfo, Memory, RTLModule, Signal, mask_for


@dataclass
class _SigRef:
    sig: Signal
    kind: str  # wire | reg | integer


@dataclass
class _MemRef:
    mem: Memory


@dataclass
class _Scope:
    """Per-instance name resolution: params are folded constants."""

    prefix: str
    params: dict[str, int] = field(default_factory=dict)
    names: dict[str, Union[_SigRef, _MemRef]] = field(default_factory=dict)

    def nested(self, suffix: str, **params: int) -> "_Scope":
        """A generate scope: sees this scope's names and parameters, and
        prefixes its own names with *suffix*."""
        return _Scope(self.prefix + suffix, {**self.params, **params},
                      dict(self.names))

    def lookup(self, name: str, loc: Loc) -> Union[int, _SigRef, _MemRef]:
        if name in self.params:
            return self.params[name]
        if name in self.names:
            return self.names[name]
        raise ElabError(f"unknown identifier {name!r}", loc)


#: unary HDL operator -> (0/1 wrapper or None, repro.rtl.ir operator)
_UNARY = {
    "~": (None, "~"), "-": (None, "neg"),
    "^": (None, "parity"), "^~": (None, "nparity"),
    "!": ("nbool", "truth"), "|": ("bool", "truth"), "~|": ("nbool", "truth"),
    "&": ("bool", "ones"), "~&": ("nbool", "ones"),
}


class Elaborator:
    """Flattens a module hierarchy and generates process code."""

    def __init__(
        self,
        modules: dict[str, ast.ModuleDecl],
        top: str,
        params: Optional[dict[str, int]] = None,
        instrument: Optional[CoverageOptions] = None,
    ) -> None:
        if top not in modules:
            raise ElabError(f"top module {top!r} not found (have: {sorted(modules)})")
        self.modules = modules
        self.top = top
        self.top_params = dict(params or {})
        self.instrument = instrument
        self.rtl = RTLModule(top)
        self._line = 0
        # statement-coverage emission state, active only while compiling
        # an always/process body with instrument.statement on
        self._cov_stmt = False
        self._cov_label = ""

    # -- public -------------------------------------------------------------

    def elaborate(self) -> RTLModule:
        self._elaborate_module(self.modules[self.top], "", self.top_params,
                               is_top=True)
        return self.rtl

    # -- module instantiation -------------------------------------------------

    def _elaborate_module(
        self,
        mod: ast.ModuleDecl,
        prefix: str,
        param_over: dict[str, int],
        is_top: bool = False,
    ) -> _Scope:
        scope = _Scope(prefix)

        # Pass 1: parameters (in order; later ones may use earlier ones),
        # which also settles every generate-if condition.
        items = []
        for item in ast.generate_items(mod.items, self._folder(scope)):
            items.append(item)
            if isinstance(item, ast.ParamDecl):
                if not item.is_local and item.name in param_over:
                    scope.params[item.name] = param_over[item.name]
                else:
                    scope.params[item.name] = self._const_expr(item.value, scope)
        for name in param_over:
            if name not in scope.params:
                raise ElabError(
                    f"override for unknown parameter {name!r} in module {mod.name!r}"
                )

        # Pass 2: nets / regs / memories.
        for item in items:
            if isinstance(item, ast.NetDecl):
                self._declare_net(item, scope, is_top)

        # Pass 3: behaviour + children.
        for item in items:
            self._elaborate_item(item, scope)
        return scope

    def _folder(self, scope: _Scope):
        """Folds a generate-if condition over *scope*'s parameters."""
        params = _Scope(scope.prefix, scope.params)

        def fold(cond: ast.Expr) -> int:
            try:
                return self._const_expr(cond, params)
            except ElabError:
                raise ElabError("generate-if condition must be constant",
                                cond.loc) from None

        return fold

    def _elaborate_item(self, item, scope: _Scope) -> None:
        """One behavioural or structural item; declarations are not."""
        if isinstance(item, ast.ContAssign):
            self._compile_cont_assign(item, scope)
        elif isinstance(item, ast.AlwaysBlock):
            self._compile_always(item, scope)
        elif isinstance(item, ast.Instance):
            self._elaborate_instance(item, scope)
        elif isinstance(item, ast.GenerateFor):
            self._elaborate_generate(item, scope)
        elif isinstance(item, ast.GenerateBlock):
            self._elaborate_body(item.items, scope.nested(f"{item.label}."))

    def _elaborate_body(self, items: list, scope: _Scope) -> None:
        """A generate scope's items, in one pass in source order."""
        for item in ast.generate_items(items, self._folder(scope)):
            if isinstance(item, ast.NetDecl):
                self._declare_net(item, scope, is_top=False)
            elif isinstance(item, ast.ParamDecl):
                scope.params[item.name] = self._const_expr(item.value, scope)
            self._elaborate_item(item, scope)

    def _elaborate_generate(self, gen: ast.GenerateFor, scope: _Scope) -> None:
        """Unroll a generate-for: each iteration elaborates its items in
        a scope where the genvar is a constant; names created inside get
        a ``label[i].`` prefix (matching Verilog's generate naming)."""
        value = self._const_expr(gen.init, scope)
        for _guard in range(100_000):
            iter_scope = scope.nested(f"{gen.label}[{value}].",
                                      **{gen.var: value})
            if not self._const_expr(gen.cond, iter_scope):
                return
            self._elaborate_body(gen.items, iter_scope)
            value = self._const_expr(gen.step, iter_scope)
        raise ElabError(
            f"generate-for {gen.label!r} exceeded 100000 iterations", gen.loc
        )

    def _declare_net(self, decl: ast.NetDecl, scope: _Scope, is_top: bool) -> None:
        width = self._range_width(decl.rng, scope, decl.loc)
        if decl.kind == "integer":
            width = 32
        full = scope.prefix + decl.name
        if decl.mem_range is not None:
            lo = self._const_expr(decl.mem_range.msb, scope)
            hi = self._const_expr(decl.mem_range.lsb, scope)
            if lo != 0:
                raise ElabError(
                    f"memory {decl.name!r} must be declared [0:D-1]", decl.loc
                )
            depth = hi + 1
            mem = self.rtl.add_memory(full, width, depth)
            scope.names[decl.name] = _MemRef(mem)
            return
        init = self._const_expr(decl.init, scope) if decl.init is not None else 0
        sig = self.rtl.add_signal(
            full,
            width,
            is_input=is_top and decl.direction == ast.DIR_INPUT,
            is_output=is_top and decl.direction == ast.DIR_OUTPUT,
            init=init,
        )
        scope.names[decl.name] = _SigRef(sig, decl.kind)

    def _range_width(
        self, rng: Optional[ast.Range], scope: _Scope, loc: Loc
    ) -> int:
        if rng is None:
            return 1
        msb = self._const_expr(rng.msb, scope)
        lsb = self._const_expr(rng.lsb, scope)
        if lsb != 0:
            raise ElabError(f"vector ranges must end at 0, got [{msb}:{lsb}]", loc)
        if msb < lsb:
            raise ElabError(f"descending range required, got [{msb}:{lsb}]", loc)
        return msb - lsb + 1

    def _elaborate_instance(self, inst: ast.Instance, scope: _Scope) -> None:
        if inst.module not in self.modules:
            raise ElabError(f"unknown module {inst.module!r}", inst.loc)
        child_decl = self.modules[inst.module]
        child_params = {
            name: self._const_expr(expr, scope) for name, expr in inst.params.items()
        }
        child_prefix = scope.prefix + inst.name + "."
        child_scope = self._elaborate_module(child_decl, child_prefix, child_params)

        ports = {p.name: p for p in child_decl.ports()}
        for port_name, conn in inst.conns.items():
            if port_name not in ports:
                raise ElabError(
                    f"module {inst.module!r} has no port {port_name!r}", inst.loc
                )
            if conn is None:
                continue  # explicitly unconnected
            port = ports[port_name]
            if port.direction == ast.DIR_INPUT:
                # child_input = parent_expr  (a comb alias process)
                lhs = ast.LvId(inst.loc, port_name)
                self._compile_cont_assign_scoped(
                    lhs, conn, lhs_scope=child_scope, rhs_scope=scope,
                    name=f"{inst.name}.{port_name}",
                )
            else:
                # parent_net = child_output — connection must be assignable
                if isinstance(conn, ast.Ident):
                    lhs: ast.Lvalue = ast.LvId(inst.loc, conn.name)
                elif isinstance(conn, ast.Index):
                    lhs = ast.LvIndex(inst.loc, conn.name, conn.index)
                elif isinstance(conn, ast.Slice):
                    lhs = ast.LvSlice(inst.loc, conn.name, conn.msb, conn.lsb)
                else:
                    raise ElabError(
                        f"output port {port_name!r} of {inst.name!r} must "
                        "connect to a net, bit-select or part-select",
                        inst.loc,
                    )
                rhs = ast.Ident(inst.loc, port_name)
                self._compile_cont_assign_scoped(
                    lhs, rhs, lhs_scope=scope, rhs_scope=child_scope,
                    name=f"{inst.name}.{port_name}",
                )

    # -- constant folding ------------------------------------------------------

    def _const_expr(self, expr: ast.Expr, scope: _Scope) -> int:
        """Evaluate a compile-time-constant expression (params, literals)."""
        value = ir.evaluate(self._compile_expr(expr, scope))
        if value is None:
            raise ElabError("expression must be constant", expr.loc)
        return value

    # -- expression compilation ---------------------------------------------------

    def _compile_expr(self, e: ast.Expr, scope: _Scope) -> ir.Expr:
        """*e* as an :mod:`repro.rtl.ir` node carrying its width."""
        rec = self._compile_expr
        if isinstance(e, ast.WildcardLiteral):
            raise ElabError(
                "wildcard pattern is only valid as a case-item match", e.loc
            )
        if isinstance(e, ast.Literal):
            width = e.width if e.width is not None else max(32, e.value.bit_length())
            return ir.Const(e.value & mask_for(width), width)
        if isinstance(e, ast.Ident):
            ref = scope.lookup(e.name, e.loc)
            if isinstance(ref, int):
                width = max(32, ref.bit_length()) if ref >= 0 else 32
                return ir.Const(ref & mask_for(width), width)
            if isinstance(ref, _MemRef):
                raise ElabError(f"memory {e.name!r} needs an index", e.loc)
            return ir.Sig(ref.sig.index, ref.sig.width)
        if isinstance(e, ast.Index):
            ref = scope.lookup(e.name, e.loc)
            index = rec(e.index, scope)
            if isinstance(ref, _MemRef):
                return ir.MemRead(ref.mem.index, ref.mem.depth, index,
                                  ref.mem.width)
            if isinstance(ref, int):
                raise ElabError(f"cannot index parameter {e.name!r}", e.loc)
            return ir.Op("bit", (ir.Sig(ref.sig.index, ref.sig.width), index), 1)
        if isinstance(e, ast.Slice):
            ref = scope.lookup(e.name, e.loc)
            if not isinstance(ref, _SigRef):
                raise ElabError(f"can only part-select signals: {e.name!r}", e.loc)
            msb = self._const_expr(e.msb, scope)
            lsb = self._const_expr(e.lsb, scope)
            if msb < lsb or msb >= ref.sig.width:
                raise ElabError(
                    f"bad part-select {e.name}[{msb}:{lsb}] of width "
                    f"{ref.sig.width}",
                    e.loc,
                )
            width = msb - lsb + 1
            return ir.Op("slice", (ir.Sig(ref.sig.index, ref.sig.width),),
                         width, (lsb, mask_for(width)))
        if isinstance(e, ast.Concat):
            total = None
            for part in e.parts:  # MSB first
                node = rec(part, scope)
                total = node if total is None else ir.Op(
                    "cat", (total, node), total.width + node.width,
                    (node.width,))
            assert total is not None
            return total
        if isinstance(e, ast.Repeat):
            count = self._const_expr(e.count, scope)
            if count <= 0:
                raise ElabError("replication count must be positive", e.loc)
            node = rec(e.value, scope)
            return ir.Op("rep", (node,), node.width * count,
                         (count, node.width))
        if isinstance(e, ast.Unary):
            node = rec(e.operand, scope)
            w = node.width
            if e.op not in _UNARY:
                raise ElabError(f"unsupported unary operator {e.op!r}", e.loc)
            wrap, op = _UNARY[e.op]
            masked = op in ("~", "neg", "ones")
            node = ir.Op(op, (node,), w if op in ("~", "neg") else 1,
                         (mask_for(w),) if masked else ())
            return node if wrap is None else ir.Op(wrap, (node,), 1)
        if isinstance(e, ast.Binary):
            left, right = rec(e.left, scope), rec(e.right, scope)
            w = max(left.width, right.width)
            op = e.op
            if op in ("+", "-", "*", "^~"):
                return ir.Op(op, (left, right), w, (mask_for(w),))
            if op in ("/", "%", "&", "|", "^"):
                return ir.Op(op, (left, right), w)
            if op == "<<":
                return ir.Op(op, (left, right), left.width,
                             (mask_for(left.width),))
            if op == ">>":
                return ir.Op(op, (left, right), left.width)
            if op in ("<", ">", "<=", ">=", "==", "!="):
                return ir.Op("bool", (ir.Op(op, (left, right), 1),), 1)
            if op in ("&&", "||"):
                test = ir.Op("and" if op == "&&" else "or", (left, right), 1)
                return ir.Op("bool", (test,), 1)
            raise ElabError(f"unsupported binary operator {op!r}", e.loc)
        if isinstance(e, ast.Ternary):
            cond = rec(e.cond, scope)
            then, other = rec(e.then, scope), rec(e.other, scope)
            return ir.Op("?:", (cond, then, other),
                         max(then.width, other.width))
        raise ElabError(f"unsupported expression {type(e).__name__}", e.loc)

    # -- statement compilation -----------------------------------------------------
    #
    # ``out`` is the suite being built.  A temporary is named after its
    # process's ordinal and the line it is set on — those names are in
    # every generated text — so ``self._line`` counts the lines the
    # process prints so far.

    @property
    def _ordinal(self) -> int:
        return len(self.rtl.listing) + 1

    def _emit(self, out: list, stmt: ir.Stmt) -> None:
        out.append(stmt)
        self._line += 1

    def _compile_store(
        self,
        lhs: ast.Lvalue,
        rhs: ir.Expr,
        scope: _Scope,
        out: list,
        nonblocking: bool,
    ) -> None:
        mode = ir.NBA if nonblocking else ir.BLOCKING
        if isinstance(lhs, ast.LvId):
            ref = scope.lookup(lhs.name, lhs.loc)
            if isinstance(ref, _MemRef):
                raise ElabError(f"memory {lhs.name!r} needs an index", lhs.loc)
            if isinstance(ref, int):
                raise ElabError(f"cannot assign to parameter {lhs.name!r}", lhs.loc)
            if rhs.width > ref.sig.width:
                rhs = ir.Op("mask", (rhs,), ref.sig.width, (ref.sig.mask,))
            self._emit(out, ir.Store(ref.sig.index, rhs, mode))
            return
        if isinstance(lhs, ast.LvIndex):
            ref = scope.lookup(lhs.name, lhs.loc)
            index = self._compile_expr(lhs.index, scope)
            if isinstance(ref, _MemRef):
                val = ir.Op("mask", (rhs,), ref.mem.width, (ref.mem.mask,))
                self._emit(out, ir.MemStore(ref.mem.index, ref.mem.depth,
                                            index, val, mode))
                return
            if isinstance(ref, int):
                raise ElabError(f"cannot assign to parameter {lhs.name!r}", lhs.loc)
            # non-blocking: a partial (masked) NBA, merging with other
            # bit writes; blocking: a read-modify-write
            self._emit(out, ir.BitStore(ref.sig.index, index, rhs, mode))
            return
        if isinstance(lhs, ast.LvSlice):
            ref = scope.lookup(lhs.name, lhs.loc)
            if not isinstance(ref, _SigRef):
                raise ElabError(f"can only part-select signals: {lhs.name!r}", lhs.loc)
            msb = self._const_expr(lhs.msb, scope)
            lsb = self._const_expr(lhs.lsb, scope)
            if msb < lsb or msb >= ref.sig.width:
                raise ElabError(f"bad part-select on {lhs.name!r}", lhs.loc)
            self._emit(out, ir.SliceStore(
                ref.sig.index, lsb, mask_for(msb - lsb + 1), rhs, mode))
            return
        if isinstance(lhs, ast.LvConcat):
            # Split RHS (held in a temp) across the parts, MSB first.
            tmp = ir.Temp(f"_t{self._ordinal}_{self._line}", rhs.width)
            self._emit(out, ir.SetTemp(tmp.name, rhs))
            widths = [self._lvalue_width(p, scope) for p in lhs.parts]
            offset = sum(widths)
            for part, w in zip(lhs.parts, widths):
                offset -= w
                field_ = ir.Op("slice", (tmp,), w, (offset, mask_for(w)))
                self._compile_store(part, field_, scope, out, nonblocking)
            return
        raise ElabError(f"unsupported lvalue {type(lhs).__name__}", lhs.loc)

    def _lvalue_width(self, lhs: ast.Lvalue, scope: _Scope) -> int:
        if isinstance(lhs, ast.LvId):
            ref = scope.lookup(lhs.name, lhs.loc)
            if isinstance(ref, _SigRef):
                return ref.sig.width
            if isinstance(ref, _MemRef):
                return ref.mem.width
            raise ElabError(f"cannot assign to parameter {lhs.name!r}", lhs.loc)
        if isinstance(lhs, ast.LvIndex):
            ref = scope.lookup(lhs.name, lhs.loc)
            if isinstance(ref, _MemRef):
                return ref.mem.width
            return 1
        if isinstance(lhs, ast.LvSlice):
            msb = self._const_expr(lhs.msb, scope)
            lsb = self._const_expr(lhs.lsb, scope)
            return msb - lsb + 1
        if isinstance(lhs, ast.LvConcat):
            return sum(self._lvalue_width(p, scope) for p in lhs.parts)
        raise ElabError("unsupported lvalue", lhs.loc)

    def _compile_suite(
        self, stmt: ast.Stmt, scope: _Scope, in_sync: bool
    ) -> ir.Suite:
        out: list = []
        self._compile_stmt(stmt, scope, out, in_sync)
        return tuple(out)

    def _compile_stmt(
        self,
        stmt: ast.Stmt,
        scope: _Scope,
        out: list,
        in_sync: bool,
    ) -> None:
        if isinstance(stmt, ast.Block):
            if not stmt.stmts:
                self._emit(out, ir.Pass())
            for s in stmt.stmts:
                self._compile_stmt(s, scope, out, in_sync)
            return
        if isinstance(stmt, ast.Null):
            self._emit(out, ir.Pass())
            return
        if isinstance(stmt, ast.Assign):
            if self._cov_stmt:
                # Statement coverage: a hidden counter incremented right
                # before the assignment.  The increment is part of the
                # process *body*, so the codegen backend inlines the
                # identical instrumentation — both backends count the
                # same executions by construction.
                cov = self.rtl.add_coverage_point(
                    self._cov_label, stmt.loc.filename, stmt.loc.line,
                    stmt.loc.col,
                )
                self._emit(out, ir.Cover(cov.index))
            rhs = self._compile_expr(stmt.rhs, scope)
            nonblocking = (not stmt.blocking) and in_sync
            self._compile_store(stmt.lhs, rhs, scope, out, nonblocking)
            return
        if isinstance(stmt, ast.If):
            cond = self._compile_expr(stmt.cond, scope)
            self._line += 1
            then = self._compile_suite(stmt.then, scope, in_sync)
            other = None
            if stmt.other is not None:
                self._line += 1
                other = self._compile_suite(stmt.other, scope, in_sync)
            out.append(ir.If(cond, then, other))
            return
        if isinstance(stmt, ast.Case):
            subject = self._compile_expr(stmt.subject, scope)
            tmp = ir.Temp(f"_s{self._ordinal}_{self._line}", subject.width)
            self._emit(out, ir.SetTemp(tmp.name, subject))
            arms: list[tuple[ir.Expr, ir.Suite]] = []
            default: Optional[ast.Stmt] = None
            for item in stmt.items:
                if item.matches is None:
                    default = item.body
                    continue
                conds = tuple(
                    # casez: compare only the cared-about bits
                    ir.Op("casez", (tmp,), 1, (match.care_mask, match.value))
                    if isinstance(match, ast.WildcardLiteral)
                    else ir.Op("is", (tmp, self._compile_expr(match, scope)), 1)
                    for match in item.matches
                )
                self._line += 1
                arms.append((ir.Op("any", conds, 1),
                             self._compile_suite(item.body, scope, in_sync)))
            if not arms:
                if default is not None:
                    self._compile_stmt(default, scope, out, in_sync)
                return
            other, chain = None, False
            if default is not None:
                self._line += 1
                other = self._compile_suite(default, scope, in_sync)
            for cond, body in reversed(arms):
                other, chain = (ir.If(cond, body, other, chain),), True
            out.extend(other)
            return
        if isinstance(stmt, ast.For):
            ref = scope.lookup(stmt.var, stmt.loc)
            if not isinstance(ref, _SigRef):
                raise ElabError(
                    f"for-loop variable {stmt.var!r} must be an integer/reg",
                    stmt.loc,
                )
            init = self._compile_expr(stmt.init, scope)
            cond = self._compile_expr(stmt.cond, scope)
            step = self._compile_expr(stmt.step, scope)
            self._line += 2
            body = self._compile_suite(stmt.body, scope, in_sync)
            self._line += 1
            out.append(ir.Loop(ref.sig.index, ref.sig.mask, init, cond, step,
                               body))
            return
        raise ElabError(f"unsupported statement {type(stmt).__name__}", stmt.loc)

    # -- process materialisation ------------------------------------------------

    def _compile_cont_assign(self, item: ast.ContAssign, scope: _Scope) -> None:
        self._compile_cont_assign_scoped(
            item.lhs, item.rhs, lhs_scope=scope, rhs_scope=scope, name="assign"
        )

    def _compile_cont_assign_scoped(
        self,
        lhs: ast.Lvalue,
        rhs: ast.Expr,
        lhs_scope: _Scope,
        rhs_scope: _Scope,
        name: str,
    ) -> None:
        self._line = 0
        out: list = []
        self._compile_store(lhs, self._compile_expr(rhs, rhs_scope), lhs_scope,
                            out, nonblocking=False)
        proc = self.rtl.add_comb(None, (), (), name=f"{lhs_scope.prefix}{name}",
                                 body=tuple(out))
        self.rtl.listing.append((name, proc))

    def _compile_always(self, item: ast.AlwaysBlock, scope: _Scope) -> None:
        self._line = 0
        sync = item.sensitivity is not None
        # an ``if`` on a constant compiles only its taken arm
        tree = ast.prune_if(
            item.body, lambda e: ir.evaluate(self._compile_expr(e, scope)))
        if sync:
            # Clocked process: first edge item is the clock.
            clock_item = item.sensitivity[0]
            ref = scope.lookup(clock_item.name, item.loc)
            if not isinstance(ref, _SigRef):
                raise ElabError(f"clock {clock_item.name!r} is not a signal", item.loc)
            if self.instrument and self.instrument.fsm:
                self._detect_fsms(tree, scope)
        name = f"{scope.prefix}{'sync' if sync else 'comb'}@{item.loc.line}"
        self._cov_stmt = bool(self.instrument and self.instrument.statement)
        self._cov_label = name
        try:
            body = self._compile_suite(tree, scope, in_sync=sync)
        finally:
            self._cov_stmt = False
        if sync:
            proc = self.rtl.add_sync(None, ref.sig, edge=clock_item.edge or "pos",
                                     name=name, body=body)
            what = f"always@({clock_item.edge}edge {clock_item.name}) {item.loc}"
        else:
            proc = self.rtl.add_comb(None, (), (), name=name, body=body)
            what = f"always@* {item.loc}"
        self.rtl.listing.append((what, proc))

    # -- FSM detection ---------------------------------------------------------

    def _detect_fsms(self, body: ast.Stmt, scope: _Scope) -> None:
        """Infer state registers: ``case`` subjects that are registers
        with constant match values, plus any constants assigned to them
        in the same block.  Pure metadata — no generated code changes."""
        case_states: dict[str, set[int]] = {}
        const_assigns: dict[str, set[int]] = {}

        for s in ast.walk(body):
            if isinstance(s, ast.Case):
                self._collect_case_states(s, scope, case_states)
            elif isinstance(s, ast.Assign) and isinstance(s.lhs, ast.LvId):
                try:
                    value = self._const_expr(s.rhs, scope)
                except ElabError:
                    continue
                const_assigns.setdefault(s.lhs.name, set()).add(value)
        for name, states in case_states.items():
            ref = scope.names.get(name)
            if not isinstance(ref, _SigRef):
                continue
            all_states = {
                s & ref.sig.mask
                for s in states | const_assigns.get(name, set())
            }
            if len(all_states) < 2:
                continue
            self._record_fsm(ref.sig, all_states, body.loc)

    def _collect_case_states(
        self,
        case: ast.Case,
        scope: _Scope,
        out: dict[str, set[int]],
    ) -> None:
        if not isinstance(case.subject, ast.Ident):
            return
        ref = scope.names.get(case.subject.name)
        if not isinstance(ref, _SigRef) or ref.sig.width > 16:
            return
        states: set[int] = set()
        for item in case.items:
            for match in item.matches or ():
                try:
                    states.add(self._const_expr(match, scope))
                except ElabError:
                    return  # wildcard / non-constant match: not an FSM
        out.setdefault(case.subject.name, set()).update(states)

    def _record_fsm(self, sig: Signal, states: set[int], loc: Loc) -> None:
        for i, info in enumerate(self.rtl.fsm_infos):
            if info.index == sig.index:
                merged = tuple(sorted(set(info.states) | states))
                self.rtl.fsm_infos[i] = FSMInfo(
                    info.signal, info.index, info.width, merged,
                    info.file, info.line,
                )
                return
        self.rtl.fsm_infos.append(
            FSMInfo(sig.name, sig.index, sig.width, tuple(sorted(states)),
                    loc.filename, loc.line)
        )


def elaborate(
    modules: dict[str, ast.ModuleDecl],
    top: str,
    params: Optional[dict[str, int]] = None,
    instrument: Optional[CoverageOptions] = None,
) -> RTLModule:
    """Convenience wrapper: flatten + compile *top* with parameter overrides."""
    return Elaborator(modules, top, params, instrument).elaborate()


# ---------------------------------------------------------------------------
# Design compilation cache
# ---------------------------------------------------------------------------
#
# Repeated sweeps (DSE grids, benchmarks, the differential suite) compile
# the *same* source with the same parameters over and over; parsing plus
# elaboration dominates their setup time.  An elaborated RTLModule is
# immutable during simulation (simulators copy fresh value/memory arrays
# and never write the module), so identical compilations can share one
# instance.  Keyed by (frontend, sha256(source), top, params,
# instrumentation options).


class ElabCache:
    """Process-wide cache of elaborated designs."""

    def __init__(self) -> None:
        self._designs: dict[tuple, RTLModule] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        frontend: str,
        source: str,
        top: Optional[str],
        params: Optional[dict[str, int]],
        instrument: Optional[CoverageOptions] = None,
    ) -> tuple:
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        folded = tuple(sorted((params or {}).items()))
        # Instrumentation changes the elaborated design (extra hidden
        # counter signals, different process code), so it must be part
        # of the identity — an instrumented build must never be served
        # for a plain compile of the same source, or vice versa.
        token = instrument.cache_token() if instrument is not None else None
        return (frontend, digest, top, folded, token)

    def get_or_build(self, key: tuple, build) -> RTLModule:
        """Return the cached design for *key*, building it on a miss."""
        with self._lock:
            cached = self._designs.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        built = build()
        with self._lock:
            self.misses += 1
            self._designs[key] = built
        return built

    def clear(self) -> None:
        with self._lock:
            self._designs.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> dict:
        return {
            "entries": len(self._designs),
            "hits": self.hits,
            "misses": self.misses,
        }


#: the process-wide design cache used by both HDL frontends
ELAB_CACHE = ElabCache()
