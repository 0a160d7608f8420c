"""Structural area estimation for elaborated designs.

The paper motivates RTL-level work partly by area/power accounting
(§2: "the motivation to implement small hardware blocks in HDLs to
accurately measure their area and power costs") and quotes synthesis
results in Table 1 (PMU ≈ 5 k LUTs on a Xilinx KC705, NVDLA nv_full
≈ 2 M LUTs).  This module provides a *rough structural estimator* in
that spirit: it walks the HDL AST of a design and counts 4-input-LUT
and flip-flop equivalents using standard per-operator heuristics.

It is a first-order estimate (no technology mapping, packing or
optimisation), intended for relative comparisons between design
variants — the same role gem5-side models play for performance.

Heuristics (per W-bit operator, 4-LUT target):

=============== =========================
add/sub          W (carry logic in LUT)
mul              ~W*W/2
compare          W/2 + 1
bitwise 2-input  W/3 (3 per 2 LUTs packed)
mux (ternary)    W/2
shift by var     W/2 * log2(W) (barrel)
reduction        W/3
=============== =========================

Registers count one FF per bit; memories report bits separately
(block-RAM candidates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..hdl import ast

_BITWISE = {"&", "|", "^", "^~"}
_COMPARE = {"<", "<=", ">", ">=", "==", "!="}
_ARITH = {"+", "-"}


@dataclass
class AreaReport:
    """LUT/FF/RAM estimate for one module (hierarchy flattened)."""

    name: str
    luts: float = 0.0
    ffs: int = 0
    ram_bits: int = 0
    by_category: dict[str, float] = field(default_factory=dict)

    def add(self, category: str, luts: float) -> None:
        self.luts += luts
        self.by_category[category] = self.by_category.get(category, 0.0) + luts

    def format_text(self) -> str:
        lines = [
            f"area estimate for {self.name!r} (4-LUT equivalents)",
            f"  LUTs     : {self.luts:,.0f}",
            f"  FFs      : {self.ffs:,}",
            f"  RAM bits : {self.ram_bits:,}",
            "  by category:",
        ]
        for cat, luts in sorted(self.by_category.items(),
                                key=lambda kv: -kv[1]):
            lines.append(f"    {cat:<12} {luts:,.0f}")
        return "\n".join(lines)


class _Estimator:
    def __init__(self, modules: dict[str, ast.ModuleDecl], top: str,
                 params: dict[str, int] | None) -> None:
        self.modules = modules
        self.report = AreaReport(top)
        self._estimate_module(modules[top], dict(params or {}))

    # -- parameter-aware width resolution (best effort) ---------------------

    def _width_of_range(self, rng: ast.Range | None,
                        env: dict[str, int]) -> int:
        if rng is None:
            return 1
        msb = ast.fold(rng.msb, env)
        lsb = ast.fold(rng.lsb, env)
        if msb is None or lsb is None:
            return 8  # unknown parameterisation: assume a byte
        return abs(msb - lsb) + 1

    # -- module walk ------------------------------------------------------------

    def _estimate_module(self, mod: ast.ModuleDecl,
                         overrides: dict[str, int]) -> None:
        env: dict[str, int] = {}
        for item in mod.items:
            if isinstance(item, ast.ParamDecl):
                if not item.is_local and item.name in overrides:
                    env[item.name] = overrides[item.name]
                else:
                    value = ast.fold(item.value, env)
                    env[item.name] = 0 if value is None else value

        items = list(ast.generate_items(mod.items,
                                        lambda e: ast.fold(e, env)))
        widths: dict[str, int] = {}
        for item in items:
            if isinstance(item, ast.NetDecl):
                width = self._width_of_range(item.rng, env)
                widths[item.name] = width
                if item.mem_range is not None:
                    depth = self._width_of_range(item.mem_range, env)
                    self.report.ram_bits += width * depth

        for item in items:
            self._item(item, widths, env)

    def _item(self, item, widths: dict[str, int],
              env: dict[str, int]) -> None:
        """One behavioural item of a module or generate scope."""
        if isinstance(item, ast.Instance):
            child = self.modules.get(item.module)
            if child is not None:
                self._estimate_module(child, {
                    name: value for name, e in item.params.items()
                    if (value := ast.fold(e, env)) is not None
                })
        elif isinstance(item, ast.ContAssign):
            self._expr(item.rhs, widths, env)
        elif isinstance(item, ast.AlwaysBlock):
            self._always(item, widths, env)
        elif isinstance(item, ast.GenerateFor):
            self._generate(item, widths, env)
        elif isinstance(item, ast.GenerateBlock):
            for sub in ast.generate_items(item.items,
                                          lambda e: ast.fold(e, env)):
                self._item(sub, widths, env)

    def _generate(self, gen: ast.GenerateFor, widths: dict[str, int],
                  env: dict[str, int]) -> None:
        # count iterations with the same const-eval machinery
        value = ast.fold(gen.init, env)
        if value is None:
            return
        for _ in range(100_000):
            ienv = {**env, gen.var: value}
            cond = ast.fold(gen.cond, ienv)
            if not cond:
                return
            for item in ast.generate_items(gen.items,
                                           lambda e: ast.fold(e, ienv)):
                self._item(item, widths, ienv)
            step = ast.fold(gen.step, ienv)
            if step is None:
                return
            value = step

    # -- behavioural walks ----------------------------------------------------------

    def _always(self, block: ast.AlwaysBlock, widths: dict[str, int],
                env: dict[str, int]) -> None:
        is_sync = block.sensitivity is not None
        assigned: set[str] = set()
        body = ast.prune_if(block.body, lambda e: ast.fold(e, env))
        self._stmt(body, widths, env, assigned, mux_depth=0)
        if is_sync:
            for name in assigned:
                self.report.ffs += widths.get(name, 1)

    def _stmt(self, stmt: ast.Stmt, widths: dict[str, int],
              env: dict[str, int], assigned: set[str], mux_depth: int) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._stmt(s, widths, env, assigned, mux_depth)
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.rhs, widths, env)
            name = getattr(stmt.lhs, "name", None)
            if name:
                assigned.add(name)
                if mux_depth:
                    # conditional write implies an input mux on the reg
                    w = widths.get(name, 1)
                    self.report.add("mux", w / 2)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.cond, widths, env)
            self._stmt(stmt.then, widths, env, assigned, mux_depth + 1)
            if stmt.other is not None:
                self._stmt(stmt.other, widths, env, assigned, mux_depth + 1)
        elif isinstance(stmt, ast.Case):
            self._expr(stmt.subject, widths, env)
            for item in stmt.items:
                self._stmt(item.body, widths, env, assigned, mux_depth + 1)
        elif isinstance(stmt, ast.For):
            count = self._loop_trip_count(stmt, env)
            sub = AreaReport("loop")
            saved, self.report = self.report, sub
            try:
                self._stmt(stmt.body, widths, env, assigned, mux_depth)
            finally:
                self.report = saved
            for cat, luts in sub.by_category.items():
                self.report.add(cat, luts * count)
            self.report.ffs += sub.ffs * count
            self.report.ram_bits += sub.ram_bits

    def _loop_trip_count(self, stmt: ast.For, env: dict[str, int]) -> int:
        # best effort: constant bounds give the true count, else 8
        init = ast.fold(stmt.init, env)
        if isinstance(stmt.cond, ast.Binary):
            bound = ast.fold(stmt.cond.right, env)
            if init is not None and bound is not None and bound > init:
                return bound - init
        return 8

    def _expr(self, expr: ast.Expr, widths: dict[str, int],
              env: dict[str, int]) -> int:
        """Walk an expression, accumulating LUTs; returns its width."""
        if isinstance(expr, ast.Literal):
            return expr.width or 32
        if isinstance(expr, ast.Ident):
            if expr.name in env:
                return max(env[expr.name].bit_length(), 1)
            return widths.get(expr.name, 1)
        if isinstance(expr, ast.Index):
            self._expr(expr.index, widths, env)
            # dynamic bit select = W:1 mux
            w = widths.get(expr.name, 1)
            if not isinstance(expr.index, ast.Literal):
                self.report.add("mux", w / 4)
            return 1
        if isinstance(expr, ast.Slice):
            return widths.get(expr.name, 8)
        if isinstance(expr, ast.Concat):
            return sum(self._expr(p, widths, env) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            return self._expr(expr.value, widths, env)
        if isinstance(expr, ast.Unary):
            w = self._expr(expr.operand, widths, env)
            if expr.op in ("&", "|", "^", "~&", "~|", "^~"):
                self.report.add("reduce", w / 3)
                return 1
            if expr.op == "-":
                self.report.add("arith", w)
            elif expr.op == "~":
                self.report.add("bitwise", w / 3)
            return w
        if isinstance(expr, ast.Binary):
            lw = self._expr(expr.left, widths, env)
            rw = self._expr(expr.right, widths, env)
            w = max(lw, rw)
            op = expr.op
            if op in _ARITH:
                self.report.add("arith", w)
            elif op == "*":
                self.report.add("mul", w * w / 2)
            elif op in ("/", "%"):
                self.report.add("div", w * w)
            elif op in _COMPARE:
                self.report.add("compare", w / 2 + 1)
            elif op in _BITWISE:
                self.report.add("bitwise", w / 3)
            elif op in ("<<", ">>"):
                if isinstance(expr.right, ast.Literal):
                    pass  # constant shift is wiring
                else:
                    self.report.add(
                        "shift", w / 2 * max(math.log2(max(w, 2)), 1)
                    )
            elif op in ("&&", "||"):
                self.report.add("logic", 1)
            return 1 if op in _COMPARE or op in ("&&", "||") else w
        if isinstance(expr, ast.Ternary):
            self._expr(expr.cond, widths, env)
            tw = self._expr(expr.then, widths, env)
            fw = self._expr(expr.other, widths, env)
            w = max(tw, fw)
            self.report.add("mux", w / 2)
            return w
        return 1


def estimate_area(
    modules: dict[str, ast.ModuleDecl],
    top: str,
    params: dict[str, int] | None = None,
) -> AreaReport:
    """Estimate LUT/FF/RAM usage for *top* (parsed module dict)."""
    if top not in modules:
        raise KeyError(f"module {top!r} not found")
    return _Estimator(modules, top, params).report


def estimate_verilog(source: str, top: str | None = None,
                     params: dict[str, int] | None = None) -> AreaReport:
    """Convenience: parse Verilog text and estimate the top module."""
    from ..hdl.verilog.parser import parse

    modules = parse(source)
    if top is None:
        if len(modules) != 1:
            raise ValueError("multiple modules; specify top")
        top = next(iter(modules))
    return estimate_area(modules, top, params)
