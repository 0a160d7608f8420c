"""Language-neutral HDL AST shared by the Verilog and VHDL frontends.

Both parsers lower their surface syntax into these nodes; a single
elaborator (:mod:`repro.hdl.elaborator`) then compiles the AST into an
executable :class:`repro.rtl.RTLModule`.  This mirrors how the paper
treats Verilator and GHDL as interchangeable producers of the same kind
of C/C++ model.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Union

from .common import Loc

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    loc: Loc


@dataclass
class Literal(Expr):
    value: int
    width: Optional[int] = None  # None: unsized (context width, default 32)


@dataclass
class WildcardLiteral(Expr):
    """A casez match pattern: ``value`` under ``care_mask`` (? / z bits
    are don't-care).  Valid only as a case-item match."""

    value: int = 0
    care_mask: int = 0
    width: Optional[int] = None


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Index(Expr):
    """``name[expr]`` — bit-select of a vector or read of a memory word."""

    name: str
    index: "Expr" = None  # type: ignore[assignment]


@dataclass
class Slice(Expr):
    """``name[msb:lsb]`` — constant part-select."""

    name: str
    msb: "Expr" = None  # type: ignore[assignment]
    lsb: "Expr" = None  # type: ignore[assignment]


@dataclass
class Concat(Expr):
    parts: list["Expr"] = field(default_factory=list)


@dataclass
class Repeat(Expr):
    """``{count{value}}`` replication; count must be constant."""

    count: "Expr" = None  # type: ignore[assignment]
    value: "Expr" = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    """op in: ``~ ! - + & | ^ ~& ~| ~^`` (last five are reductions)."""

    op: str = ""
    operand: "Expr" = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    """op in: ``+ - * / % << >> < <= > >= == != & | ^ && ||``."""

    op: str = ""
    left: "Expr" = None  # type: ignore[assignment]
    right: "Expr" = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    cond: "Expr" = None  # type: ignore[assignment]
    then: "Expr" = None  # type: ignore[assignment]
    other: "Expr" = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------


@dataclass
class Lvalue:
    loc: Loc


@dataclass
class LvId(Lvalue):
    name: str


@dataclass
class LvIndex(Lvalue):
    """``name[expr] = …`` — bit of a vector or word of a memory."""

    name: str
    index: Expr = None  # type: ignore[assignment]


@dataclass
class LvSlice(Lvalue):
    name: str
    msb: Expr = None  # type: ignore[assignment]
    lsb: Expr = None  # type: ignore[assignment]


@dataclass
class LvConcat(Lvalue):
    parts: list[Lvalue] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    loc: Loc


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    """``lhs = rhs`` (blocking) or ``lhs <= rhs`` (non-blocking)."""

    lhs: Lvalue = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]
    blocking: bool = True


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None


@dataclass
class CaseItem:
    matches: Optional[list[Expr]]  # None = default arm
    body: Stmt


@dataclass
class Case(Stmt):
    subject: Expr = None  # type: ignore[assignment]
    items: list[CaseItem] = field(default_factory=list)


@dataclass
class For(Stmt):
    """``for (var = init; cond; var = step) body`` — evaluated dynamically."""

    var: str = ""
    init: Expr = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    step: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Null(Stmt):
    pass


# ---------------------------------------------------------------------------
# Module-level items
# ---------------------------------------------------------------------------

DIR_INPUT = "input"
DIR_OUTPUT = "output"


@dataclass
class Range:
    """``[msb:lsb]``; both bounds must elaborate to constants."""

    msb: Expr
    lsb: Expr


@dataclass
class NetDecl:
    """wire/reg/integer/signal declaration; a second range makes a memory."""

    loc: Loc
    name: str
    rng: Optional[Range] = None            # None => 1-bit
    kind: str = "wire"                     # wire | reg | integer
    mem_range: Optional[Range] = None      # reg [w] name [lo:hi]
    direction: Optional[str] = None        # input | output | None
    init: Optional[Expr] = None


@dataclass
class ParamDecl:
    loc: Loc
    name: str
    value: Expr
    is_local: bool = False


@dataclass
class ContAssign:
    """Continuous assignment (``assign`` / VHDL concurrent assignment)."""

    loc: Loc
    lhs: Lvalue
    rhs: Expr


@dataclass
class SensItem:
    edge: Optional[str]  # "pos" | "neg" | None (level)
    name: str


@dataclass
class AlwaysBlock:
    """``always @(…) stmt`` or a VHDL process."""

    loc: Loc
    sensitivity: Optional[list[SensItem]]  # None => combinational (@*)
    body: Stmt
    name: str = "always"


@dataclass
class Instance:
    loc: Loc
    module: str
    name: str
    params: dict[str, Expr] = field(default_factory=dict)
    conns: dict[str, Optional[Expr]] = field(default_factory=dict)


@dataclass
class GenerateFor:
    """``for (gv = init; cond; gv = step) begin : label … end`` —
    a structural loop unrolled at elaboration time."""

    loc: Loc
    var: str
    init: Expr
    cond: Expr
    step: Expr
    label: str
    items: list = field(default_factory=list)


@dataclass
class GenerateBlock:
    """``begin : label … end`` as a generate-if arm: names created inside
    get a ``label.`` prefix."""

    loc: Loc
    label: str
    items: list = field(default_factory=list)


@dataclass
class GenerateIf:
    """``if (cond) … [else …]`` at module scope: only the arm the
    constant condition selects exists.  An arm is a list of items; a
    labelled arm is one :class:`GenerateBlock`."""

    loc: Loc
    cond: Expr
    then: list = field(default_factory=list)
    other: list = field(default_factory=list)


Item = Union[NetDecl, ParamDecl, ContAssign, AlwaysBlock, Instance,
             GenerateFor, GenerateBlock, GenerateIf]


@dataclass
class ModuleDecl:
    loc: Loc
    name: str
    items: list[Item] = field(default_factory=list)

    def ports(self) -> list[NetDecl]:
        return [
            it
            for it in self.items
            if isinstance(it, NetDecl) and it.direction is not None
        ]


# ---------------------------------------------------------------------------
# Traversal and constant conditions: the rules every AST consumer applies
# ---------------------------------------------------------------------------


def walk(stmt: Optional[Stmt]) -> Iterator[Stmt]:
    """Pre-order traversal of a statement tree."""
    if stmt is None:
        return
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            yield from walk(s)
    elif isinstance(stmt, If):
        yield from walk(stmt.then)
        yield from walk(stmt.other)
    elif isinstance(stmt, Case):
        for item in stmt.items:
            yield from walk(item.body)
    elif isinstance(stmt, For):
        yield from walk(stmt.body)


#: a consumer's constant evaluator: an expression's value, or None when
#: it cannot fold it (the elaborator raises instead)
Fold = Callable[[Expr], Optional[int]]


_FOLD_BINARY: dict[str, Callable[[int, int], int]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else 0,
    "<<": operator.lshift, ">>": operator.rshift,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b), ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a and b)),
    "||": lambda a, b: int(bool(a or b)),
}
_FOLD_UNARY: dict[str, Callable[[int], int]] = {
    "-": operator.neg, "+": operator.pos, "!": lambda v: int(not v),
}


def fold(expr: Optional[Expr], params: dict[str, int]) -> Optional[int]:
    """Evaluate *expr* using parameter values only; None if not constant."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ident):
        return params.get(expr.name)
    if isinstance(expr, Unary) and expr.op in _FOLD_UNARY:
        v = fold(expr.operand, params)
        return None if v is None else _FOLD_UNARY[expr.op](v)
    if isinstance(expr, Binary) and expr.op in _FOLD_BINARY:
        lv, rv = fold(expr.left, params), fold(expr.right, params)
        if lv is None or rv is None:
            return None
        try:
            return _FOLD_BINARY[expr.op](lv, rv)
        except (ValueError, OverflowError):  # pragma: no cover - defensive
            return None
    if isinstance(expr, Ternary):
        c = fold(expr.cond, params)
        if c is None:
            return None
        return fold(expr.then if c else expr.other, params)
    return None


def generate_items(items: Iterable, fold_cond: Fold) -> Iterator:
    """*items* with every :class:`GenerateIf` replaced by its taken arm.

    An unlabelled arm is spliced in place, so its names join the
    enclosing scope; a labelled arm stays one :class:`GenerateBlock`.
    Lazy: a condition is folded when reached, after the parameters
    declared before it.  A static consumer that cannot fold a condition
    (a genvar it does not unroll) sees both arms.
    """
    for item in items:
        if not isinstance(item, GenerateIf):
            yield item
            continue
        value = fold_cond(item.cond)
        if value is None or value:
            yield from generate_items(item.then, fold_cond)
        if not value:
            yield from generate_items(item.other, fold_cond)


def prune_if(stmt: Stmt, fold_cond: Fold) -> Stmt:
    """*stmt* with every ``if`` whose condition folds replaced by the arm
    it takes (a :class:`Null` for a missing ``else``) — procedural
    code's generate-if."""
    def sub(s: Optional[Stmt]) -> Optional[Stmt]:
        return None if s is None else prune_if(s, fold_cond)

    if isinstance(stmt, If):
        value = fold_cond(stmt.cond)
        if value is None:
            return replace(stmt, then=sub(stmt.then), other=sub(stmt.other))
        return sub(stmt.then if value else stmt.other) or Null(stmt.loc)
    if isinstance(stmt, Block):
        return replace(stmt, stmts=[sub(s) for s in stmt.stmts])
    if isinstance(stmt, Case):
        return replace(stmt, items=[CaseItem(it.matches, sub(it.body))
                                    for it in stmt.items])
    if isinstance(stmt, For):
        return replace(stmt, body=sub(stmt.body))
    return stmt
