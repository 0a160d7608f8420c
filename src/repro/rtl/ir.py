"""Process bodies as trees: the one representation between the
elaborator and both execution backends.

The elaborator builds a body out of the nodes below; the codegen
backend rewrites it (:func:`rewrite`) and asks it questions
(:func:`walk`, :func:`reads`); *one* printer (:func:`render`) turns it
into the Python that runs — the interpreter's per-process function
(:func:`compile_fn`), the fused program, the ``source`` view kept for
inspection.  Nothing parses that text again.

Nodes are named tuples — immutable, hashed and compared at C speed,
cheap to define — and the set is closed.  An expression carries the
``width`` the elaborator worked out for it.  Equal nodes print the same
Python and therefore compute the same value.  Always tell kinds apart
by ``type(node) is Kind``: a node is a tuple, a suite is a tuple of
nodes.  Only codegen's lowering makes a :class:`Bits` loop, a ``not``,
a ``min``/``max`` or a memory access without ``wrap``; what the
elaborator builds, and so the plain print the interpreter runs, never
holds one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

# -- expressions ----------------------------------------------------------


class Const(NamedTuple):
    value: int
    width: int
    #: took a signal read's place, and keeps its parentheses in print
    folded: bool = False


class Sig(NamedTuple):
    """Read of ``v[index]``."""

    index: int
    width: int


class Temp(NamedTuple):
    """Read of a process-local temporary (see :class:`SetTemp`)."""

    name: str
    width: int


class MemRead(NamedTuple):
    """Read of memory *mem* at ``addr % depth``; without *wrap* (codegen's
    lowering, where the address is known to be below *depth*) at
    ``addr``."""

    mem: int
    depth: int
    addr: Expr
    width: int
    wrap: bool = True


class Op(NamedTuple):
    """Operator *op* of :data:`_FMT` over *args*, with the integers
    (masks, shifts) its template takes after them in *imm*; or ``min``
    or ``max`` of all *args*.  A mask of -1 keeps every bit: it is not
    printed."""

    op: str
    args: tuple[Expr, ...]
    width: int
    imm: tuple[int, ...] = ()


Expr = Union[Const, Sig, Temp, MemRead, Op]

#: Python text of each operator: ``{0}..`` the printed args, then *imm*.
#: From ``truth`` on they are *tests* — Python truth values, found only
#: under ``bool``/``nbool`` or as the condition of an ``if``/``while``.
_FMT = {
    **{op: f"((({{0}}) {op} ({{1}})) & {{2}})" for op in ("+", "-", "*", "<<")},
    **{op: f"(({{0}}) {op} ({{1}}))" for op in ("&", "|", "^", ">>")},
    "/": "((({0}) // ({1})) if ({1}) else 0)",
    "%": "((({0}) % ({1})) if ({1}) else 0)",
    "^~": "((~(({0}) ^ ({1}))) & {2})",
    "~": "((~({0})) & {1})",
    "neg": "((-({0})) & {1})",
    "parity": "((({0})).bit_count() & 1)",
    "nparity": "(((({0})).bit_count() & 1) ^ 1)",
    "?:": "(({1}) if ({0}) else ({2}))",
    "bit": "(({0} >> ({1})) & 1)",
    "slice": "(({0} >> {1}) & {2})",
    "cat": "((({0}) << {2}) | ({1}))",
    "mask": "(({0}) & {1})",
    "bool": "(1 if {0} else 0)",
    "nbool": "(0 if {0} else 1)",
    "truth": "({0})",
    "not": "(not {0})",
    "ones": "({0}) == {1}",
    **{op: f"({{0}}) {op} ({{1}})"
       for op in ("<", ">", "<=", ">=", "==", "!=", "and", "or")},
    "is": "{0} == ({1})",            # a case item's match ...
    "casez": "({0} & {1}) == {2}",   # ... with don't-care bits
}

#: the operators whose value is a Python truth value, not a number
TESTS = frozenset(list(_FMT)[list(_FMT).index("truth"):]) | {"any"}


def _at(e: Union[MemRead, MemStore], addr: str) -> str:
    """The word index of a memory access, *addr* printed."""
    return f"({addr}) % {e.depth}" if e.wrap else addr


def text(e: Expr, mem: str = "m[%d]") -> str:
    """*e* as Python; *mem* names a memory's word list by its index."""
    t = type(e)
    if t is Op:
        args = [text(a, mem) for a in e.args]
        if e.op == "any":      # case item: any of its matches
            return " or ".join(args)
        if e.op in ("min", "max"):
            return f"{e.op}({', '.join(args)})"
        if e.imm == (-1,) and e.op in ("+", "-", "*", "<<"):   # keeps all
            return f"(({args[0]}) {e.op} ({args[1]}))"
        if e.op == "rep":      # replication: imm = (count, width)
            count, w = e.imm
            return "(" + " | ".join(
                f"(({args[0]}) << {i * w})" for i in range(count)) + ")"
        return _FMT[e.op].format(*args, *e.imm)
    if t is Sig:
        return f"v[{e.index}]"
    if t is Const:
        return f"({e.value})" if e.folded else str(e.value)
    if t is Temp:
        return e.name
    return f"{mem % e.mem}[{_at(e, text(e.addr, mem))}]"


def map_expr(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """*e* rebuilt bottom-up through *fn*; untouched subtrees are shared."""
    t = type(e)
    if t is Op:
        args = [map_expr(a, fn) for a in e.args]
        for new, old in zip(args, e.args):
            if new is not old:
                e = Op(e.op, tuple(args), e.width, e.imm)
                break
    elif t is MemRead:
        addr = map_expr(e.addr, fn)
        if addr is not e.addr:
            e = e._replace(addr=addr)
    return fn(e)


def folding(values: dict[int, int]) -> Callable[[Expr], Expr]:
    """For :func:`rewrite`: reads of the signals in *values* become
    those constants (an unrolled loop's variable)."""
    def fold(e: Expr) -> Expr:
        if type(e) is Sig and e.index in values:
            return Const(values[e.index], e.width, folded=True)
        return e

    return fold


def leaves(e: Expr) -> Iterator[Expr]:
    """The reads (and constants) *e* is computed from."""
    t = type(e)
    if t is Op:
        for a in e.args:
            yield from leaves(a)
    elif t is MemRead:
        yield e
        yield from leaves(e.addr)
    else:
        yield e


@lru_cache(maxsize=256)
def _compiled(source: str):
    return compile(source, "<ir>", "eval")


def evaluate(e: Expr, state: Optional[dict] = None) -> Optional[int]:
    """The value of *e* if nothing in it reads state, else None: the
    value of its print, so by construction what the interpreter stores.
    With *state* — the names that print reads: ``v``, ``m`` and any
    locals — its value over that state (the print compiled once)."""
    if state is None:
        if type(e) is Const:
            return e.value
        if any(type(leaf) is not Const for leaf in leaves(e)):
            return None
    return eval(  # noqa: S307 - generated arithmetic over the given names
        text(e) if state is None else _compiled(text(e)),
        {} if state is None else state)


# -- statements -----------------------------------------------------------

#: how a store takes effect: at once, appended to the edge's ``nba`` /
#: ``nbm`` list, or (codegen's rewrite of an append) staged in a local
BLOCKING, NBA, STAGED = "=", "nba", "staged"


class Store(NamedTuple):
    """``v[index] = value`` (already narrowed to the signal's width)."""

    index: int
    value: Expr
    mode: str = BLOCKING
    EXPRS, SUITES = ("value",), ()


class BitStore(NamedTuple):
    """Bit ``bit`` of ``v[index]``; non-blocking, a partial NBA."""

    index: int
    bit: Expr
    value: Expr
    mode: str = BLOCKING
    EXPRS, SUITES = ("bit", "value"), ()


class SliceStore(NamedTuple):
    """``fmask`` bits of ``v[index]`` from ``lsb`` up; non-blocking, a
    partial NBA."""

    index: int
    lsb: int
    fmask: int
    value: Expr
    mode: str = BLOCKING
    EXPRS, SUITES = ("value",), ()


class MemStore(NamedTuple):
    """Word ``addr % depth`` of memory *mem* (``addr`` without *wrap*, as
    :class:`MemRead`); non-blocking, an NBM."""

    mem: int
    depth: int
    addr: Expr
    value: Expr
    mode: str = BLOCKING
    wrap: bool = True
    EXPRS, SUITES = ("addr", "value"), ()


class SetTemp(NamedTuple):
    name: str
    value: Expr
    EXPRS, SUITES = ("value",), ()


class If(NamedTuple):
    """*chain*: ``other`` is one ``If`` printed as ``elif`` (a case)."""

    cond: Expr
    then: Suite
    other: Optional[Suite] = None
    chain: bool = False
    EXPRS, SUITES = ("cond",), ("then", "other")


class Loop(NamedTuple):
    """A for-loop over signal *index*: ``v[index] = init & mask``, then
    *body* and ``v[index] = step & mask`` while *cond* holds."""

    index: int
    mask: int
    init: Expr
    cond: Expr
    step: Expr
    body: Suite
    EXPRS, SUITES = ("init", "cond", "step"), ("body",)


class Bits(NamedTuple):
    """Codegen's lowering of a loop that acts only on the set bits of
    *word*: *body* once per set bit, lowest first, with the bit's
    position in the local *name* (and what is left of the word in
    ``<name>_w``)."""

    name: str
    word: Expr
    body: Suite
    EXPRS, SUITES = ("word",), ("body",)


class Cover(NamedTuple):
    """Statement-coverage counter: ``v[index] += 1``.  Its own kind, and
    in neither :func:`reads` nor :func:`writes`: no pass can schedule
    around it, fold it or move it, so every backend counts alike."""

    index: int
    EXPRS, SUITES = (), ()


class Pass(NamedTuple):
    EXPRS, SUITES = (), ()


Stmt = Union[Store, BitStore, SliceStore, MemStore, SetTemp, If, Loop,
             Bits, Cover, Pass]
Suite = tuple[Stmt, ...]


def walk(stmts: Sequence[Stmt]) -> Iterator[Stmt]:
    """Every statement of *stmts*, nested ones included, in print order."""
    for s in stmts:
        yield s
        for name in s.SUITES:
            yield from walk(getattr(s, name) or ())


def operands(stmts: Sequence[Stmt]) -> Iterator[Expr]:
    """The :func:`leaves` of every expression under *stmts*."""
    for s in walk(stmts):
        for name in s.EXPRS:
            yield from leaves(getattr(s, name))


def reads(stmts: Sequence[Stmt]) -> frozenset[int]:
    """Signals *stmts* sample: every :class:`Sig`, the target of a
    blocking bit/part-select store (read-modify-write) and a loop's
    variable.  Coverage counters are in neither set, by rule."""
    out = {leaf.index for leaf in operands(stmts) if type(leaf) is Sig}
    for s in walk(stmts):
        t = type(s)
        if t is Loop or (t in (BitStore, SliceStore) and s.mode == BLOCKING):
            out.add(s.index)
    return frozenset(out)


def writes(stmts: Sequence[Stmt]) -> frozenset[int]:
    """Signals *stmts* assign, blocking or not (memories are not signals)."""
    return frozenset(
        s.index for s in walk(stmts)
        if type(s) in (Store, BitStore, SliceStore, Loop)
    )


def rewrite(
    stmts: Sequence[Stmt],
    expr: Optional[Callable[[Expr], Expr]] = None,
    stmt: Optional[Callable[[Stmt], Sequence[Stmt]]] = None,
) -> Suite:
    """*stmts* rebuilt bottom-up: every expression node through *expr*
    (see :func:`map_expr`), then every statement through *stmt*, which
    returns what stands in its place — one statement may become many."""
    out: list[Stmt] = []
    for s in stmts:
        changed = {}
        if expr is not None:
            for name in s.EXPRS:
                old = getattr(s, name)
                new = map_expr(old, expr)
                if new is not old:
                    changed[name] = new
        for name in s.SUITES:
            old = getattr(s, name)
            if old is not None:
                new = rewrite(old, expr, stmt)
                if new != old:
                    changed[name] = new
        if changed:
            s = s._replace(**changed)
        if stmt is None:
            out.append(s)
        else:
            out.extend(stmt(s))
    return tuple(out)


#: Python line of each simple statement, by (kind, mode): its fields by
#: name, expressions printed; ``{words}`` a memory's word list, ``{at}``
#: the word index and ``{smask}`` a part-select's mask in place
_LINE = {
    (Store, BLOCKING): "v[{index}] = {value}",
    (Store, NBA): "nba.append(({index}, {value}))",
    (Store, STAGED): "_r{index} = {value}",
    (BitStore, BLOCKING): "v[{index}] = ((v[{index}] & ~(1 << ({bit}))) | "
                          "((({value}) & 1) << ({bit})))",
    (BitStore, NBA): "nba.append(({index}, (({value}) & 1) << ({bit}), "
                     "1 << ({bit})))",
    (SliceStore, BLOCKING): "v[{index}] = ((v[{index}] & ~{smask}) | "
                            "((({value}) & {fmask}) << {lsb}))",
    (SliceStore, NBA): "nba.append(({index}, (({value}) & {fmask}) << {lsb}, "
                       "{smask}))",
    (MemStore, BLOCKING): "{words}[{at}] = {value}",
    (MemStore, NBA): "nbm.append(({mem}, {at}, {value}))",
    (MemStore, STAGED): "_nbm{mem}.append(({at}, {value}))",
    (SetTemp, BLOCKING): "{name} = {value}",
    (Cover, BLOCKING): "v[{index}] = v[{index}] + 1",
    (Pass, BLOCKING): "pass",
}


def render(stmts: Sequence[Stmt], depth: int = 1,
           mem: str = "m[%d]") -> list[str]:
    """The printer: *stmts* as Python lines indented *depth* levels."""
    out: list[str] = []

    def suite(stmts: Sequence[Stmt], pad: str) -> None:
        if not stmts:
            out.append(pad + "pass")
        for s in stmts:
            t = type(s)
            if t is If:
                kw = "if"
                while True:
                    out.append(f"{pad}{kw} {text(s.cond, mem)}:")
                    suite(s.then, pad + "    ")
                    if not s.chain:
                        break
                    s, kw = s.other[0], "elif"
                if s.other is not None:
                    out.append(pad + "else:")
                    suite(s.other, pad + "    ")
            elif t is Loop:
                i = s.index
                out.append(f"{pad}v[{i}] = ({text(s.init, mem)}) & {s.mask}")
                out.append(f"{pad}while {text(s.cond, mem)}:")
                suite(s.body, pad + "    ")
                out.append(
                    f"{pad}    v[{i}] = ({text(s.step, mem)}) & {s.mask}")
            elif t is Bits:
                k, w = s.name, s.name + "_w"
                out.append(f"{pad}{w} = {text(s.word, mem)}")
                out.append(f"{pad}while {w}:")
                out.append(f"{pad}    {k} = ({w} & -{w}).bit_length() - 1")
                out.append(f"{pad}    {w} &= {w} - 1")
                suite(s.body, pad + "    ")
            else:
                f = s._asdict()
                for name in s.EXPRS:
                    f[name] = text(f[name], mem)
                if t is SliceStore:
                    f["smask"] = s.fmask << s.lsb
                elif t is MemStore:
                    f["words"] = mem % s.mem
                    f["at"] = _at(s, f["addr"])
                out.append(
                    pad + _LINE[t, f.get("mode", BLOCKING)].format(**f))

    suite(stmts, "    " * depth)
    return out


def compile_fn(stmts: Sequence[Stmt], params: str) -> Callable:
    """The interpreter's function for a body: ``def _f(<params>)`` over
    the plain print of *stmts* — the reference both backends answer to."""
    namespace: dict = {}
    source = f"def _f({params}):\n" + "\n".join(render(stmts))
    exec(source, namespace)  # noqa: S102 - compiling our own generated code
    return namespace["_f"]
