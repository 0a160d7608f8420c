"""Codegen execution backend: fuse RTL processes into generated code.

The interpreter backend evaluates one small Python function per process
per cycle — faithful, but call dispatch and non-blocking-assignment
staging dominate runtime for real designs.  Following GSIM/Manticore's
static scheduling, this module fuses the *levelized* combinational
order and all sync processes into two functions compiled once per
design: ``settle(v, m)``, the combinational netlist as straight-line
code, and ``tick_batch(v, m, n)``, ``n`` full clock cycles (posedge
sample, NBA/NBM commit, settle, negedge section) in one loop.

Processes elaborated from HDL carry their body as a tree
(:attr:`~repro.rtl.kernel.CombProcess.body`, :mod:`repro.rtl.ir`), signal
indices and masks already constants in it.  Each body is lowered tree
to tree, once (:func:`_lowered`), and its print inlined at every depth:

* (a) **set bits** — a literal-bound for-loop whose body is one ``if``
  without ``else``, guarded by a conjunction of ``sig[i]`` bits of
  signals the body does not write, visits the set bits of one word AND
  (masked to the iteration range), lowest first.  A ``Cover``, a
  blocking store, an ``else`` or a guard term free of the variable
  refuses it; such a loop unrolls, the variable a constant per copy;
* (b) **truth and bits** — a 0/1 wrapper is dropped wherever Python
  truth suffices; a mask, slice or bit-select that cannot change its
  operand (its width says so) is dropped, double masks merge, and a
  memory index provably below the depth loses its modulo;
* (d) **memory NBAs** append ``(addr, value)`` to a per-edge list
  committed in order (last write wins), unless (h); full-register NBAs
  stage in locals committed after sampling;
* (e) a staged register assigned on every path commits without a
  sentinel test;
* (f) the struct exchange does not call an empty ``settle``;
* (g) **held pins** — in a replay (below), every read of a module input
  the replay holds is its value, an operator over constants is the
  constant, and an ``if`` on a constant is its live branch, before
  staging is decided: a store only in a dead branch stages nothing;
* (h) **in-place memory NBAs** — a memory whose staged stores in an edge
  section no read of it can follow on any path is stored in place
  (``_m0[k] = x``).  Two constant indices that differ are disjoint, and
  so are the words a set-bit loop's variable names in two iterations;
* (i) **runs** — in a replay, a held cycle whose stores add a constant
  to a memory word once a step (a *counter*) or store what every step
  stores, and whose tests of counters can only turn true as they grow,
  is one step over a run of ``n`` equal input words, counters stored
  ``x + k*n``, if ``n`` is within a bound: the steps before a test could
  turn true or a counter wrap.  The bound at a worst-case word of the
  varied input is a lagging model's horizon (:class:`_Run`).

Memory base lists are hoisted into locals (``_m0 = m[0]``).  A register
taking *partial* NBAs keeps the ordered ``nba`` list, and a handwritten
process (no body) is called, staging through ``nba``/``nbm``.  The
differential suite (``tests/rtl/test_differential.py``) holds codegen to
the interpreter's plain print, and each rewrite is checked on its own
(:data:`REWRITE_HOOK`, ``tests/rtl/test_lowering_checked.py``).

For the bridge, :func:`build_exchange` generates a shared-library
wrapper's struct exchange (the assignments a Verilator wrapper makes
around ``eval()``), and :func:`build_replay` the cycles a model that
lagged behind the event queue owes, on runs of one input slot's values
or with the inputs held: the cycle text again, folded (g), a run one
step (i), one text per tuple of held values, built on first use.

Designs that need the iterative fixpoint fallback (word-level comb
cycles) are *not* codegen-eligible —
:class:`~repro.rtl.simulator.RTLSimulator` falls back to the interpreter
for them automatically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

from . import ir
from .kernel import CombProcess, Edge, RTLModule, SyncProcess

_Proc = Union[CombProcess, SyncProcess]

_MAX_UNROLL_ITERS = 64
_MAX_UNROLL_LINES = 20_000

#: Test hook, not an option: when set, every rewrite a lowering makes is
#: reported as ``REWRITE_HOOK(old, new, how)``.  *how* is ``"value"`` or
#: ``"truth"`` for two expressions that must agree as numbers or as
#: Python truth values wherever the first stood, ``"stmt"`` for a
#: statement or body and the suite that stands in its place.
REWRITE_HOOK: Optional[Callable[[object, object, str], None]] = None


def _report(old, new, how: str) -> None:
    if REWRITE_HOOK is not None:
        REWRITE_HOOK(old, new, how)


# -- (b) truth and bits ---------------------------------------------------


def _bits(e: ir.Expr) -> Optional[int]:
    """How many low bits of *e*'s value can be set; None for a truth
    value.  A signal or memory word never holds more than its width,
    and every node's width bounds its value (the elaborator narrows a
    store on exactly that rule)."""
    t = type(e)
    if t is ir.Const:
        return e.value.bit_length() if e.value >= 0 else None
    if t is ir.Op and e.op in ir.TESTS:
        return None
    return e.width


def _ones(mask: int) -> bool:
    """*mask* is ``2**n - 1``."""
    return not mask & (mask + 1)


def _fits(e: ir.Expr, mask: int) -> bool:
    """``e & mask == e`` for every value *e* can take."""
    bits = _bits(e)
    return _ones(mask) and bits is not None and bits <= mask.bit_length()


def _inside(access: Union[ir.MemRead, ir.MemStore]) -> bool:
    """A memory access whose index is always below the depth."""
    if type(access.addr) is ir.Const:
        return 0 <= access.addr.value < access.depth
    bits = _bits(access.addr)
    return bits is not None and 1 << bits <= access.depth


def _truth(e: ir.Expr) -> ir.Expr:
    """*e* where only its Python truth is used: without a 0/1 wrapper."""
    if type(e) is ir.Op and e.op in ("bool", "nbool"):
        x = e.args[0]
        if e.op == "bool":
            return x
        if type(x) is ir.Op and x.op == "not":
            return x.args[0]
        return ir.Op("not", (x,), 1)
    return e


def _simpler(e: ir.Expr) -> ir.Expr:
    t = type(e)
    if t is ir.MemRead:
        return e._replace(wrap=False) if e.wrap and _inside(e) else e
    if t is not ir.Op:
        return e
    op, args = e.op, e.args
    if op in ("and", "or", "?:"):
        n = 1 if op == "?:" else 2
        new = tuple(_truth(a) for a in args[:n]) + args[n:]
        if any(a is not b for a, b in zip(new, args)):
            return e._replace(args=new)
    elif op in ("bool", "nbool"):
        x = _truth(args[0])
        if type(x) is ir.Op and x.op == "not":
            x, op = x.args[0], "nbool" if op == "bool" else "bool"
        if op == "bool" and _fits(x, 1):
            return x
        if x is not args[0] or op != e.op:
            return ir.Op(op, (x,), 1)
    elif op == "mask" or op == "slice" and not e.imm[0]:
        x, mask = args[0], e.imm[-1]
        if type(x) is ir.Op and x.op == "mask":
            x, mask = x.args[0], mask & x.imm[0]
        if _fits(x, mask):
            return x
        if op == "slice" or x is not args[0]:
            return ir.Op("mask", (x,), e.width, (mask,))
    elif op == "slice":
        x, (shift, mask) = args[0], e.imm
        bits = _bits(x)
        if _ones(mask) and bits is not None \
                and bits - shift <= mask.bit_length():
            return ir.Op(">>", (x, ir.Const(shift, 32)), e.width)
    elif op == "bit" and type(args[1]) is ir.Const:
        bits = _bits(args[0])
        if bits is not None and bits <= args[1].value + 1:
            return ir.Op(">>", args, 1) if args[1].value else args[0]
    elif op == "&":
        for x, c in (args, args[::-1]):
            if type(c) is ir.Const and _fits(x, c.value):
                return x
    return e


def _simplify(e: ir.Expr) -> ir.Expr:
    """(b) as an ``Expr -> Expr`` pass for :func:`ir.rewrite` (bottom-up,
    so an operand is already as simple as it gets)."""
    new = _simpler(e)
    if new is not e:
        test = type(e) is ir.Op and e.op in ir.TESTS
        _report(e, new, "truth" if test else "value")
    return new


# -- (a) set bits, and the unroll it stands beside ------------------------


def _lower(s: ir.Stmt) -> ir.Suite:
    """Per-statement lowering of a body on its way into the fused
    program: a condition is tested for its truth, a memory store inside
    its memory loses the modulo (b), and a literal-bound loop iterates
    set bits (a) or unrolls (:func:`_unroll`)."""
    t = type(s)
    if t is ir.If or t is ir.Loop:
        cond = _truth(s.cond)
        if cond is not s.cond:
            _report(s.cond, cond, "truth")
            s = s._replace(cond=cond)
    elif t is ir.MemStore and s.wrap and _inside(s):
        read = ir.MemRead(s.mem, s.depth, s.addr, s.value.width)
        _report(read, read._replace(wrap=False), "value")
        s = s._replace(wrap=False)
    return _unroll(s) if t is ir.Loop else (s,)


def _word(sigs: Sequence[ir.Sig], ks: Sequence[int]) -> ir.Expr:
    """The iterations of a set-bit loop: the AND of the guard's signals,
    masked to the bits the loop variable visits."""
    word = sigs[0]
    for sig in sigs[1:]:
        word = ir.Op("&", (word, sig), min(word.width, sig.width))
    span = sum(1 << k for k in ks)
    return _simplify(ir.Op("&", (word, ir.Const(span, span.bit_length())),
                           min(word.width, span.bit_length())))


def _set_bits(loop: ir.Loop, ks: Sequence[int]) -> Optional[ir.Suite]:
    """(a): *loop*, whose variable takes the values *ks*, as one
    :class:`ir.Bits` loop over the set bits of its guard, or None."""
    var, body = loop.index, loop.body
    if len(body) != 1 or type(body[0]) is not ir.If \
            or body[0].other is not None or ks[-1] >= 1 << 10:
        return None
    guard = body[0]
    for s in ir.walk(guard.then):
        t = type(s)
        if t in (ir.Cover, ir.Loop, ir.Bits) \
                or getattr(s, "mode", ir.NBA) == ir.BLOCKING:
            return None
    terms, sigs = [guard.cond], []
    while terms:
        term = terms.pop()
        if type(term) is not ir.Op:
            return None
        if term.op == "and":
            terms += term.args[::-1]
            continue
        x, at = (term.args + (None,))[:2]
        if term.op != "bit" or type(x) is not ir.Sig \
                or type(at) is not ir.Sig or at.index != var:
            return None
        sigs.append(x)
    if {x.index for x in sigs} & (ir.writes(body) | {var}):
        return None
    k = ir.Temp(f"_k{var}", loop.init.width)

    def local(e: ir.Expr) -> ir.Expr:
        if type(e) is ir.Sig and e.index == var:
            return k
        if type(e) is ir.MemRead and e.addr == k and ks[-1] < e.depth:
            return e._replace(wrap=False)
        return e

    def store(s: ir.Stmt) -> ir.Suite:
        if type(s) is ir.MemStore and s.addr == k and ks[-1] < s.depth:
            s = s._replace(wrap=False)
        return (s,)

    then = ir.rewrite(guard.then, expr=local, stmt=store)
    return (ir.Bits(k.name, _word(sigs, ks), then),)


def _unroll(loop: ir.Loop) -> ir.Suite:
    """A literal-bound for-loop (a Verilog/VHDL ``for (i = K; i < N;
    i = i + S)``) as set-bit iteration (:func:`_set_bits`) or unrolled,
    each copy's variable reads its constant (CPython's AST optimizer then
    folds indexing and shifts).  Either way the loop signal's final value
    is stored once at the end: it is state the differential suite checks.
    """
    var, init, cond, step = loop.index, loop.init, loop.cond, loop.step

    def is_var(e: ir.Expr) -> bool:
        return type(e) is ir.Sig and e.index == var

    if not (
        type(init) is ir.Const
        and type(cond) is ir.Op and cond.op in ("<", "<=")
        and is_var(cond.args[0]) and type(cond.args[1]) is ir.Const
        and type(step) is ir.Op and step.op == "+"
        and is_var(step.args[0]) and type(step.args[1]) is ir.Const
    ) or var in ir.writes(loop.body):
        return (loop,)
    # simulate the loop counter
    limit, inc = cond.args[1].value, step.args[1].value
    ks: list[int] = []
    k = init.value & loop.mask
    while (k <= limit) if cond.op == "<=" else (k < limit):
        ks.append(k)
        k = ((k + inc) & step.imm[0]) & loop.mask
        if len(ks) > _MAX_UNROLL_ITERS or k <= ks[-1]:
            return (loop,)
    done = ir.Store(var, ir.Const(k, init.width))
    if not ks:
        return (done,)
    bits = _set_bits(loop, ks)
    if bits is not None:
        _report(loop, bits + (done,), "stmt")
        return bits + (done,)

    decide = _deciding(lambda e: e)
    out: list[ir.Stmt] = []
    for kval in ks:
        # a nested loop bounded by this variable is literal-bound now,
        # and a test the constant decides goes, as a held pin's does (g)
        fold = ir.folding({var: kval})
        out.extend(ir.rewrite(
            loop.body, expr=lambda e: decide(_simplify(fold(e))),
            stmt=lambda s: [x for t in _lower(s) for x in _live(t)]))
    out.append(done)
    if len(ir.render(out)) > _MAX_UNROLL_LINES:
        return (loop,)
    return tuple(out)


@lru_cache(maxsize=1024)
def _lowered(body: ir.Suite,
             list_regs: Optional[frozenset[int]]) -> ir.Suite:
    """*body* as it enters the fused program: with *list_regs* (a staged
    section's registers that keep the ordered list) every other NBA is
    staged, then every expression and statement is lowered.  A pure
    function of the tree, so — like :func:`_compile` — shared by every
    program a rig or sweep builds from one design; bounded."""
    def stage(s: ir.Stmt) -> ir.Suite:
        if (
            type(s) is ir.Store and s.index not in list_regs
            or type(s) is ir.MemStore
        ) and s.mode == ir.NBA:
            s = s._replace(mode=ir.STAGED)
        return _lower(s)

    return ir.rewrite(body, expr=_simplify,
                      stmt=_lower if list_regs is None else stage)


@lru_cache(maxsize=64)
def _compile(source: str, filename: str):
    """``compile()`` once per process per generated text: a rig or a DSE
    point rebuilds one design to byte-identical source, and a code object
    is immutable, each program ``exec``-ing it into its own namespace.
    Keyed by the text, so two parameterisations cannot meet; bounded, as
    ``repro serve`` is long-lived."""
    return compile(source, filename, "exec")


# -- (g) fold held pins ---------------------------------------------------

#: a shift wider than this is left to run time: folding it would build
#: the number even where only a dead branch computes it
_MAX_FOLD_SHIFT = 1 << 12


def _decided(e: ir.Expr) -> ir.Expr:
    """One node whose operands are folded: an operator over constants is
    the constant its print computes, and an ``and`` with a zero operand
    is zero."""
    if type(e) is ir.Op and e.op == "and" \
            and any(type(a) is ir.Const and not a.value for a in e.args):
        return ir.Const(0, e.width)
    if type(e) is not ir.Op or any(type(a) is not ir.Const for a in e.args) \
            or e.op == "<<" and e.args[1].value > _MAX_FOLD_SHIFT:
        return e
    value = int(ir.evaluate(e))
    return ir.Const(value, e.width, folded=value < 0)


def _deciding(fold: Callable[[ir.Expr], ir.Expr]):
    """For :func:`ir.rewrite`: *fold*, then :func:`_decided`, each
    change reported."""
    def expr(e: ir.Expr) -> ir.Expr:
        new = _decided(fold(e))
        if new is not e:
            test = type(e) is ir.Op and e.op in ir.TESTS
            _report(e, new, "truth" if test else "value")
        return new

    return expr


def _live(s: ir.Stmt) -> ir.Suite:
    """One statement whose parts are folded: an ``if`` on a constant is
    its live branch, and an ``elif`` chain whose next link went stays a
    plain ``else``."""
    if type(s) is not ir.If:
        return (s,)
    if type(s.cond) is ir.Const:
        live = s.then if s.cond.value else s.other or ()
        _report(s, live, "stmt")
        return live
    other = s.other or None
    chain = s.chain and other is not None and len(other) == 1 \
        and type(other[0]) is ir.If
    if (other, chain) != (s.other, s.chain):
        new = s._replace(other=other, chain=chain)
        _report(s, (new,), "stmt")
        return (new,)
    return (s,)


@lru_cache(maxsize=1024)
def _held(body: ir.Suite, held: tuple[tuple[int, int], ...]) -> ir.Suite:
    """(g): *body* with each signal of *held* (``(index, value)`` pairs)
    read as its value, and every ``if`` that then decides on a constant
    cut to its live branch; bounded, as :func:`_lowered`."""
    if not held:
        return body
    return ir.rewrite(body, expr=_deciding(ir.folding(dict(held))),
                      stmt=_live)


# -- (h) in-place memory NBAs ---------------------------------------------


def _where(access: Union[ir.MemRead, ir.MemStore],
           loops: frozenset[str]) -> object:
    """The word *access* touches, as far as the text says: its index for
    a constant address, the name of an enclosing set-bit loop's variable
    (a word no other iteration touches), else None."""
    addr = access.addr
    if type(addr) is ir.Const:
        return addr.value % access.depth if access.wrap else addr.value
    if type(addr) is ir.Temp and addr.name in loops and not access.wrap:
        return addr.name
    return None


def _disjoint(read: object, stored: object) -> bool:
    """A read of word *read* cannot see a store to word *stored*
    (``(name,)``: a store in an earlier iteration of loop *name*)."""
    if type(read) is int and type(stored) is int:
        return read != stored
    return type(stored) is tuple and stored[0] == read


def _unseen(exprs: Sequence[ir.Expr], mem: int, stored: frozenset,
            loops: frozenset[str]) -> bool:
    """No read of memory *mem* in *exprs* can see a word of *stored*."""
    return all(
        _disjoint(_where(leaf, loops), w)
        for e in exprs for leaf in ir.leaves(e)
        if type(leaf) is ir.MemRead and leaf.mem == mem
        for w in stored
    )


def _stored(stmts: Sequence[ir.Stmt], mem: int, stored: frozenset,
            loops: frozenset[str]) -> Optional[frozenset]:
    """The words of memory *mem* that staged stores may have written once
    *stmts* have run, *stored* written before them; None if a read of
    *mem* in them can follow one of those stores (or a store to it does
    not stage)."""
    for s in stmts:
        t = type(s)
        if not _unseen([getattr(s, name) for name in s.EXPRS],
                       mem, stored, loops):
            return None
        if t is ir.MemStore and s.mem == mem:
            if s.mode != ir.STAGED:
                return None
            stored = stored | {_where(s, loops)}
        elif t is ir.If:
            then = _stored(s.then, mem, stored, loops)
            other = _stored(s.other or (), mem, stored, loops)
            if then is None or other is None:
                return None
            stored = then | other
        elif t is ir.Bits:
            # once, then again after itself: a word the variable named
            # in one iteration is no other iteration's
            inner = loops | {s.name}
            once = _stored(s.body, mem, stored, inner)
            if once is None:
                return None
            again = _stored(s.body, mem, frozenset(
                (w,) if w == s.name else w for w in once), inner)
            if again is None:
                return None
            stored = frozenset(
                None if w in (s.name, (s.name,)) else w for w in again)
        elif t is ir.Loop and any(
                type(x) in (ir.MemRead, ir.MemStore) and x.mem == mem
                for x in (*ir.walk(s.body), *ir.operands(s.body))):
            return None   # a loop not unrolled: not followed through
    return stored


def _in_place(bodies: Sequence[ir.Suite]) -> frozenset[int]:
    """(h): the memories whose staged stores in one edge section (its
    bodies lowered, in emission order) no read of them can follow on any
    path: written in place, they need no list and no commit."""
    section = tuple(s for body in bodies for s in body)
    mems = {s.mem for s in ir.walk(section)
            if type(s) is ir.MemStore and s.mode == ir.STAGED}
    return frozenset(mi for mi in mems
                     if _stored(section, mi, frozenset(), frozenset())
                     is not None)


def _stores_in_place(body: ir.Suite, mems: frozenset[int]) -> ir.Suite:
    """*body* with the staged stores to *mems* made in place."""
    def stmt(s: ir.Stmt) -> ir.Suite:
        if type(s) is ir.MemStore and s.mem in mems \
                and s.mode == ir.STAGED:
            new = s._replace(mode=ir.BLOCKING)
            _report(s, (new,), "stmt")
            return (new,)
        return (s,)

    return ir.rewrite(body, stmt=stmt) if mems else body


# -- the fused text -------------------------------------------------------


#: a process in the fused text: its body, or (handwritten, no body) the
#: name its function is bound under in the program's namespace
_Part = Union[ir.Suite, str]


class _Design(NamedTuple):
    """What a program's text is a pure function of, hashable: the
    levelized comb processes and each edge's sync processes, in the
    order the cycle runs them, and the number of memories."""

    comb: tuple[_Part, ...]
    pos: tuple[_Part, ...]
    neg: tuple[_Part, ...]
    nmem: int


class _Text:
    """Lines of fused source; *held* (``(index, value)`` pairs) the
    module inputs every body is folded on (g)."""

    def __init__(self, design: _Design,
                 held: tuple[tuple[int, int], ...] = ()) -> None:
        self.design = design
        self.held = held
        self.lines: list[str] = []
        #: (i): the trees emitted, ``"commit"`` ending a staged section,
        #: ``"call"`` a handwritten process or ``nba`` list; and swaps
        self.trees, self.swap = [], {}

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def emit_body(self, tree: ir.Suite, depth: int) -> None:
        self.trees.append(tree)
        self.lines.extend(ir.render(self.swap.get(tree, tree), depth, "_m%d"))

    def emit_prologue(self, depth: int) -> None:
        """Hoist memory base lists (and the sentinel) into locals."""
        self.emit("_sent = _S", depth)
        for mi in range(self.design.nmem):
            self.emit(f"_m{mi} = m[{mi}]", depth)

    def emit_part(self, part: _Part, args: str, depth: int) -> None:
        """Inline a body, lowered, or call a handwritten process's
        function with *args*."""
        if type(part) is str:
            self.trees.append("call")
            self.emit(f"{part}{args}", depth)
        else:
            self.emit_body(_lowered(part, None), depth)

    def emit_comb(self, depth: int) -> None:
        for part in self.design.comb:
            self.emit_part(self.fold(part), "(v, m)", depth)

    def fold(self, part: _Part) -> _Part:
        return part if type(part) is str else _held(part, self.held)

    def emit_cycle(self, depth: int) -> None:
        """One clock cycle: posedge section, settle, negedge section and
        settle again."""
        design = self.design
        if not (design.pos or design.neg or design.comb):
            self.emit("pass", depth)
        if design.pos:
            self.emit_sync_section(design.pos, depth)
        self.emit_comb(depth)
        if design.neg:
            self.emit_sync_section(design.neg, depth)
            self.emit_comb(depth)

    # -- clock-edge sections ---------------------------------------------

    def emit_sync_section(self, parts: Sequence[_Part], depth: int) -> None:
        """One edge: sample all procs, commit NBAs/NBMs — staged when
        every process has a body, through ``nba``/``nbm`` when not."""
        parts = [self.fold(part) for part in parts]
        if all(type(part) is not str for part in parts):
            self._emit_staged_section(parts, depth)
            return
        self.emit("nba = []", depth)
        self.emit("nbm = []", depth)
        for part in parts:
            self.emit_part(part, "(v, m, nba, nbm)", depth)
        self._emit_list_apply(depth, regs=None)

    def _emit_list_apply(self, depth: int, regs) -> None:
        """The ordered apply of an ``nba`` list (3-tuples: masked partial
        writes, merged in order) and, without *regs* (a staged section's
        list registers), of ``nbm``."""
        self.emit("for _e in nba:", depth)
        self.emit("if len(_e) == 2:", depth + 1)
        self.emit("v[_e[0]] = _e[1]", depth + 2)
        self.emit("else:", depth + 1)
        self.emit("v[_e[0]] = (v[_e[0]] & ~_e[2]) | (_e[1] & _e[2])", depth + 2)
        if regs is None:
            self.emit("for _me in nbm:", depth)
            self.emit("m[_me[0]][_me[1]] = _me[2]", depth + 1)

    def _emit_staged_section(
        self, bodies: Sequence[ir.Suite], depth: int
    ) -> None:
        list_regs = _list_regs(bodies)
        staged_regs = sorted({
            s.index for body in bodies for s in ir.walk(body)
            if type(s) is ir.Store and s.mode == ir.NBA
        } - list_regs)
        lowered = [_lowered(body, list_regs) for body in bodies]
        in_place = _in_place(lowered)
        mems = sorted({s.mem for body in bodies for s in ir.walk(body)
                       if type(s) is ir.MemStore and s.mode == ir.NBA}
                      - in_place)
        # (e) a register some process assigns on every path needs no
        # sentinel: its local is set before the commit in every cycle
        always = {idx for idx in staged_regs
                  if any(_always(body, idx) for body in bodies)}
        if list_regs:
            self.trees.append("call")
            self.emit("nba = []", depth)
        for idx in staged_regs:
            if idx not in always:
                self.emit(f"_r{idx} = _sent", depth)
        for mi in mems:
            self.emit(f"_nbm{mi} = []", depth)
        for tree in lowered:
            self.emit_body(_stores_in_place(tree, in_place), depth)
        self.trees.append("commit")

        # Commit: the groups are disjoint, so their order is free;
        # within each group program order is kept.
        if list_regs:
            self._emit_list_apply(depth, regs=list_regs)
        for idx in staged_regs:
            if idx in always:
                self.emit(f"v[{idx}] = _r{idx}", depth)
                continue
            self.emit(f"if _r{idx} is not _sent:", depth)
            self.emit(f"v[{idx}] = _r{idx}", depth + 1)
        for mi in mems:
            self.emit(f"for _a, _x in _nbm{mi}:", depth)
            self.emit(f"_m{mi}[_a] = _x", depth + 1)


def _list_regs(bodies: Sequence[ir.Suite]) -> frozenset[int]:
    """The registers of one edge's staged section that keep the ordered
    ``nba`` list: those taking a partial (bit/part-select) NBA."""
    return frozenset(
        s.index for body in bodies for s in ir.walk(body)
        if type(s) in (ir.BitStore, ir.SliceStore) and s.mode == ir.NBA
    )


def _always(stmts: Sequence[ir.Stmt], idx: int) -> bool:
    """Whether every path through *stmts* stores all of signal *idx*
    non-blocking (a loop may not run: it does not count)."""
    for s in stmts:
        if type(s) is ir.Store and s.index == idx and s.mode == ir.NBA:
            return True
        if type(s) is ir.If and s.other is not None \
                and _always(s.then, idx) and _always(s.other, idx):
            return True
    return False


# -- (i) a run of equal input words, one step --------------------------

#: the run's length, as the step's text reads it; the steps a run may
#: take, as its run test and the horizon read it, and no bound on them
_N = ir.Temp("_n", 32)
_B = ir.Temp("_b", 64)
_NONE = ir.Const(1 << 64, 65)


class _Run:
    """(i) on a held cycle's :attr:`_Text.trees`, where ``ok``: ``check``
    sets ``_b``, the steps a run may take (:meth:`bound`); ``swap``: each
    tree as the step.  Where ``tapped``, the *free* input is read only
    as an AND factor of set-bit loops' words, and no loop stores but a
    counter: ``check`` over a word bounds every word with fewer bits."""

    def __init__(self, trees: list, free: frozenset = frozenset()) -> None:
        flat = tuple(s for t in trees if type(t) is tuple for s in t)
        self.written = ir.writes(flat)
        self.mems = {s.mem for s in ir.walk(flat) if type(s) is ir.MemStore}
        self.defined, self.staged, self.temps = set(), set(), set()
        self.loops, self.stored = [], {}   # key -> the words counted
        #: counter read -> (k, store value); value -> read; the tests of
        #: counters (their live branch the else)
        self.counters, self.sums, self.tests = {}, {}, set()
        self.tapped = True   # until a loop stores other than a counter
        self.ok = "call" not in trees and all(map(self.suite, trees))
        if self.ok:
            self.check = (ir.SetTemp("_b", _NONE),) \
                + ir.rewrite(flat, stmt=self.bound)
            self.swap = {t: ir.rewrite(t, stmt=self.step)
                         for t in trees if type(t) is tuple}
        if self.ok:
            _report(flat, self.check + ir.rewrite(flat, stmt=self.step),
                    "stmt")
        # (a) builds a word as the AND of its guard's signals
        reads = [x for x in ir.operands(flat)
                 if type(x) is ir.Sig and x.index in free]
        self.tapped &= self.ok and len(reads) == sum(
            x in reads for s in ir.walk(flat) if type(s) is ir.Bits
            for x in ir.leaves(s.word))

    def fixed(self, e: ir.Expr, strict: bool = False) -> bool:
        """*e* reads the same at every step (*strict*: before it too)."""
        return all(
            (type(x) is not ir.Sig or x.index not in self.written
             or not strict and x.index in self.defined)
            and (type(x) is not ir.MemRead or x.mem not in self.mems)
            and (type(x) is not ir.Temp or x.name in self.temps)
            or strict and x in self.counters for x in ir.leaves(e))

    def suite(self, stmts) -> bool:   # or a section's "commit"
        if stmts == "commit":
            self.defined |= self.staged
        for s in stmts if type(stmts) is tuple else ():
            t = type(s)
            if t is ir.If and not self.fixed(s.cond):
                # a test of counters (:meth:`first`) before their stores
                self.tests.add(s.cond)
                if any(x in self.counters for x in ir.leaves(s.cond)) \
                        or not self.suite(s.other or ()):
                    return False
            elif t is ir.Bits and self.fixed(s.word):
                self.temps.add(s.name)
                self.loops.append(s.name)
                if not self.suite(s.body):
                    return False
                self.loops.pop()
            elif not (t is ir.If and self.suite(s.then)
                      and self.suite(s.other or ()) or t is ir.Pass
                      or t is ir.SetTemp and self.fixed(s.value)
                      and not self.temps.add(s.name)
                      or t in (ir.Store, ir.MemStore) and self.store(s)):
                return False
        return True

    def store(self, s: Union[ir.Store, ir.MemStore]) -> bool:
        mem, v = type(s) is ir.MemStore, s.value
        key = ("m", s.mem) if mem else s.index
        got = self.stored.get(key)   # the words counted; False: none
        if not got and self.fixed(v) and (not mem or self.fixed(s.addr)):
            self.stored[key] = False
            self.tapped &= not self.loops
            if not mem:
                (self.staged if s.mode == ir.STAGED else self.defined).add(
                    s.index)
            return True
        # a counter: x + k, k > 0, to a word no other store takes this step
        x = v.args[0] if type(v) is ir.Op and v.op == "+" \
            and type(v.args[1]) is ir.Const and v.args[1].value > 0 else None
        if not mem or got is False or type(x) is not ir.MemRead \
                or (x.mem, x.addr, x.wrap) != (s.mem, s.addr, s.wrap) \
                or not self.fixed(s.addr):
            return False
        word = _where(s, frozenset())
        if got and (word is None or None in got or word in got) \
                or self.loops != [getattr(s.addr, "name", None)] \
                and (self.loops or word is None):
            return False
        self.stored[key] = (got or frozenset()) | {word}
        self.counters[x], self.sums[v] = (v.args[1].value, v), x
        return True

    def first(self, e: ir.Expr) -> Optional[ir.Expr]:
        """The first step test *e* can hold at, if it compares counters
        ``>``/``>=`` fixed state under ``and`` (the last of its rising
        terms'; never for a fixed term false) and ``or`` (the first)."""
        if type(e) is not ir.Op:
            return None
        if e.op in ("and", "or"):
            bounds = [self.first(a) for a in e.args if not self.fixed(a)]
            if not bounds or None in bounds:
                return None
            both = e.op == "and"
            b = ir.Op("max" if both else "min", (*bounds,), 64) \
                if bounds[1:] else bounds[0]
            for a in filter(self.fixed, e.args):
                b = ir.Op("?:", (a, b, _NONE) if both
                          else (a, ir.Const(0, 1), b), 64)
            return b
        # x + k*j at step j (+ k, the sum) reaching other (+ 1 if strict)
        term, other = e.args if e.op[0] == ">" else e.args[::-1]
        x = self.sums.get(term, term)
        if e.op not in (">", ">=", "<", "<=") or x not in self.counters \
                or not self.fixed(other):
            return None
        k = self.counters[x][0]
        at = ir.Op("-", (other, x), 64, (-1,))
        off = (e.op in (">", "<")) + k - 1 - k * (term is not x)
        if off:
            at = ir.Op("+", (at, ir.Const(off, 64)), 64, (-1,))
        return at if k == 1 else ir.Op("/", (at, ir.Const(k, 64)), 64)

    def bound(self, s: ir.Stmt) -> ir.Suite:
        """*s* lowering ``_b`` to the steps before its test or wrap."""
        t, new = type(s), (s,)
        if t is ir.If and s.cond in self.tests:
            at, rest = (self.first(s.cond),), s.other or ()
            self.ok &= at[0] is not None
            if rest and type(rest[0]) is ir.SetTemp and rest[0].name == "_b":
                at, rest = at + rest[0].value.args[1:], rest[1:]   # one min
            new = (ir.SetTemp("_b", ir.Op("min", (_B, *at), 64)), *rest)
        elif t is ir.If and (s.then or s.other):
            new = (ir.If(s.cond, s.then or (ir.Pass(),), s.other or None),)
        elif t is ir.MemStore and s.value in self.sums:
            wraps = ir.Op(">", (s.value, ir.Const(s.value.imm[0], 64)), 1)
            new = (ir.SetTemp("_b", ir.Op("min", (_B, self.first(wraps)),
                                          64)),)
        elif t is not ir.SetTemp and (t is not ir.Bits or not s.body):
            return ()
        self.ok &= all(self.fixed(getattr(s, name), strict=True)
                       for name in s.EXPRS)
        return new

    def step(self, s: ir.Stmt) -> ir.Suite:
        """*s* in the step over ``_n`` cycles."""
        if type(s) is ir.If and s.cond in self.tests:
            return s.other or ()
        if type(s) is ir.MemStore and s.value in self.sums:
            x, k = s.value.args
            kn = _N if k.value == 1 else ir.Op("*", (k, _N), 32, (-1,))
            return (s._replace(value=s.value._replace(args=(x, kn))),)
        return (s,)


@lru_cache(maxsize=64)
def _program_text(design: _Design) -> str:
    """``_settle`` and ``_tick_batch`` for *design*; bounded, as
    :func:`_compile`."""
    text = _Text(design)
    text.emit("def _settle(v, m):", 0)
    if design.comb:
        text.emit_prologue(1)
        text.emit_comb(1)
    else:
        text.emit("pass", 1)
    text.emit("", 0)
    text.emit("def _tick_batch(v, m, n):", 0)
    text.emit_prologue(1)
    text.emit("for _ in range(n):", 1)
    text.emit_cycle(2)
    return "\n".join(text.lines)


@lru_cache(maxsize=64)
def _replay_text(design: _Design, store: Optional[str], moved: str,
                 held: tuple[tuple[int, int], ...], free: frozenset) -> str:
    """``_replay(v, m, runs, _rest, _w)``: per ``(_x, _n)`` of *runs*,
    *design*'s cycle folded on *held* (g) ``_n`` times, returning the
    cycles run, early after the first for which *moved* (over ``v`` and
    ``_w``) holds; *store* (over ``_x`` and ``_rest``, or None) drives
    the *free* input, settled, before each run.  Where (i) holds a run
    within its bound is one step; a step that moved an output is run
    again back to its first cycle (``_n = 1 - _n``).  Before it,
    ``_horizon(v, m, _x, _rest)``: the bound at ``_x``, ``v`` as found
    (0: none).  One text per process; bounded, as :func:`_compile`."""
    scratch = _Text(design, held)
    scratch.emit_cycle(0)
    run = _Run(scratch.trees, free)
    text = _Text(design, held)
    text.emit("def _horizon(v, m, _x, _rest):", 0)
    if run.tapped:   # v as found: a store undone
        text.emit_prologue(1)
        text.lines += ["    _s = v[:]", f"    {store}"] * bool(store) \
            + ir.render(run.check, 1, "_m%d") + ["    v[:] = _s"] * bool(store)
    text.emit("return _b" if run.tapped else "return 0", 1)
    text.emit("def _replay(v, m, runs, _rest, _w):", 0)
    text.emit_prologue(1)
    text.emit("_i = 0", 1)
    text.emit("for _x, _n in runs:", 1)
    if store is not None:
        text.emit(store, 2)
        if design.comb:
            text.emit("_settle(v, m)", 2)
    if run.ok:   # a run of one is its cycle
        text.emit("if _n > 1:", 2)
        text.lines.extend(ir.render(run.check, 3, "_m%d"))
        text.emit("if not _n > _b:", 3)
        text.swap = run.swap
        text.emit("while True:", 4)
        text.emit_cycle(5)
        text.emit(f"if not ({moved}): break", 5)
        text.emit("if _n < 2: return _i + 1", 5)
        text.emit("_n = 1 - _n", 5)
        text.swap = {}
        text.emit("_i += _n", 4)
        text.emit("continue", 4)
    text.emit("for _j in range(_i + 1, _i + _n + 1):", 2)
    text.emit_cycle(3)
    text.emit(f"if {moved}: return _j", 3)
    text.emit("_i += _n", 2)
    text.emit("return _i", 1)
    return "\n".join(text.lines)


@dataclass
class CodegenProgram:
    """The fused evaluation functions for one design."""

    settle: Callable      # settle(v, m) -> None
    tick_batch: Callable  # tick_batch(v, m, n) -> None
    source: str           # full generated source, for inspection/debugging
    inlined: int          # processes fused by source inlining
    called: int           # processes bound as direct calls (no source)
    settles: bool = True     # settle does anything (the design has comb logic)
    #: globals of the generated functions; :func:`build_exchange` emits
    #: into it, beside the ``_settle`` and ``_tick_batch`` it calls
    namespace: dict = field(default_factory=dict, repr=False)
    #: what the text is generated from (:func:`_replay_text`)
    design: Optional[_Design] = field(default=None, repr=False)
    #: the module inputs no process writes: what a replay can hold
    inputs: tuple[int, ...] = ()

    def replay_source(self, store: Optional[str], moved: str,
                      held: tuple[tuple[int, int], ...] = ()) -> str:
        """:func:`_replay_text` of this program's design; *store*, if
        any, drives the input not *held*."""
        free = frozenset(self.inputs) - {i for i, _ in held}
        return _replay_text(self.design, store, moved, held, free)


def build_program(
    module: RTLModule, levelized: Sequence[CombProcess]
) -> CodegenProgram:
    """Fuse *module*'s processes (comb order given by *levelized*)."""
    namespace: dict = {"_S": object()}  # NBA staging sentinel

    def parts(procs: Sequence[_Proc]) -> tuple[_Part, ...]:
        out: list[_Part] = []
        for proc in procs:
            if proc.body is None:
                ref = f"_fn{len(namespace) - 1}"
                namespace[ref] = proc.fn
                out.append(ref)
            else:
                out.append(proc.body)
        return tuple(out)

    design = _Design(
        parts(levelized),
        parts([p for p in module.sync_procs if p.edge == Edge.POS]),
        parts([p for p in module.sync_procs if p.edge == Edge.NEG]),
        len(module.memories),
    )
    source = _program_text(design)
    code = _compile(source, f"<codegen:{module.name}>")
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    # processes as emitted: settle's comb, then the cycle's
    emitted = design.comb * 2 + design.pos \
        + (design.neg + design.comb if design.neg else ())
    called = sum(type(p) is str for p in emitted)
    written = frozenset().union(
        *(p.writes for p in (*module.comb_procs, *module.sync_procs)))
    return CodegenProgram(
        settle=namespace["_settle"],
        tick_batch=namespace["_tick_batch"],
        source=source,
        inlined=len(emitted) - called,
        called=called,
        settles=bool(levelized),
        namespace=namespace,
        design=design,
        inputs=tuple(s.index for s in module.signals.values()
                     if s.is_input and s.index not in written),
    )


#: a struct slot on the pins: (signal index, bit shift, mask) — ``mask``
#: bits from ``shift``; mask -1 on an output slot: all of the signal
PinSlot = tuple[int, int, int]


def _pin_text(in_slots: Sequence[PinSlot], out_slots: Sequence[PinSlot]):
    """The exchange's pin text: per input signal, the terms of the slots
    ``_i<k>`` stored on it; per output slot, the expression loading it."""
    by_signal: dict[int, list[str]] = {}
    for i, (idx, shift, mask) in enumerate(in_slots):
        term = f"(_i{i} & {mask})" + (f" << {shift}" if shift else "")
        by_signal.setdefault(idx, []).append(term)
    loads = [
        f"v[{idx}] >> {shift} & {mask}" if shift
        else f"v[{idx}]" if mask == -1 else f"v[{idx}] & {mask}"
        for idx, shift, mask in out_slots
    ]
    return by_signal, loads


def _bind(program: CodegenProgram, lines: list[str], *cells):
    """Exec *lines* (``def _bind(...)`` returning one function) into
    *program*'s namespace and call it with *cells*.  The cells are
    closure variables, not globals: a second function built on this
    program must not rebind the first's."""
    namespace = program.namespace
    source = "\n".join(lines)
    exec(  # noqa: S102 - executing our own generated code
        _compile(source, "<codegen:exchange>"), namespace
    )
    fn = namespace.pop("_bind")(*cells)
    fn.source = source  # for inspection, as CodegenProgram.source
    return fn


def build_exchange(
    program: CodegenProgram,
    in_struct: struct.Struct,
    in_slots: Sequence[PinSlot],
    out_struct: struct.Struct,
    out_slots: Sequence[PinSlot],
    size_error: Callable[[int], Exception],
) -> Callable:
    """Generate ``exchange(data, v, m, n) -> bytes`` for *program*: one
    wrapper ``tick_batch``.  Check *data*'s length (else raise
    ``size_error(len(data))``), decode it with *in_struct*, store slot
    ``i`` onto the pins at ``in_slots[i]`` (slots on one signal OR-ed at
    their shifts), settle (if there is comb logic), run *n* cycles and
    return *out_struct* packed from *out_slots*.  Nothing about earlier
    inputs is remembered, so pokes, reset and restore are seen as a
    ``poke``/``settle``/``tick`` sequence sees them."""
    by_signal, loads = _pin_text(in_slots, out_slots)
    lines = [
        "def _bind(_decode, _encode, _size_error):",
        "    def _exchange(data, v, m, n):",
        f"        if len(data) != {in_struct.size}:",
        "            raise _size_error(len(data))",
        f"        [{', '.join(f'_i{i}' for i in range(len(in_slots)))}]"
        " = _decode(data)",
        *(f"        v[{idx}] = {' | '.join(terms)}"
          for idx, terms in by_signal.items()),
        *(["        _settle(v, m)"] if program.settles else []),
        "        _tick_batch(v, m, n)",
        f"        return _encode({', '.join(loads)})",
        "    return _exchange",
    ]
    return _bind(program, lines, in_struct.unpack, out_struct.pack,
                 size_error)


#: specialisations one replay keeps before dropping them all
_MAX_CASES = 64


def build_replay(
    program: CodegenProgram,
    in_struct: struct.Struct,
    in_slots: Sequence[PinSlot],
    out_struct: struct.Struct,
    out_slots: Sequence[PinSlot],
    size_error: Callable[[int], Exception],
    vary: Optional[int],
) -> Callable:
    """Generate ``replay(data, v, m, runs, steady) -> (ran, bytes)``:
    per ``(value, n)`` of *runs* (n at least 1), n cycles on the struct
    *data*, slot *vary* replaced by *value* (*vary* None: held), each
    followed by a test of the output pins against the unpacked *steady*
    struct, returning after the first that moved one: the cycles a model
    that lagged behind the event queue owes, at once.  The pins are
    stored and settled as :func:`build_exchange` does, slot *vary*'s
    signal again per run.  The text (:func:`_replay_text`) is folded on
    the pins the replay holds (g), every module input no process writes
    but *vary*'s, read off the struct (``v`` for one no field drives);
    each tuple met is specialised once (``.cases``), and a run is one
    step where (i) holds.  ``.horizon(data, v, m, word)`` is the same
    case's run bound with slot *vary* at *word*, ``v`` and ``m`` left as
    found."""
    by_signal, loads = _pin_text(in_slots, out_slots)
    moved = f"({', '.join(loads)},) != _w" if loads else "False"
    if vary is None:
        store = rest = None
        settle = ["        _settle(v, m)"] if program.settles else []
        held = program.inputs
    else:
        idx, shift, mask = in_slots[vary]
        term = f"(_i{vary} & {mask})" + (f" << {shift}" if shift else "")
        rest = " | ".join(t for t in by_signal[idx] if t != term)
        store = (f"v[{idx}] = (_x & {mask})"
                 + (f" << {shift}" if shift else "")
                 + (" | _rest" if rest else ""))
        settle = []
        held = tuple(i for i in program.inputs if i != idx)
    cases: dict = {}

    def specialise(values: tuple) -> Callable:
        if len(cases) >= _MAX_CASES:
            cases.clear()
        source = program.replay_source(store, moved,
                                       tuple(zip(held, values)))
        cases[values] = replay = _bind(program, [
            "def _bind():",
            *("    " + line for line in source.splitlines()),
            "    _replay.horizon = _horizon",
            "    return _replay",
        ])
        return replay

    find = [  # the held tuple's case, found or made
        f"        if len(data) != {in_struct.size}:",
        "            raise _size_error(len(data))",
        f"        [{', '.join(f'_i{i}' for i in range(len(in_slots)))}]"
        " = _decode(data)",
        "        _held = (" + "".join(
            f"({' | '.join(by_signal[i])}), " if i in by_signal
            else f"v[{i}], " for i in held) + ")",
        "        _replay = _cases.get(_held)",
        "        if _replay is None:",
        "            _replay = _specialise(_held)",
    ]
    lines = [
        "def _bind(_decode, _encode, _steady, _size_error, _cases,"
        " _specialise):",
        "    def _replay_runs(data, v, m, runs, steady):", *find,
        *(f"        v[{i}] = {' | '.join(terms)}"
          for i, terms in by_signal.items()),
        *settle,
        f"        n = _replay(v, m, runs, {rest or '0'}, _steady(steady))",
        f"        return n, _encode({', '.join(loads)})",
        "    def _horizon(data, v, m, word):", *find,
        f"        return _replay.horizon(v, m, word, {rest or '0'})",
        "    _replay_runs.horizon = _horizon",
        "    return _replay_runs",
    ]
    replay_runs = _bind(program, lines, in_struct.unpack, out_struct.pack,
                        out_struct.unpack, size_error, cases, specialise)
    replay_runs.cases = cases
    return replay_runs
