"""Codegen execution backend: fuse RTL processes into generated code.

The interpreter backend evaluates one small Python function per process
per cycle — faithful, but call dispatch and non-blocking-assignment
staging (tuple allocation, append, a generic apply loop) dominate
runtime for real designs.  Following GSIM/Manticore's static-scheduling
insight, this module fuses the *levelized* combinational order and all
sync processes into two functions compiled once per design:

* ``settle(v, m)`` — the whole combinational netlist as straight-line
  code in levelized order;
* ``tick_batch(v, m, n)`` — ``n`` full clock cycles (posedge sample,
  NBA/NBM commit, settle, negedge section) in one compiled loop.

Processes elaborated from HDL carry their body as a tree
(:attr:`~repro.rtl.kernel.CombProcess.body`, :mod:`repro.rtl.ir`), signal
indices and masks already constants in it.  Each body is rewritten tree
to tree, once (:func:`_fused`), and its print inlined at every depth:

* an ``if``/``while`` over a 0/1 wrapper tests what is under it;
* literal-bound for-loops unroll, the variable a constant in each copy;
* full-register NBAs become sentinel-guarded staging locals committed
  after sampling (no tuples, no apply loop), memory NBAs per-memory
  staging dicts (last-write-wins per address, same final state as the
  ordered list apply);
* memory base lists are hoisted into locals (``_m0 = m[0]``).

The interpreter-shaped lists remain for two structural reasons: a
register that also receives *partial* (bit/part-select) NBAs keeps the
ordered list so apply-time merging stays exact, and a handwritten
kernel-level process (no body) is bound as a constant in the generated
namespace and called, its edge staging through ``nba``/``nbm``.
Equivalence with the interpreter, which runs the plain print of the
un-rewritten bodies, is enforced by the differential test suite
(``tests/rtl/test_differential.py``).

Two more functions are generated on request for the bridge
(:func:`build_exchange`): the per-cycle struct exchange of a
shared-library wrapper — packed bytes in, pin stores, ``settle``,
``tick_batch``, output pins packed back to bytes — the direct
struct-member <-> pin assignments a Verilator wrapper makes around
``eval()``; and ``run_ahead``, the cycle loop of ``tick_batch`` emitted
once more with a test of the wrapper's output pins after every cycle,
which returns as soon as one of them has moved.

Designs that need the iterative fixpoint fallback (word-level comb
cycles) are *not* codegen-eligible —
:class:`~repro.rtl.simulator.RTLSimulator` falls back to the interpreter
for them automatically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence, Union

from . import ir
from .kernel import CombProcess, Edge, RTLModule, SyncProcess

_Proc = Union[CombProcess, SyncProcess]

_MAX_UNROLL_ITERS = 64
_MAX_UNROLL_LINES = 20_000


def _lower(s: ir.Stmt) -> ir.Suite:
    """Per-statement rewrite of a body on its way into the fused
    program: conditions lose their 0/1 wrapper, literal-bound loops
    unroll (see :func:`_unroll`)."""
    if type(s) in (ir.If, ir.Loop) and type(s.cond) is ir.Op \
            and s.cond.op == "bool":
        s = s._replace(cond=s.cond.args[0])
    return _unroll(s) if type(s) is ir.Loop else (s,)


def _unroll(loop: ir.Loop) -> ir.Suite:
    """Unroll a literal-bound for-loop, folding the loop variable.

    The shape is the one a Verilog/VHDL ``for (i = K; i < N; i = i + S)``
    elaborates to.  Each iteration's body is emitted with the variable's
    reads replaced by that iteration's constant — CPython's AST
    optimizer then folds the surrounding arithmetic (``(17) % 20`` →
    ``17``), so memory indexing and shift amounts become constants and
    the loop-variable bookkeeping disappears.  The loop signal's final
    value is stored once at the end (it is architectural state the
    differential suite checks).
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
    out: list[ir.Stmt] = []
    for kval in ks:
        # a nested loop bounded by this variable is literal-bound now
        out.extend(ir.rewrite(loop.body, expr=ir.folding({var: kval}),
                              stmt=_lower))
    out.append(ir.Store(var, ir.Const(k, init.width)))
    if len(ir.render(out)) > _MAX_UNROLL_LINES:
        return (loop,)
    return tuple(out)


@lru_cache(maxsize=1024)
def _fused(body: ir.Suite, list_regs: frozenset[int] | None) -> tuple[str, ...]:
    """A body as it enters the fused program, printed at depth 1: with
    *list_regs* (a staged section's registers that keep the ordered
    list) every other NBA is staged, then each statement is lowered.
    A pure function of the tree, so — like :func:`_compile` — shared by
    every program a rig or sweep builds from one design; bounded."""
    def stage(s: ir.Stmt) -> ir.Suite:
        if (
            type(s) is ir.Store and s.index not in list_regs
            or type(s) is ir.MemStore
        ) and s.mode == ir.NBA:
            s = s._replace(mode=ir.STAGED)
        return _lower(s)

    body = ir.rewrite(body, stmt=_lower if list_regs is None else stage)
    return tuple(ir.render(body, 1, "_m%d"))


@lru_cache(maxsize=64)
def _compile(source: str, filename: str):
    """``compile()`` once per process per generated text.

    A campaign rig or a DSE point rebuilds the same design again and
    again and generates byte-identical source each time.  Code objects
    are immutable, so sharing one is invisible: every program still
    ``exec``s it into its own namespace, where guard slots, value arrays
    and bound codecs live.  The key is the text itself, so two opt
    levels or two parameterisations of a design cannot meet; bounded,
    as ``repro serve`` is long-lived.
    """
    return compile(source, filename, "exec")


def _no_state() -> None:
    """Default ``reset_state`` for programs without activity guards."""


@dataclass
class CodegenProgram:
    """The fused evaluation functions for one design."""

    settle: Callable      # settle(v, m) -> None
    tick_batch: Callable  # tick_batch(v, m, n) -> None
    source: str           # full generated source, for inspection/debugging
    inlined: int          # processes fused by source inlining
    called: int           # processes bound as direct calls (no source)
    #: ``run_ahead_source(params, moved)``: source of ``_run_ahead(v, m,
    #: n<params>)`` — ``_tick_batch``'s loop, returning the cycles run,
    #: and returning early after the first cycle for which the
    #: expression *moved* (over ``v`` and the extra *params*) holds
    run_ahead_source: Callable[[str, str], str] = field(repr=False)
    #: drop cached activity-cone keys (call after any state mutation
    #: that bypasses the generated code: reset, restore, pokes)
    reset_state: Callable = _no_state
    guarded_cones: int = 0   # cones the settle code guards
    quiescence: bool = False  # tick_batch has the early-exit fast path
    #: globals of the generated functions; :func:`build_exchange` emits
    #: into it so its settle call shares the activity-cone keys
    namespace: dict = field(default_factory=dict, repr=False)


class _Emitter:
    """Accumulates fused source and the namespace of bound callables."""

    def __init__(self, nmem: int, guards: bool = False) -> None:
        self.lines: list[str] = []
        self.namespace: dict = {"_S": object()}  # NBA staging sentinel
        self.nmem = nmem
        self.guards = guards
        self.inlined = 0
        self.called = 0
        self._next_ref = 0

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def emit_proc(self, proc: _Proc, call_args: str, depth: int,
                  list_regs: frozenset[int] | None = None) -> None:
        """Inline *proc*'s body (:func:`_fused`) at *depth*, or bind and
        call its fn."""
        if proc.body is not None:
            pad = "    " * (depth - 1)
            self.lines.extend(
                [pad + line for line in _fused(proc.body, list_regs)])
            self.inlined += 1
            return
        ref = f"_fn{self._next_ref}"
        self._next_ref += 1
        self.namespace[ref] = proc.fn
        self.emit(f"{ref}{call_args}", depth)
        self.called += 1

    def emit_prologue(self, depth: int) -> None:
        """Hoist memory base lists (and the sentinel) into locals."""
        self.emit("_sent = _S", depth)
        if self.guards:
            self.emit("_A = _act", depth)
        for mi in range(self.nmem):
            self.emit(f"_m{mi} = m[{mi}]", depth)

    # -- clock-edge sections ---------------------------------------------

    def emit_sync_section(self, procs: Sequence[SyncProcess], depth: int) -> None:
        """One edge: sample all procs, commit NBAs/NBMs.

        Staged (locals + dicts) when every process has a body; the
        interpreter-shaped list path when one is handwritten.
        """
        if all(p.body is not None for p in procs):
            self._emit_staged_section(procs, depth)
            return
        self.emit("nba = []", depth)
        self.emit("nbm = []", depth)
        for proc in procs:
            self.emit_proc(proc, "(v, m, nba, nbm)", depth)
        self._emit_list_apply(depth, regs=None)

    def _emit_list_apply(self, depth: int, regs) -> None:
        """The generic ordered apply of a residual nba/nbm list.

        With *regs* (the list-class register set of a staged section) the
        nbm loop is skipped — staged sections route all memory writes
        through dicts.  3-tuple entries are masked partial writes that
        merge in program order.
        """
        self.emit("for _e in nba:", depth)
        self.emit("if len(_e) == 2:", depth + 1)
        self.emit("v[_e[0]] = _e[1]", depth + 2)
        self.emit("else:", depth + 1)
        self.emit("v[_e[0]] = (v[_e[0]] & ~_e[2]) | (_e[1] & _e[2])", depth + 2)
        if regs is None:
            self.emit("for _me in nbm:", depth)
            self.emit("m[_me[0]][_me[1]] = _me[2]", depth + 1)

    def _emit_staged_section(
        self, procs: Sequence[SyncProcess], depth: int
    ) -> None:
        # Classify: registers with any partial NBA keep the ordered-list
        # path; everything else stages.
        nbas = [s for p in procs for s in ir.walk(p.body)
                if getattr(s, "mode", None) == ir.NBA]
        full_regs = {s.index for s in nbas if type(s) is ir.Store}
        mems = {s.mem for s in nbas if type(s) is ir.MemStore}
        list_regs = {s.index for s in nbas
                     if type(s) in (ir.BitStore, ir.SliceStore)}
        staged_regs = sorted(full_regs - list_regs)
        if list_regs:
            self.emit("nba = []", depth)
        for idx in staged_regs:
            self.emit(f"_r{idx} = _sent", depth)
        for mi in sorted(mems):
            self.emit(f"_nbm{mi} = {{}}", depth)
        for p in procs:
            self.emit_proc(p, "(v, m, nba, nbm)", depth,
                           frozenset(list_regs))

        # Commit.  Staged registers, list-class registers and memory
        # slots are disjoint, so commit order between the groups is
        # free; within each group program order is preserved.
        if list_regs:
            self._emit_list_apply(depth, regs=list_regs)
        for idx in staged_regs:
            self.emit(f"if _r{idx} is not _sent:", depth)
            self.emit(f"v[{idx}] = _r{idx}", depth + 1)
        for mi in sorted(mems):
            self.emit(f"for _a, _x in _nbm{mi}.items():", depth)
            self.emit(f"_m{mi}[_a] = _x", depth + 1)


def build_program(
    module: RTLModule, levelized: Sequence[CombProcess]
) -> CodegenProgram:
    """Fuse *module*'s processes (comb order given by *levelized*).

    When the optimiser attached an activity plan
    (:mod:`repro.rtl.activity`), eligible input cones get change
    guards — a skipped cone's external inputs are unchanged since its
    last evaluation, so its outputs are already correct — and
    ``tick_batch`` gets the quiescence fast path: once a full cycle
    leaves all non-counter state fixed, the remaining cycles of the
    batch are replayed algebraically.  Without a plan the emitted
    source is byte-identical to what this function always produced.
    """
    nmem = len(module.memories)
    plan = module.activity_plan
    guarded = (
        [c for c in plan.cones if c.guarded] if plan is not None else []
    )
    quiesce = bool(plan is not None and plan.quiescence)
    em = _Emitter(nmem, guards=bool(guarded))
    pos = [p for p in module.sync_procs if p.edge == Edge.POS]
    neg = [p for p in module.sync_procs if p.edge == Edge.NEG]

    # Guarded cones cache input values in flat slots of one shared list
    # (``_A``): scalar int compares, no per-settle tuple allocation, so
    # a guard that always misses costs only its short-circuited compare
    # chain.  ``base`` maps cone index -> first slot.
    base: dict[int, int] = {}
    nslots = 0
    if plan is not None:
        for ci, cone in enumerate(plan.cones):
            if cone.guarded:
                base[ci] = nslots
                nslots += len(cone.inputs)

    def emit_comb(depth: int) -> None:
        if not guarded:
            for proc in levelized:
                em.emit_proc(proc, "(v, m)", depth)
            return
        # Cones are independent (no comb-driven signal crosses cones),
        # so emitting whole cones in first-appearance order — keeping
        # levelized order inside each — is still a topological order.
        pos_of = {id(p): i for i, p in enumerate(levelized)}
        indexed = sorted(
            enumerate(plan.cones),
            key=lambda e: min(pos_of[id(module.comb_procs[i])]
                              for i in e[1].procs),
        )
        for ci, cone in indexed:
            procs = sorted(
                (module.comb_procs[i] for i in cone.procs),
                key=lambda p: pos_of[id(p)],
            )
            if not cone.guarded:
                for proc in procs:
                    em.emit_proc(proc, "(v, m)", depth)
                continue
            b = base[ci]
            check = " or ".join(
                f"_A[{b + k}] != v[{i}]"
                for k, i in enumerate(cone.inputs)
            )
            em.emit(f"if {check}:", depth)
            for k, i in enumerate(cone.inputs):
                em.emit(f"_A[{b + k}] = v[{i}]", depth + 1)
            for proc in procs:
                em.emit_proc(proc, "(v, m)", depth + 1)

    cycles: dict[int, list[str]] = {}  # depth -> one cycle, as emitted

    def emit_cycle(depth: int) -> None:
        if depth not in cycles:
            saved, em.lines = em.lines, []
            if not (pos or neg or levelized):
                em.emit("pass", depth)
            if pos:
                em.emit_sync_section(pos, depth)
            emit_comb(depth)
            if neg:
                em.emit_sync_section(neg, depth)
                emit_comb(depth)
            cycles[depth], em.lines = em.lines, saved
        em.lines.extend(cycles[depth])

    em.emit("def _settle(v, m):", 0)
    if levelized:
        em.emit_prologue(1)
        emit_comb(1)
    else:
        em.emit("pass", 1)

    def emit_tick(name: str, params: str = "", moved: str | None = None) -> None:
        """``def name(v, m, n<params>)``: *n* cycles; with *moved*, the
        loop counts, ends after the first cycle for which the expression
        holds, and the function returns the cycles run."""
        var = "_" if moved is None else "_i"

        def emit_exit(depth: int, ran: str) -> None:
            if moved is not None:
                em.emit(f"if {moved}:", depth)
                em.emit(f"return {ran}", depth + 1)

        em.emit(f"def {name}(v, m, n{params}):", 0)
        em.emit_prologue(1)
        if quiesce:
            # Small batches (and the coverage collector's single ticks)
            # take a plain loop with zero bookkeeping; the quiescence
            # machinery only engages once a batch is long enough to
            # reach the first snapshot point anyway.
            em.emit("if n < 16:", 1)
            em.emit(f"for {var} in range(n):", 2)
            emit_cycle(3)
            emit_exit(3, "_i + 1")
            em.emit("return" if moved is None else "return n", 2)
            # Doubling check schedule: long batches snapshot O(log n)
            # times.
            em.emit("_i = 0", 1)
            em.emit("_chk = 16", 1)
            em.emit("while _i < n:", 1)
            em.emit("if _i == _chk and n - _i > 1:", 2)
            em.emit("_sv = v[:]", 3)
            em.emit("_sm = [_x[:] for _x in m]", 3)
            em.emit("else:", 2)
            em.emit("_sv = None", 3)
            emit_cycle(2)
            cov = [pt.index for pt in module.coverage_points]
            em.emit("_i = _i + 1", 2)
            emit_exit(2, "_i")
            em.emit("if _sv is not None:", 2)
            em.emit("_chk = _chk + _chk", 3)
            if cov:
                # Counters advance every cycle by design; judge the
                # fixpoint on real state and extrapolate them exactly
                # (each remaining cycle repeats the same increments).
                em.namespace["_VIS"] = tuple(
                    s.index for s in module.visible_signals()
                )
                em.emit(
                    "if all(v[_j] == _sv[_j] for _j in _VIS) and m == _sm:",
                    3,
                )
                em.emit("_rem = n - _i", 4)
                for idx in cov:
                    em.emit(
                        f"v[{idx}] = v[{idx}] + (v[{idx}] - _sv[{idx}]) * _rem",
                        4,
                    )
            else:
                em.emit("if v == _sv and m == _sm:", 3)
            # a fixed point: the pins cannot move in what is left of n
            em.emit("break", 4)
        else:
            em.emit(f"for {var} in range(n):", 1)
            emit_cycle(2)
            emit_exit(2, "_i + 1")
        if moved is not None:
            em.emit("return n", 1)

    def run_ahead_source(params: str, moved: str) -> str:
        saved, em.lines = em.lines, []
        emit_tick("_run_ahead", params, moved)
        lines, em.lines = em.lines, saved
        return "\n".join(lines)

    em.emit("", 0)
    emit_tick("_tick_batch")

    if guarded:
        act = [None] * nslots
        em.namespace["_act"] = act

        def reset_state(_act=act) -> None:
            for i in range(len(_act)):
                _act[i] = None
    else:
        reset_state = _no_state

    source = "\n".join(em.lines)
    code = _compile(source, f"<codegen:{module.name}>")
    exec(code, em.namespace)  # noqa: S102 - executing our own generated code
    return CodegenProgram(
        settle=em.namespace["_settle"],
        tick_batch=em.namespace["_tick_batch"],
        source=source,
        inlined=em.inlined,
        called=em.called,
        run_ahead_source=run_ahead_source,
        reset_state=reset_state,
        guarded_cones=len(guarded),
        quiescence=quiesce,
        namespace=em.namespace,
    )


#: where one struct slot lives on the pins: (signal index, bit shift,
#: mask) — the slot's value occupies ``mask`` bits of the signal
#: starting at ``shift``; mask -1 on an output slot: all of the signal
PinSlot = tuple[int, int, int]


def build_exchange(
    program: CodegenProgram,
    in_struct: struct.Struct,
    in_slots: Sequence[PinSlot],
    out_struct: struct.Struct,
    out_slots: Sequence[PinSlot],
    size_error: Callable[[int], Exception],
) -> Callable:
    """Generate ``exchange(data, v, m, n, steady) -> (ran, bytes)`` for
    *program*.

    One call is one wrapper ``tick_batch``: check the length of *data*
    (raising ``size_error(len(data))``), decode it with *in_struct*,
    store slot ``i`` onto the pins at ``in_slots[i]`` (slots sharing a
    signal are OR-ed together at their shifts), settle, advance *n*
    cycles, and return how many ran with *out_struct* packed from the
    pins at *out_slots*.  With *steady* None all *n* run.  Otherwise
    *steady* is an output struct, and the cycles end after the first
    one that leaves any pin of *out_slots* different from its slot in
    it: that loop is the program's cycle loop emitted once more
    (:attr:`CodegenProgram.run_ahead_source`) with the pin test inside
    it, so a window costs no call, no pack and no compare of structs per
    cycle.  The settle and the plain cycles are *calls* to the
    program's own compiled functions, and every call runs the whole
    sequence: nothing about the previous inputs is remembered, so state
    changed behind the generated code's back (pokes, reset, restore) is
    seen exactly as a ``poke``/``settle``/``tick`` sequence would see
    it.
    """
    by_signal: dict[int, list[str]] = {}
    for i, (idx, shift, mask) in enumerate(in_slots):
        term = f"(_i{i} & {mask})" + (f" << {shift}" if shift else "")
        by_signal.setdefault(idx, []).append(term)
    loads = [
        f"v[{idx}] >> {shift} & {mask}" if shift
        else f"v[{idx}]" if mask == -1 else f"v[{idx}] & {mask}"
        for idx, shift, mask in out_slots
    ]
    # one tuple compare per cycle, against the unpacked *steady* struct
    run_ahead = program.run_ahead_source(
        ", _w", f"({', '.join(loads)},) != _w" if loads else "False"
    )
    # The codecs and the run-ahead loop are bound as closure cells, not
    # globals: a second exchange built on this program must not rebind
    # the first's.
    lines = [
        "def _bind(_decode, _encode, _steady, _size_error):",
        *("    " + line for line in run_ahead.splitlines()),
        "    def _exchange(data, v, m, n, steady):",
        f"        if len(data) != {in_struct.size}:",
        "            raise _size_error(len(data))",
        f"        [{', '.join(f'_i{i}' for i in range(len(in_slots)))}]"
        " = _decode(data)",
        *(f"        v[{idx}] = {' | '.join(terms)}"
          for idx, terms in by_signal.items()),
        "        _settle(v, m)",
        "        if steady is None:",
        "            _tick_batch(v, m, n)",
        "        else:",
        "            n = _run_ahead(v, m, n, _steady(steady))",
        f"        return n, _encode({', '.join(loads)})",
        "    return _exchange",
    ]
    namespace = program.namespace
    source = "\n".join(lines)
    exec(  # noqa: S102 - executing our own generated code
        _compile(source, "<codegen:exchange>"), namespace
    )
    exchange = namespace.pop("_bind")(
        in_struct.unpack, out_struct.pack, out_struct.unpack, size_error
    )
    exchange.source = source  # for inspection, as CodegenProgram.source
    return exchange
