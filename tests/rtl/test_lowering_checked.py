"""Every rewrite codegen's lowering makes is checked, not trusted.

The interpreter runs the plain print of a body; the fused program runs
its lowering (:mod:`repro.rtl.codegen`, lowerings (a), (b) and
(d)–(i)).  The differential suites compare the two on the states their
stimulus reaches.  This file checks the rewrites themselves, for the
five bundled designs x {plain, instrumented}, with
:data:`repro.rtl.codegen.REWRITE_HOOK` installed (a test hook, not an
option):

* every expression pair is evaluated with :func:`repro.rtl.ir.evaluate`
  after its free leaves are replaced by constants — every assignment
  when they total at most 16 bits, else 4 096 seeded vectors biased to
  0, all-ones, single bits and width boundaries (a memory word is read
  from a random image at the address the leaves give; an index the
  rewrite left unwrapped must be below the depth).  A ``"truth"`` pair
  must agree as Python truth values, a ``"value"`` pair as numbers of
  one type;
* the statement rewrites (set bits, list staging, the commits without
  a sentinel, stores made in place, branches cut, a run made one step)
  are checked as the cycle they build: the old cycle — the plain print,
  as the interpreter runs it — and the new fused cycle step from the
  same 2 000 seeded random ``(v, m)`` states and must agree on ``v``,
  ``m`` and the cycles run (a held-input replay of one run, as a
  lagging model's catch-up runs it, that ends when an output moves).

Held pins (g) are checked the same way, each pair wherever the pins hold
their values and each cycle from states whose pins are set to them.
A disagreement is a :class:`Finding` naming the design, the process and
the inputs.  Two seeded wrong rewrites — a dropped mask, set-bit
iteration over ``a | b`` instead of ``a & b`` — must each produce one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import pytest

from repro.hdl.common import CoverageOptions
from repro.rtl import codegen, ir
from repro.rtl.simulator import RTLSimulator
from repro.rtl.kernel import Edge
from repro.verify.designs import DESIGNS

INSTRUMENTED = CoverageOptions(statement=True, toggle=False, fsm=True)
#: ``-O0`` in an id: the HDL as written, as ``test_ir.py``'s listing
#: pins call it
CELLS = [
    pytest.param(name, instr,
                 id=f"{name}-O0-{'instr' if instr else 'plain'}")
    for name in sorted(DESIGNS) for instr in (None, INSTRUMENTED)
]
VECTORS = 4096
EXHAUSTIVE_BITS = 16
STATES = 2000
WINDOW = 4   # cycles a replay may run from one state
HELD_STATES = 400   # states per design a replay on held pins runs from
HELD_TUPLES = 6     # tuples of held pins per design
#: what codegen keeps of a lowering, per process
MEMOS = (codegen._held, codegen._lowered, codegen._program_text,
         codegen._replay_text)


@dataclass
class Finding:
    """One rewrite that does not hold, and where it fails."""

    design: str
    process: str
    what: str
    inputs: str

    def __str__(self) -> str:
        return f"{self.design}: {self.process}: {self.what} at {self.inputs}"


@pytest.fixture
def fresh_lowering(monkeypatch):
    """Lower from scratch (nothing served from the memo) and forget what
    was lowered afterwards: a seeded wrong rewrite must not outlive its
    test."""
    for memo in MEMOS:
        memo.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    for memo in MEMOS:
        memo.cache_clear()


# -- the rewrites of one design ------------------------------------------


def _rewrites(rtl, monkeypatch, held: tuple = ()
              ) -> list[tuple[str, object, object, str]]:
    """``(process, old, new, how)`` for every rewrite lowering *rtl*
    reports, processes lowered as :func:`codegen.build_program` lowers
    them — with *held* (``(index, value)`` pairs), folded on those pins
    first, as a replay that holds them lowers them."""
    pairs: list = []
    current = [""]
    monkeypatch.setattr(
        codegen, "REWRITE_HOOK",
        lambda old, new, how: pairs.append((current[0], old, new, how)))

    def each(procs, step) -> list:
        """``step(i)`` for the *i*-th of *procs*, its rewrites labelled
        with that process."""
        out = []
        for i, proc in enumerate(procs):
            current[0] = _label(rtl, proc)
            out.append(step(i))
        return out

    comb = rtl.comb_procs
    each(comb, lambda i: codegen._lowered(
        codegen._held(comb[i].body, held), None))
    for edge in (Edge.POS, Edge.NEG):
        procs = [p for p in rtl.sync_procs if p.edge == edge]
        bodies = each(procs, lambda i: codegen._held(procs[i].body, held))
        regs = codegen._list_regs(bodies)
        trees = each(procs, lambda i: codegen._lowered(bodies[i], regs))
        in_place = codegen._in_place(trees)
        each(procs, lambda i: codegen._stores_in_place(trees[i], in_place))
    monkeypatch.setattr(codegen, "REWRITE_HOOK", None)
    return pairs


def _label(rtl, proc) -> str:
    """A process by its name and the signals it drives."""
    driven = sorted(s.name for s in rtl.signals.values()
                    if s.index in proc.writes)
    return f"{proc.name} -> {', '.join(driven) or 'memories'}"


# -- expression pairs -----------------------------------------------------


def _biased(width: int, rng: random.Random) -> int:
    """Half uniform; else 0, all-ones, a single bit or the all-ones
    just below one (a width boundary)."""
    pick = rng.getrandbits(3)
    if pick < 4:
        return rng.getrandbits(width)
    if pick == 4:
        return 0
    if pick == 5:
        return (1 << width) - 1
    bit = 1 << rng.getrandbits(16) % width
    return bit if pick == 6 else bit - 1


def _vectors(widths: list, rng: random.Random) -> Iterator[tuple]:
    if sum(widths) <= EXHAUSTIVE_BITS:
        yield from itertools.product(*(range(1 << w) for w in widths))
        return
    for _ in range(VECTORS):
        yield tuple(_biased(w, rng) for w in widths)


class _Image(list):
    """A memory's words, remembering which were read."""

    def __init__(self, words) -> None:
        super().__init__(words)
        self.read: set = set()

    def __getitem__(self, addr):
        self.read.add(addr)
        return super().__getitem__(addr)


def _canonical(old: ir.Expr, new: ir.Expr) -> tuple:
    """The pair over ``v[0..]`` and ``m[0..]``: its signal and local reads
    and its memories renumbered in order of appearance, so a rewrite met
    again on other signals (another lane or design) is checked
    once; and what each number stood for."""
    reads: dict = {}
    mems: dict = {}

    def rename(x: ir.Expr) -> ir.Expr:
        t = type(x)
        if t is ir.Sig or t is ir.Temp:
            return ir.Sig(reads.setdefault(x, len(reads)), x.width)
        if t is ir.MemRead:
            return x._replace(mem=mems.setdefault(
                x.mem, (len(mems), x.depth, x.width))[0])
        return x

    pair = ir.map_expr(old, rename), ir.map_expr(new, rename)
    return pair, list(reads), sorted(mems.items(), key=lambda i: i[1][0])


def _check_expr(old: ir.Expr, new: ir.Expr, how: str, widths: list,
                shapes: list) -> Optional[tuple]:
    """``(v, m, old value, new value)`` for a state over which *new* does
    not stand for *old*, or None.  Both sides are evaluated with
    :func:`ir.evaluate` over ``v`` (the leaves, by number) and ``m`` (a
    random image of each memory)."""
    rng = random.Random(0)
    for values in _vectors(widths, rng):
        m = [_Image(_biased(w, rng) for _ in range(depth))
             for depth, w in shapes]
        a = b = None
        try:
            a = ir.evaluate(old, {"v": values, "m": m})
            b = ir.evaluate(new, {"v": values, "m": m})
        except IndexError:   # an index left unwrapped ran past its memory
            return values, m, a, "index out of range"
        agree = bool(a) == bool(b) if how == "truth" \
            else a == b and type(a) is type(b)
        if not agree:
            return values, m, a, b
    return None


#: the verdict on each canonical pair, kept across cells
_VERDICTS: dict = {}


def _expression_findings(name: str, rtl, pairs,
                         held: tuple = ()) -> list[Finding]:
    """The expression pairs of *pairs* that do not hold; with *held*,
    wherever those pins hold those values (the old side folded on
    them)."""
    names = {s.index: s.name for s in rtl.signals.values()}
    memories = {mem.index: mem.name for mem in rtl.memories.values()}
    fold = ir.folding(dict(held))
    findings = []
    for process, old, new, how in pairs:
        if how == "stmt":
            continue
        old = ir.map_expr(old, fold)
        (cold, cnew), reads, mems = _canonical(old, new)
        key = (cold, cnew, how)
        if key not in _VERDICTS:
            _VERDICTS[key] = _check_expr(
                cold, cnew, how, [x.width for x in reads],
                [(depth, w) for _, (_, depth, w) in mems])
        if _VERDICTS[key] is None:
            continue
        values, m, a, b = _VERDICTS[key]
        shown = [f"{names[x.index] if type(x) is ir.Sig else x.name}"
                 f"={value:#x}" for x, value in zip(reads, values)]
        shown += [f"{memories[mi]}[{addr}]={image[addr]:#x}"
                  for (mi, _), image in zip(mems, m)
                  for addr in sorted(image.read)
                  if addr < len(image)]
        findings.append(Finding(
            name, process, f"{ir.text(old)} -> {ir.text(new)}",
            f"{', '.join(shown) or 'no inputs'} ({a!r} vs {b!r})"))
    return findings


# -- statement rewrites: the cycle they build -----------------------------


def _random_state(widths, depths, rng: random.Random) -> tuple[list, list]:
    values = [_biased(w, rng) for w in widths]
    mems = [[_biased(w, rng) for _ in range(depth)] for depth, w in depths]
    return values, mems


def _cycle_findings(name: str, rtl, states: int = STATES,
                    pool: tuple = ((),)) -> list[Finding]:
    """Old (interpreter) and new (fused) cycles from random states; each
    state's pins set to one tuple of *pool* (``(index, value)`` pairs,
    in turn), which the new cycle is folded on."""
    new = RTLSimulator(rtl)
    old = RTLSimulator(rtl, backend="interp")
    assert new.backend == "codegen"
    program = new._codegen
    outs = [s.index for s in rtl.signals.values() if s.is_output]
    moved = "(" + "".join(f"v[{i}], " for i in outs) + ") != _w"
    namespace = program.namespace
    replays = []
    for held in pool:
        exec(compile(  # noqa: S102
            program.replay_source(None, moved, held), "<check>", "exec"),
            namespace)
        replays.append(namespace["_replay"])
    processes = list(rtl.comb_procs) + list(rtl.sync_procs)
    widths = [1] * len(rtl.fresh_values())
    for sig in rtl.signals.values():
        widths[sig.index] = sig.width
    depths = [(mem.depth, mem.width) for mem in
              sorted(rtl.memories.values(), key=lambda mem: mem.index)]
    rng = random.Random(f"{name}-cycles")
    for trial in range(states):
        values, mems = _random_state(widths, depths, rng)
        held = pool[trial % len(pool)]
        for index, value in held:
            values[index] = value
        steady = tuple(values[i] for i in outs)
        old.values, old.mems = list(values), [list(w) for w in mems]
        ran = 0
        while ran < WINDOW:
            old.tick()
            ran += 1
            if tuple(old.values[i] for i in outs) != steady:
                break
        v, m = list(values), [list(w) for w in mems]
        got = replays[trial % len(pool)](v, m, [(0, WINDOW)], 0, steady)
        if (got, v, m) == (ran, old.values, old.mems):
            continue
        kind, what = _first_difference(rtl, v, m, old.values, old.mems)
        if kind == "signal":
            index = rtl.signals[what].index
            writers = [p for p in processes if index in p.writes]
        elif kind == "memory":
            index = rtl.memories[what].index
            writers = [p for p in processes if any(
                type(s) is ir.MemStore and s.mem == index
                for s in ir.walk(p.body))]
        else:
            writers = list(rtl.sync_procs)
        read = set().union(*(p.reads for p in writers))
        shown = ", ".join(f"{s.name}={values[s.index]:#x}"
                          for s in rtl.signals.values()
                          if s.is_input or s.index in read)
        return [Finding(
            name, "; ".join(_label(rtl, p) for p in writers),
            f"{kind} {what} differs after {got} vs {ran} cycles",
            f"state {trial}: {shown}")]
    return []


def _first_difference(rtl, v, m, ref_v, ref_m) -> tuple[str, object]:
    for sig in rtl.signals.values():
        if v[sig.index] != ref_v[sig.index]:
            return "signal", sig.name
    for mem in rtl.memories.values():
        if m[mem.index] != ref_m[mem.index]:
            return "memory", mem.name
    return "cycles run", None


# -- the checks -----------------------------------------------------------


@pytest.mark.parametrize("name,instr", CELLS)
def test_every_lowering_holds(name, instr, fresh_lowering):
    rtl = DESIGNS[name].compile(instrument=instr)
    pairs = _rewrites(rtl, fresh_lowering)
    findings = _expression_findings(name, rtl, pairs) \
        + _cycle_findings(name, rtl)
    assert not findings, "\n".join(map(str, findings))
    assert any(how != "stmt" for *_, how in pairs)
    # (a) fires on the PMU's counting loop, and a Cover refuses it
    set_bits = [new for _, old, new, how in pairs
                if how == "stmt" and type(old) is ir.Loop]
    assert bool(set_bits) == (name == "pmu" and instr is None)
    assert all(type(new[0]) is ir.Bits for new in set_bits)


def _held_pool(name: str, rtl, inputs) -> tuple:
    """Pins to hold, as ``(index, value)`` tuples over *inputs*: all 0,
    then seeded values — reset low in all but the last, so that most
    fold onto the working branch."""
    rng = random.Random(f"{name}-held")
    rst = rtl.signals["rst"].index
    widths = {s.index: s.width for s in rtl.signals.values()}
    pool = [tuple((i, 0) for i in inputs)]
    for k in range(HELD_TUPLES - 1):
        pool.append(tuple(
            (i, 0 if i == rst and k < HELD_TUPLES - 2
             else _biased(widths[i], rng)) for i in inputs))
    return tuple(pool)


@pytest.mark.parametrize("name,instr", CELLS)
def test_every_lowering_holds_on_held_pins(name, instr, fresh_lowering):
    """(g) and (h) as a replay holding every input lowers a design: each
    expression pair wherever the pins hold their values, and the cycle
    against the interpreter's from states with the pins at them."""
    rtl = DESIGNS[name].compile(instrument=instr)
    pool = _held_pool(name, rtl, RTLSimulator(rtl)._codegen.inputs)
    pairs, findings = [], []
    for held in pool:
        some = _rewrites(rtl, fresh_lowering, held)
        findings += _expression_findings(name, rtl, some, held)
        pairs += some
    findings += _cycle_findings(name, rtl, HELD_STATES, pool)
    assert not findings, "\n".join(map(str, findings))
    # (g): a held pin reads as its value, an if on one is its live branch
    assert any(how == "value" and type(old) is ir.Sig
               and type(new) is ir.Const for _, old, new, how in pairs)
    assert any(how == "stmt" and type(old) is ir.If
               and type(old.cond) is ir.Const for _, old, new, how in pairs)
    # (h): a staged memory store no read follows is made in place
    in_place = [old for _, old, new, how in pairs
                if how == "stmt" and type(old) is ir.MemStore]
    assert all(old.mode == ir.STAGED for old in in_place)
    assert bool(in_place) == bool(rtl.memories)


def test_a_read_after_a_store_keeps_the_list(fresh_lowering):
    """(h) refused: with ``arvalid`` held at 1 the PMU reads ``counters``
    (``rdata <= counters[araddr]``) after its counting loop stores them,
    so the replay stages them through ``_nbm0``; with it held at 0
    nothing reads them after a store, and the loop stores in place."""
    rtl = DESIGNS["pmu"].compile()
    program = RTLSimulator(rtl)._codegen
    events, arvalid = (rtl.signals[n].index for n in ("events", "arvalid"))

    def replay(value: int) -> str:
        held = tuple((i, value if i == arvalid else 0)
                     for i in program.inputs if i != events)
        return program.replay_source(f"v[{events}] = _x", "False", held)

    read = replay(1)
    assert "_nbm0 = []" in read and "for _a, _x in _nbm0:" in read
    assert "_nbm0.append((_k12, " in read and "_m0[_k12] = " not in read
    quiet = replay(0)
    assert "_nbm0" not in quiet and "_m0[_k12] = " in quiet


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_a_run_is_one_step_where_it_can_be(name, fresh_lowering):
    """(i) reports each n-step body (``"stmt"``: the cycle's statements,
    and the bound and the step standing in their place) on the texts
    the bridge replays: the PMU's with ``events`` varied and every other
    pin at 0 (Fig. 5's lags: ``counters`` counts, the threshold test
    bounds the run), and every design's with every pin at
    0 (the idle text: nothing counts, a run is one edge; the PMU's
    unrolled lane tests on its held ``events`` are cut, so it counts
    nothing either).  The bitonic sorter's stage registers read what
    they store: no step.  The replays themselves are checked against the interpreter
    above (``_cycle_findings``, one run of ``WINDOW`` cycles)."""
    rtl = DESIGNS[name].compile()
    program = RTLSimulator(rtl)._codegen
    texts = [(None, tuple((i, 0) for i in program.inputs))]
    if name == "pmu":
        events = rtl.signals["events"].index
        texts.append((f"v[{events}] = _x", tuple(
            (i, 0) for i in program.inputs if i != events)))
    steps = []
    fresh_lowering.setattr(codegen, "REWRITE_HOOK", lambda old, new, how:
                           steps.append((old, new, how))
                           if type(old) is tuple else None)
    for store, held in texts:
        program.replay_source(store, "False", held)
    assert all(how == "stmt" for *_, how in steps)
    assert len(steps) == (0 if name == "bitonic" else len(texts))
    counted = [new for _, new, _ in steps if any(
        type(s) is ir.SetTemp and s.name == "_b" and type(s.value) is ir.Op
        for s in ir.walk(new))]
    assert len(counted) == (1 if name == "pmu" else 0)
    for new in counted:
        summed = [s for s in ir.walk(new) if type(s) is ir.MemStore]
        assert summed and all(ir.Temp("_n", 32) in ir.leaves(s.value)
                              for s in summed)


def test_a_case_chain_whose_next_item_folds_runs_as_before():
    """An ``elif`` whose test folds leaves the chain a plain ``else``
    holding the live branch, and the body computes what the plain print
    computes wherever the pin holds; a shift too wide to build now is
    left to run time."""
    a, sel, out = ir.Sig(0, 1), ir.Sig(1, 2), 2

    def store(x: int) -> ir.Stmt:
        return ir.Store(out, ir.Const(x, 8))

    item = ir.If(ir.Op("is", (sel, ir.Const(1, 2)), 1), (store(2),),
                 (store(3),))
    case = (ir.If(a, (store(1),), (item,), chain=True),)
    plain = ir.compile_fn(case, "v, m")
    for held in (0, 1):
        body = codegen._held(case, ((sel.index, held),))
        assert not body[0].chain
        folded = ir.compile_fn(body, "v, m")
        for x in (0, 1):
            v, w = [x, held, 0], [x, held, 0]
            plain(v, [])
            folded(w, [])
            assert v == w
    wide = (ir.Store(out, ir.Op("<<", (ir.Const(1, 1), sel), 8)),)
    assert codegen._held(wide, ((sel.index, 1 << 20),)) == (
        ir.Store(out, ir.Op("<<", (ir.Const(1, 1),
                                   ir.Const(1 << 20, 2, folded=True)), 8)),)


def test_a_loop_that_touches_a_memory_keeps_its_list():
    """(h) follows no loop it did not unroll: a store inside one keeps
    its memory staged, though nothing reads it."""
    i, n = ir.Sig(0, 4), ir.Sig(1, 4)
    store = ir.MemStore(0, 16, i, ir.Const(1, 8), ir.STAGED, wrap=False)
    loop = ir.Loop(i.index, 15, ir.Const(0, 4), ir.Op("<", (i, n), 1),
                   ir.Op("+", (i, ir.Const(1, 4)), 4, (15,)), (store,))
    assert codegen._in_place([(store,)]) == {0}
    assert codegen._in_place([(loop,)]) == frozenset()


def test_a_dropped_mask_is_caught(fresh_lowering):
    """Every wide mask taken for one that cannot change its operand:
    ``enable <= wdata[19:0]`` loses its slice."""
    fits = codegen._fits
    fresh_lowering.setattr(codegen, "_fits",
                           lambda e, mask: mask > 1 or fits(e, mask))
    rtl = DESIGNS["pmu"].compile()
    (finding,) = _expression_findings("pmu", rtl,
                                      _rewrites(rtl, fresh_lowering))
    assert finding.design == "pmu"
    assert finding.process.startswith("sync@") and "enable" in finding.process
    assert finding.what == "((v[5] >> 0) & 1048575) -> v[5]"
    assert finding.inputs.startswith("wdata=0x"), finding


def test_set_bits_over_an_or_is_caught(fresh_lowering):
    """A counter enabled *or* pulsed counts: the counters move where
    the interpreter's do not."""
    def word_or(sigs, ks):
        word = sigs[0]
        for sig in sigs[1:]:
            word = ir.Op("|", (word, sig), max(word.width, sig.width))
        return word

    fresh_lowering.setattr(codegen, "_word", word_or)
    rtl = DESIGNS["pmu"].compile()
    assert "_k12_w = ((v[11]) | (v[2]))" in RTLSimulator(rtl)._codegen.source
    (finding,) = _cycle_findings("pmu", rtl)
    assert finding.design == "pmu"
    assert finding.process.startswith("sync@") and "irq" in finding.process
    assert finding.what.startswith("memory counters differs")
    assert "enable=0x" in finding.inputs and "events=0x" in finding.inputs
