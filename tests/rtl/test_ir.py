"""The body tree (repro.rtl.ir) as the one format between the
elaborator and both backends: structure tests.

What the differential suites cannot see — *how* a body gets from the
elaborator to the generated program — is pinned here: nothing re-parses
printed Python, one place compiles a process ``fn``, the read/write sets
are the tree's, and the list path of the codegen backend is reached for
two structural reasons only.  The listing, the fused program and the
struct exchange of every bundled design are pinned byte for byte.
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
import random

import pytest

from repro.hdl.common import CoverageOptions
from repro.hdl.elaborator import ELAB_CACHE
from repro.hdl.verilog import compile_verilog
from repro.models.bitonic.wrapper import BitonicSharedLibrary
from repro.models.pmu.wrapper import PMUSharedLibrary
from repro.models.rtlcache.coherent import RTLCacheCohSharedLibrary
from repro.models.rtlcache.wrapper import (
    RTLCacheECCSharedLibrary,
    RTLCacheSharedLibrary,
)
from repro.rtl import ir
from repro.rtl.simulator import RTLSimulator
from repro.rtl.codegen import build_program
from repro.verify.designs import DESIGNS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
TOOLCHAIN = ("hdl/elaborator.py", "rtl/codegen.py", "rtl/ir.py",
             "rtl/kernel.py")
INSTRUMENTED = CoverageOptions(statement=True, toggle=False, fsm=True)
#: ``-O0`` in an id: the HDL as written, as the listing pins below call it
CELLS = [
    pytest.param(name, instr,
                 id=f"{name}-O0-{'instr' if instr else 'plain'}")
    for name in sorted(DESIGNS) for instr in (None, INSTRUMENTED)
]


def _processes(rtl):
    return list(rtl.comb_procs) + list(rtl.sync_procs)


def _calls(path: str) -> list[str]:
    """Dotted names of everything called in one toolchain module."""
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    return [ast.unparse(n.func) for n in ast.walk(tree)
            if isinstance(n, ast.Call)]


class TestNothingReparsesGeneratedPython:
    @pytest.mark.parametrize("path", TOOLCHAIN)
    def test_no_regex(self, path):
        tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "re" not in [a.name for a in node.names], path
            if isinstance(node, ast.ImportFrom):
                assert node.module != "re", path
        assert not [c for c in _calls(path) if c.startswith("re.")], path

    def test_one_exec_site_makes_a_process_fn(self):
        """``ir.compile_fn`` is the only place a body becomes a ``fn``
        (reached through ``_Process.rebuild`` only); codegen's two
        ``exec``s run whole fused programs, never a process."""
        execs = {p: _calls(p).count("exec") for p in TOOLCHAIN}
        assert execs == {
            "hdl/elaborator.py": 0, "rtl/kernel.py": 0, "rtl/ir.py": 1,
            "rtl/codegen.py": 2,
        }
        callers = [p for p in TOOLCHAIN if "ir.compile_fn" in _calls(p)]
        assert callers == ["rtl/kernel.py"]
        # and one place evaluates a closed expression
        evals = {p: _calls(p).count("eval") for p in TOOLCHAIN}
        assert sum(evals.values()) == evals["rtl/ir.py"] == 1


class TestSetsAreTheTrees:
    @pytest.mark.parametrize("name,instr", CELLS)
    def test_reads_writes_and_print(self, name, instr):
        rtl = DESIGNS[name].compile(instrument=instr)
        counters = {pt.index for pt in rtl.coverage_points}
        assert bool(counters) == (instr is not None)
        covered = set()
        for proc in _processes(rtl):
            assert proc.body is not None
            assert proc.reads == ir.reads(proc.body), proc.name
            assert proc.writes == ir.writes(proc.body), proc.name
            # coverage counters are in neither set, by rule
            assert not counters & (proc.reads | proc.writes), proc.name
            covered |= {s.index for s in ir.walk(proc.body)
                        if type(s) is ir.Cover}
            # the printed view is Python
            compile("def _f(v, m, nba, nbm):\n" + proc.source, proc.name,
                    "exec")
        assert covered == counters

    def test_equal_nodes_print_the_same(self):
        a = ir.Op("&", (ir.Sig(1, 4), ir.Const(3, 32)), 32)
        assert a == ir.Op("&", (ir.Sig(1, 4), ir.Const(3, 32)), 32)
        assert hash(a) == hash(ir.Op("&", (ir.Sig(1, 4), ir.Const(3, 32)), 32))
        assert ir.Const(3, 4) != ir.Const(3, 4, folded=True)
        assert ir.text(ir.Const(3, 4, folded=True)) == "(3)"
        # kinds never meet: a read is not a constant of the same numbers
        assert ir.Sig(3, 4) != ir.Const(3, 4)

    def test_rewrite_shares_what_it_does_not_touch(self):
        body = (
            ir.If(ir.Sig(0, 1), (ir.Store(1, ir.Sig(2, 8)),), None),
            ir.Store(3, ir.Op("+", (ir.Sig(2, 8), ir.Const(1, 8)), 8, (255,))),
        )
        assert ir.rewrite(body) == body
        out = ir.rewrite(body, expr=lambda e: ir.Const(7, 8, folded=True)
                         if e == ir.Sig(3, 8) else e)
        assert out[0] is body[0] and out[1] is body[1]
        out = ir.rewrite(body, expr=lambda e: ir.Const(7, 8, folded=True)
                         if e == ir.Sig(2, 8) else e)
        assert out[0].cond is body[0].cond
        assert ir.render(out)[1:] == [
            "        v[1] = (7)", "    v[3] = ((((7)) + (1)) & 255)"]
        assert ir.reads(out) == {0} and ir.writes(out) == {1, 3}

    def test_evaluate_is_the_value_of_the_print(self):
        closed = ir.Op("-", (ir.Const(2, 8), ir.Const(5, 8)), 8, (255,))
        assert ir.evaluate(closed) == eval(ir.text(closed)) == 253
        assert ir.evaluate(ir.Op("~", (ir.Sig(0, 8),), 8, (255,))) is None
        assert ir.evaluate(ir.MemRead(0, 4, ir.Const(1, 2), 8)) is None


SHAPES_V = """
module shapes(input clk, input rst, input [7:0] a, input [2:0] sel,
              output reg [7:0] acc, output reg [7:0] dn, output reg [7:0] s2,
              output reg [7:0] bits, output reg [7:0] q);
  integer i; integer j; integer k; integer l;
  reg [7:0] mem [0:3];
  always @(*) begin
    acc = 0;
    for (i = 0; i < 4; i = i + 1)
      for (j = 0; j <= i; j = j + 1)
        acc = acc + ((a >> j) & 1) + i;
    dn = 0;
    for (k = 3; k > 0; k = k - 1)
      dn = dn + ((a >> k) & 1);
    s2 = 0;
    for (l = 0; l < 8; l = l + 2)
      s2 = s2 + ((a >> l) & 1);
  end
  always @(posedge clk) begin
    if (rst) begin
      bits <= 0;
      q <= 0;
    end else begin
      bits[sel] <= a[0];
      mem[sel[1:0]] <= a;
      q <= mem[a[1:0]] + acc;
    end
  end
endmodule
"""


class TestLoopsUnrollOnTheTree:
    @pytest.mark.parametrize("seed", (0,))
    def test_triangular_nest_unrolls_and_matches_interp(self, seed):
        rtl = compile_verilog(SHAPES_V)
        cg = RTLSimulator(rtl)
        it = RTLSimulator(rtl, backend="interp")
        source = cg._codegen.source
        settle = source[:source.index("def _tick_batch")]
        # the inner bound is the outer variable: a constant node in each
        # unrolled copy.  The step-2 loop unrolls too; the decrementing
        # one is not the counted shape and stays a loop.
        sig = rtl.signals
        assert settle.count("while ") == 1
        assert f"while (v[{sig['k'].index}]) > (0):" in settle
        for var in "ijl":
            assert f"v[{sig[var].index}] = (" not in settle
        assert f"    v[{sig['j'].index}] = 4\n" in settle
        assert f"    v[{sig['l'].index}] = 8\n" in settle
        # the interpreter runs the plain, un-rewritten print
        assert it.module.comb_procs[0].source.count("while ") == 4
        rng = random.Random(seed)
        for sim in (cg, it):
            sim.reset()
        for cycle in range(200):
            for pin, bits in (("a", 8), ("sel", 3)):
                value = rng.getrandbits(bits)
                for sim in (cg, it):
                    sim.poke(pin, value)
            for sim in (cg, it):
                sim.settle()
                sim.tick()
            assert cg.values == it.values, cycle
            assert cg.mems == it.mems, cycle


class TestTheListPathHasTwoReasons:
    """``nba = []`` / ``nbm = []`` in a fused program: a register that
    takes a partial NBA keeps the ordered list; a handwritten process
    (no body) makes its whole edge stage through both lists."""

    @staticmethod
    def _partial_targets(rtl):
        return {
            s.index for p in rtl.sync_procs for s in ir.walk(p.body)
            if type(s) in (ir.BitStore, ir.SliceStore) and s.mode == ir.NBA
        }

    @pytest.mark.parametrize("name,instr", CELLS)
    def test_bundled_designs_fuse_without_calls(self, name, instr):
        rtl = DESIGNS[name].compile(instrument=instr)
        prog = build_program(rtl, rtl.levelize())
        assert prog.called == 0
        assert "nbm = []" not in prog.source
        assert ("nba = []" in prog.source) == bool(self._partial_targets(rtl))

    def test_partial_nba_keeps_its_register_on_the_list(self):
        rtl = compile_verilog(SHAPES_V)
        prog = build_program(rtl, rtl.levelize())
        bits, q = rtl.signals["bits"].index, rtl.signals["q"].index
        assert self._partial_targets(rtl) == {bits}
        assert prog.called == 0 and "nbm = []" not in prog.source
        assert "nba = []" in prog.source
        assert f"nba.append(({bits}, " in prog.source
        assert f"_r{q} = " in prog.source
        assert f"nba.append(({q}, " not in prog.source
        assert "_nbm0.append((" in prog.source

    def test_a_handwritten_process_is_called_on_the_list_path(
            self, monkeypatch):
        monkeypatch.setattr(ELAB_CACHE, "_designs", {})   # the module is edited
        rtl = compile_verilog(SHAPES_V)
        fused = build_program(rtl, rtl.levelize())
        assert (fused.inlined, fused.called) == (3, 0)  # settle; sync + comb

        spy = rtl.add_signal("spy", 8)
        a = rtl.signals["a"].index

        def handwritten(v, m, nba, nbm):
            nba.append((spy.index, v[a] ^ 0xFF))

        proc = rtl.add_sync(handwritten, rtl.signals["clk"],
                            reads={a}, writes={spy.index})
        assert proc.body is None and proc.source is None
        cg = RTLSimulator(rtl)
        it = RTLSimulator(rtl, backend="interp")
        prog = cg._codegen
        assert (prog.inlined, prog.called) == (3, 1)
        assert "_fn0(v, m, nba, nbm)" in prog.source
        assert "nba = []" in prog.source and "nbm = []" in prog.source
        # the elaborated process of that edge is still inlined — with
        # its appends as the interpreter makes them
        q = rtl.signals["q"].index
        assert f"nba.append(({q}, " in prog.source
        assert f"_r{q}" not in prog.source
        rng = random.Random(7)
        for cycle in range(100):
            for pin, bits in (("a", 8), ("sel", 3), ("rst", 1)):
                value = rng.getrandbits(bits)
                for sim in (cg, it):
                    sim.poke(pin, value)
            for sim in (cg, it):
                sim.settle()
                sim.tick()
            assert cg.values == it.values and cg.mems == it.mems, cycle
        assert cg.peek("spy") == cg.peek("a") ^ 0xFF


#: sha256 of ``generated_source`` at -O0 as the text-based elaborator
#: (PR 21) printed it; re-pin only with a change to the design's HDL
O0_LISTING = {
    "bitonic": "fcda515e1f3c9891", "pmu": "e1a7a044240671bf",
    "rtlcache": "af59a2e2c93ae9ec", "rtlcache_coh": "2e16d5d9bfbda45a",
    "rtlcache_ecc": "8db86e1a1072e021",
}

#: sha256 of the fused program (``CodegenProgram.source``) per design and
#: instrumentation, and of each bundled wrapper's generated struct
#: exchange; re-pin only with a change to a design's HDL or to a codegen
#: lowering
PROGRAM = {
    "bitonic-plain": "7208c38e2f6a6f2d", "bitonic-instr": "6c8b22dbd7e54511",
    "pmu-plain": "453f694c22cb44c4", "pmu-instr": "f77a65e3171091ed",
    "rtlcache-plain": "4da6213426ef0c2b",
    "rtlcache-instr": "f17747d955982361",
    "rtlcache_coh-plain": "40809b99308ac595",
    "rtlcache_coh-instr": "16f991657e3dc19e",
    "rtlcache_ecc-plain": "3a836c2497273d6e",
    "rtlcache_ecc-instr": "bc99b87f067bbb83",
}
EXCHANGE = {
    BitonicSharedLibrary: "6aa13aa4d2c20bd5",
    PMUSharedLibrary: "45d142bc7d32df81",
    RTLCacheSharedLibrary: "a5eab34ed4f7f439",
    RTLCacheECCSharedLibrary: "37a60ebd9f46b71d",
    RTLCacheCohSharedLibrary: "35f910e5227e81cc",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestGeneratedSourceIsTheLiveBodies:
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_o0_dump_is_what_it_always_was(self, name, monkeypatch):
        # the listing names the file, which the cache key does not hold
        monkeypatch.setattr(ELAB_CACHE, "_designs", {})
        text = DESIGNS[name].compile().generated_source
        assert _sha(text) == O0_LISTING[name]

    @pytest.mark.parametrize("name,instr", CELLS)
    def test_fused_program_is_what_it_always_was(self, name, instr,
                                                 monkeypatch):
        monkeypatch.setattr(ELAB_CACHE, "_designs", {})
        rtl = DESIGNS[name].compile(instrument=instr)
        source = build_program(rtl, rtl.levelize()).source
        tag = "instr" if instr else "plain"
        assert _sha(source) == PROGRAM[f"{name}-{tag}"]

    @pytest.mark.parametrize("cls", EXCHANGE, ids=lambda c: c.__name__)
    def test_exchange_is_what_it_always_was(self, cls, monkeypatch):
        monkeypatch.setattr(ELAB_CACHE, "_designs", {})
        assert _sha(cls()._exchange.source) == EXCHANGE[cls]
