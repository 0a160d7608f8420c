"""Comb-loop behaviour must not depend on the execution backend.

Three regressions:

* a genuine zero-delay loop raises :class:`CombLoopError` with the
  *identical* message (same offending processes) whichever backend was
  requested;
* a word-level-cyclic but convergent design makes codegen fall back to
  the interpreter cleanly — and still simulate correctly;
* ``levelize()`` itself names the offending processes.
"""

from __future__ import annotations

import pytest

from repro.rtl.kernel import CombLoopError, RTLModule
from repro.rtl.simulator import RTLSimulator


def make_oscillator():
    """b = not a; a = b — a genuine zero-delay loop that never settles."""
    m = RTLModule("osc")
    m.add_signal("clk", 1, is_input=True)
    a = m.add_signal("a", 1)
    b = m.add_signal("b", 1)

    def inv(v, mm):
        v[b.index] = (~v[a.index]) & 1

    def fwd(v, mm):
        v[a.index] = v[b.index]

    m.add_comb(inv, {a.index}, {b.index}, name="inv")
    m.add_comb(fwd, {b.index}, {a.index}, name="fwd")
    return m


def make_convergent_cycle():
    """Word-level cyclic, bit-level convergent (distinct bits feed back)."""
    m = RTLModule("conv")
    m.add_signal("clk", 1, is_input=True)
    x = m.add_signal("x", 1, is_input=True)
    a = m.add_signal("a", 4)
    b = m.add_signal("b", 4)

    def f1(v, mm):
        v[a.index] = (v[b.index] & 0b10) | v[x.index]

    def f2(v, mm):
        v[b.index] = ((v[a.index] & 1) << 1) | 0b100

    m.add_comb(f1, {b.index, x.index}, {a.index}, name="f1")
    m.add_comb(f2, {a.index}, {b.index}, name="f2")
    return m


class TestGenuineLoop:
    def test_same_error_both_backends(self):
        messages = {}
        for backend in ("codegen", "interp"):
            with pytest.raises(CombLoopError) as exc:
                RTLSimulator(make_oscillator(), backend=backend)
            messages[backend] = str(exc.value)
        assert messages["codegen"] == messages["interp"]
        assert "did not converge" in messages["codegen"]
        assert "'osc'" in messages["codegen"]

    def test_levelize_names_offending_processes(self):
        with pytest.raises(CombLoopError) as exc:
            make_oscillator().levelize()
        assert "inv" in str(exc.value)
        assert "fwd" in str(exc.value)


class TestConvergentFallback:
    def test_codegen_falls_back_to_interp(self):
        sim = RTLSimulator(make_convergent_cycle(), backend="codegen")
        assert sim.requested_backend == "codegen"
        assert sim.backend == "interp"

    def test_fallback_simulates_correctly(self):
        cg = RTLSimulator(make_convergent_cycle(), backend="codegen")
        it = RTLSimulator(make_convergent_cycle(), backend="interp")
        for x in (0, 1, 1, 0, 1):
            for sim in (cg, it):
                sim.poke("x", x)
                sim.settle()
                sim.tick()
            assert cg.values == it.values

    def test_fallback_supports_run_cycles(self):
        sim = RTLSimulator(make_convergent_cycle(), backend="codegen")
        sim.poke("x", 1)
        sim.settle()
        sim.run_cycles(10)
        assert sim.cycle == 10


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RTLSimulator(make_convergent_cycle(), backend="verilator")

    def test_acyclic_design_uses_codegen_by_default(self):
        m = RTLModule("triv")
        m.add_signal("clk", 1, is_input=True)
        i = m.add_signal("i", 8, is_input=True)
        o = m.add_signal("o", 8, is_output=True)
        m.add_comb(lambda v, mm: v.__setitem__(o.index, v[i.index]),
                   {i.index}, {o.index})
        sim = RTLSimulator(m)
        assert sim.backend == "codegen"
