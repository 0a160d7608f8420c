"""Cross-backend equivalence: passes on bundled designs, and actually
catches (and localises) an injected divergence."""

from __future__ import annotations

import pytest

from repro.verify.designs import design_names, get_design
from repro.verify.equiv import check_equivalence
from repro.verify.stimulus import Stimulus, corner_stimuli


@pytest.mark.parametrize("name", design_names())
def test_bundled_designs_are_equivalent(name):
    design = get_design(name)
    result = check_equivalence(
        lambda backend: design.make_sim(backend=backend),
        design=name, seed=1, random_runs=2, cycles=32,
    )
    assert result.ok, result.format()
    assert not result.skipped
    assert result.stimuli_run == len(corner_stimuli(32)) + 2
    assert "PASS" in result.format()


class _Corrupted:
    """Wraps a simulator and flips one output bit from a given cycle."""

    def __init__(self, sim, signal: str, after_cycle: int) -> None:
        self._sim = sim
        self._signal = signal
        self._after = after_cycle
        self._ticks = 0

    def __getattr__(self, name):
        return getattr(self._sim, name)

    def tick(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self._sim.tick()
            self._ticks += 1
            if self._ticks > self._after:
                sig = self._sim.module.signals[self._signal]
                self._sim.values[sig.index] ^= 1


class TestDivergenceDetection:
    def test_injected_divergence_is_found_and_localised(self):
        design = get_design("pmu")

        def make_sim(backend):
            sim = design.make_sim(backend=backend)
            if backend == "codegen":
                return _Corrupted(sim, "rdata", after_cycle=3)
            return sim

        result = check_equivalence(make_sim, design="pmu", seed=1,
                                   random_runs=1, cycles=16)
        assert not result.ok
        d = result.divergence
        assert d.signal == "rdata"
        assert d.cycle >= 3
        assert d.interp_value != d.codegen_value
        assert "rdata" in result.format()
        assert "FAIL" in result.format()

    def test_corpus_stimuli_are_replayed(self):
        design = get_design("pmu")
        extra = [Stimulus("uniform", 12345, 8)]
        result = check_equivalence(
            lambda backend: design.make_sim(backend=backend),
            design="pmu", stimuli=extra, seed=0, random_runs=0, cycles=8,
        )
        assert result.ok
        assert result.stimuli_run == len(corner_stimuli(8)) + 1


class TestSkip:
    def test_interp_fallback_design_is_skipped(self):
        """A design the codegen backend can't fuse reports SKIPPED."""
        from repro.hdl.verilog import compile_verilog
        from repro.rtl.simulator import RTLSimulator

        # bit-by-bit self-dependency forces iterative settling, which
        # makes the codegen backend fall back to the interpreter
        src = """
        module ripple(input [1:0] a, output [1:0] s);
            assign s[0] = a[0];
            assign s[1] = s[0] ^ a[1];
        endmodule
        """
        module = compile_verilog(src, top="ripple", filename="ripple.v")

        def make_sim(backend):
            return RTLSimulator(module, backend=backend)

        probe = make_sim("codegen")
        if probe.backend == "codegen":
            pytest.skip("design unexpectedly fused; fixture needs updating")
        result = check_equivalence(make_sim, design="ripple")
        assert result.skipped
        assert result.ok
        assert "SKIPPED" in result.format()
