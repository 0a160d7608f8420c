"""The coverage identity invariant: interp == codegen, bit for bit.

Statement counters are compiled into the shared generated source, and
toggle/FSM coverage observes only architectural values — so for any
stimulus the two backends must report *identical* coverage.  This file
enforces that over every bundled design and several stimulus shapes.
"""

from __future__ import annotations

import pytest

from repro.hdl.common import CoverageOptions
from repro.hdl.verilog import compile_verilog
from repro.rtl import RTLSimulator
from repro.rtl.codegen import build_program
from repro.verify import CoverageCollector, Stimulus, design_names, get_design


def coverage_for(design, backend: str, stim: Stimulus) -> dict:
    sim = design.make_sim(backend=backend, instrument=CoverageOptions())
    collector = CoverageCollector(sim)
    stim.apply(sim, collector)
    doc = collector.report().to_dict()
    doc.pop("backend")
    return doc


@pytest.mark.parametrize("name", design_names())
@pytest.mark.parametrize("strategy", ("uniform", "weighted", "reset_pulse"))
def test_identical_coverage_across_backends(name, strategy):
    design = get_design(name)
    stim = Stimulus(strategy, seed=11, cycles=48)
    interp = coverage_for(design, "interp", stim)
    codegen = coverage_for(design, "codegen", stim)
    assert interp == codegen


@pytest.mark.parametrize("name", design_names())
def test_statement_points_exist_and_count(name):
    design = get_design(name)
    sim = design.make_sim(instrument=CoverageOptions())
    collector = CoverageCollector(sim)
    Stimulus("uniform", 5, 32).apply(sim, collector)
    report = collector.report()
    assert report.statement_total > 0
    assert report.statement_covered > 0
    assert sum(p["hits"] for p in report.statement) > 0


def test_uninstrumented_design_has_no_points():
    design = get_design("pmu")
    module = design.compile()  # no instrument
    assert module.coverage_points == []
    assert all(not s.name.startswith("__cov__")
               for s in module.signals.values())


@pytest.mark.parametrize("name", ("rtlcache", "pmu"))
def test_coverage_off_compiles_the_uninstrumented_kernel(name):
    """Coverage that is not asked for costs nothing by construction: an
    all-off ``CoverageOptions`` yields the uninstrumented compile's
    fused kernel byte for byte (and no hidden signals); counters enter
    the source only when instrumentation is on."""
    def fused_source(module) -> str:
        return build_program(module, module.levelize()).source

    design = get_design(name)
    plain = design.compile()
    disabled = design.compile(
        CoverageOptions(statement=False, toggle=False, fsm=False)
    )
    instrumented = design.compile(CoverageOptions())
    for module in (plain, disabled):
        assert module.coverage_points == []
        assert not any(s.name.startswith("__cov__")
                       for s in module.signals.values())
    assert instrumented.coverage_points
    assert fused_source(plain) == fused_source(disabled)
    assert fused_source(plain) != fused_source(instrumented)


FSM_V = """
module fsm(input clk, input rst, input go, output reg out);
    reg [1:0] state;
    always @(posedge clk) begin
        if (rst) begin
            state <= 2'd0;
            out <= 1'b0;
        end else begin
            case (state)
                2'd0: if (go) state <= 2'd1;
                2'd1: state <= 2'd2;
                2'd2: begin state <= 2'd0; out <= 1'b1; end
                default: state <= 2'd0;
            endcase
        end
    end
endmodule
"""


class TestFSMCoverage:
    def make(self, backend: str = "codegen") -> RTLSimulator:
        module = compile_verilog(FSM_V, top="fsm", filename="fsm.v",
                                 instrument=CoverageOptions())
        return RTLSimulator(module, backend=backend)

    def test_fsm_detected_at_elaboration(self):
        sim = self.make()
        infos = sim.module.fsm_infos
        assert len(infos) == 1
        assert infos[0].signal == "state"
        assert set(infos[0].states) == {0, 1, 2}

    def test_states_and_edges_recorded(self):
        sim = self.make()
        collector = CoverageCollector(sim)
        sim.reset()
        collector.sample()
        sim.poke("go", 1)
        collector.run_and_sample(8)
        report = collector.report()
        (entry,) = report.fsm
        assert entry["visited_states"] == [0, 1, 2]
        assert [0, 1] in entry["edges"] and [1, 2] in entry["edges"]
        assert report.fsm_state_covered == 3

    def test_fsm_coverage_identical_across_backends(self):
        docs = []
        for backend in ("interp", "codegen"):
            sim = self.make(backend)
            collector = CoverageCollector(sim)
            Stimulus("weighted", 3, 40).apply(sim, collector)
            doc = collector.report().to_dict()
            doc.pop("backend")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestToggleCoverage:
    def test_toggle_bits_accumulate(self):
        design = get_design("pmu")
        sim = design.make_sim(instrument=CoverageOptions())
        collector = CoverageCollector(sim)
        Stimulus("uniform", 9, 64).apply(sim, collector)
        report = collector.report()
        assert 0 < report.toggle_covered <= report.toggle_total
        by_name = {s["name"]: s for s in report.toggle}
        # a free-toggling input must show both transition directions
        assert by_name["wdata"]["t01_bits"] > 0
        assert by_name["wdata"]["t10_bits"] > 0

    def test_hidden_counters_not_in_toggle_report(self):
        design = get_design("pmu")
        sim = design.make_sim(instrument=CoverageOptions())
        collector = CoverageCollector(sim)
        Stimulus("uniform", 9, 16).apply(sim, collector)
        assert all(not s["name"].startswith("__cov__")
                   for s in collector.report().toggle)


class TestEnableDisable:
    def test_disabled_window_excludes_statement_hits(self):
        design = get_design("pmu")
        sim = design.make_sim(instrument=CoverageOptions())
        collector = CoverageCollector(sim)
        sim.reset()
        collector.sample()
        collector.disable()
        sim.tick(20)           # counters tick in the kernel regardless
        collector.enable()
        hits_after_blind_window = sum(collector.statement_hits())
        collector.run_and_sample(10)
        hits_final = sum(collector.statement_hits())
        # the blind window contributed nothing; the live window did
        blind = hits_after_blind_window
        sim2 = design.make_sim(instrument=CoverageOptions())
        c2 = CoverageCollector(sim2)
        sim2.reset()
        c2.sample()
        baseline = sum(c2.statement_hits())
        assert blind == baseline
        assert hits_final > hits_after_blind_window
