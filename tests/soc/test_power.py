"""Event-count power model (the McPAT companion)."""

import pytest

from repro.soc.cpu import alu, load
from repro.soc.power import PowerCoefficients, estimate_power
from repro.soc.system import SoC, SoCConfig


def run_soc(n_loads=500, memory="DDR4-1ch"):
    soc = SoC(SoCConfig(num_cores=1, memory=memory))
    soc.cores[0].run_stream(
        u for i in range(n_loads) for u in (load(i * 64), alu(1))
    )
    soc.run_until_done()
    return soc


class TestPowerModel:
    def test_components_present(self):
        report = estimate_power(run_soc())
        names = {c.name for c in report.components}
        assert {"cores", "caches", "llc", "interconnect", "memory"} <= names

    def test_energy_positive_and_consistent(self):
        report = estimate_power(run_soc())
        assert report.total_nj > 0
        assert report.average_watts > 0
        assert report.total_nj == pytest.approx(
            sum(c.total_nj for c in report.components)
        )

    def test_energy_scales_with_activity(self):
        small = estimate_power(run_soc(n_loads=200))
        big = estimate_power(run_soc(n_loads=2000))
        assert big.component("cores").dynamic_nj > (
            3 * small.component("cores").dynamic_nj
        )
        assert big.component("memory").dynamic_nj > (
            3 * small.component("memory").dynamic_nj
        )

    def test_dram_static_scales_with_channels(self):
        one = estimate_power(run_soc(memory="DDR4-1ch"))
        four = estimate_power(run_soc(memory="DDR4-4ch"))
        # per-channel background power
        ratio = (
            four.component("memory").static_nj
            / four.sim_seconds
        ) / (one.component("memory").static_nj / one.sim_seconds)
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_custom_coefficients(self):
        soc = run_soc()
        base = estimate_power(soc)
        doubled = estimate_power(
            soc, PowerCoefficients(core_per_inst_pj=140.0)
        )
        assert doubled.component("cores").dynamic_nj > (
            base.component("cores").dynamic_nj
        )

    def test_rtl_component_uses_area_estimate(self):
        from repro.models.pmu import PMURTLObject, PMUSharedLibrary, load_pmu_source
        from repro.rtl.synth import estimate_verilog

        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        pmu = PMURTLObject(soc.sim, "pmu", PMUSharedLibrary(),
                           clock=soc.sim.default_clock)
        soc.attach_rtl_cpu_side(pmu)
        soc.cores[0].run_stream([alu(1)] * 2000)
        soc.run_until_done()
        pmu.stop()

        area = estimate_verilog(load_pmu_source(), top="pmu",
                                params={"NCOUNTERS": 20})
        with_area = estimate_power(soc, rtl_kluts={"pmu": area.luts / 1000})
        small = estimate_power(soc, rtl_kluts={"pmu": 0.1})
        assert with_area.component("rtl_models").dynamic_nj > (
            10 * small.component("rtl_models").dynamic_nj
        )

    def test_report_formatting(self):
        text = estimate_power(run_soc()).format_text()
        assert "cores" in text and "W average" in text

    def test_unknown_component_lookup(self):
        report = estimate_power(run_soc())
        with pytest.raises(KeyError):
            report.component("gpu")


class TestSynthEstimator:
    def test_pmu_matches_paper_order_of_magnitude(self):
        """Table 1 footnote: the PMU synthesises to ~5k LUTs on a KC705."""
        from repro.models.pmu import load_pmu_source
        from repro.rtl.synth import estimate_verilog

        report = estimate_verilog(load_pmu_source(), top="pmu",
                                  params={"NCOUNTERS": 20})
        assert 2_000 < report.luts < 10_000
        assert report.ram_bits == 2 * 20 * 32  # counters + thresholds

    def test_area_scales_with_parameters(self):
        from repro.models.pmu import load_pmu_source
        from repro.rtl.synth import estimate_verilog

        small = estimate_verilog(load_pmu_source(), top="pmu",
                                 params={"NCOUNTERS": 4})
        large = estimate_verilog(load_pmu_source(), top="pmu",
                                 params={"NCOUNTERS": 20})
        assert large.luts > 2 * small.luts

    def test_registers_counted_as_ffs(self):
        from repro.rtl.synth import estimate_verilog

        report = estimate_verilog("""
        module t (input clk, input [15:0] d, output [15:0] q);
            reg [15:0] r;
            always @(posedge clk) r <= d;
            assign q = r;
        endmodule
        """)
        assert report.ffs == 16

    def test_multiplier_dominates(self):
        from repro.rtl.synth import estimate_verilog

        report = estimate_verilog("""
        module t (input [15:0] a, input [15:0] b, output [15:0] y);
            assign y = a * b + 1;
        endmodule
        """)
        assert report.by_category["mul"] > report.by_category["arith"]

    def test_generate_multiplies_area(self):
        from repro.rtl.synth import estimate_verilog

        src = """
        module t #(parameter N = {n}) (input [31:0] a, output [31:0] y);
            wire [31:0] acc [0:N];
            genvar i;
            for (i = 0; i < N; i = i + 1) begin : g
                assign y[i] = a[i] & a[(i + 1) % 32];
            end
        endmodule
        """
        small = estimate_verilog(src.format(n=4), top="t")
        large = estimate_verilog(src.format(n=16), top="t")
        assert large.luts > 2 * small.luts

    def test_report_text(self):
        from repro.models.rtlcache import load_rtl_cache_source
        from repro.rtl.synth import estimate_verilog

        text = estimate_verilog(load_rtl_cache_source(),
                                top="rtl_cache").format_text()
        assert "LUTs" in text and "RAM bits" in text

    def test_ecc_configuration_costs_flops_and_ram(self):
        from repro.models.rtlcache import load_rtl_cache_source
        from repro.rtl.synth import estimate_verilog

        plain, ecc = (estimate_verilog(load_rtl_cache_source(),
                                       params={"IDXW": 4, "ECC": e})
                      for e in (0, 1))
        assert ecc.ffs > plain.ffs  # the correction counter
        assert ecc.ram_bits == plain.ram_bits + 8 * 16  # parity memory
