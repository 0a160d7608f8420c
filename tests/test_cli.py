"""CLI: argument handling and the compile command end-to-end."""

import pathlib

import pytest

from repro.cli import _name_int, build_parser, main

PMU_V = pathlib.Path("src/repro/models/pmu/pmu.v")
BITONIC_VHDL = pathlib.Path("src/repro/models/bitonic/bitonic.vhdl")


class TestParamParsing:
    def test_basic(self):
        assert [_name_int(p) for p in ("W=8", "N=0x10")] == [("W", 8),
                                                            ("N", 16)]

    def test_missing_equals_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "x.v", "--param", "W8"])


class TestMalformedArguments:
    """A bad value exits 2 through argparse, before any command runs."""

    @pytest.mark.parametrize("argv", [
        ["compile", str(PMU_V), "--param", "IDXW=abc"],
        ["fig5", "--intervals", "x"],
        ["table2", "--sizes", "5,x"],
        ["dse", "--inflight", "1,x"],
        ["dse", "--memories", "BOGUS"],
        ["verify", "coherence", "--sharers", "x"],
        ["submit", "--tenant", "t", "--kind", "pmu_fig5",
         "--params-json", "{bad"],
        ["submit", "--tenant", "t", "--kind", "pmu_fig5",
         "--param", "broken"],
        ["campaign", "rtlcache", "--param", "broken"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_exits_2_without_traceback(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: argument" in err.splitlines()[-1]


class TestCompileErrors:
    """A bad HDL input ends in one line on stderr and exit 2."""

    FILES = {
        "broken.v": "module t(input a;\nendmodule\n",
        "two.v": "module a(); endmodule\nmodule b(); endmodule\n",
    }

    @pytest.mark.parametrize("args, message", [
        ([str(BITONIC_VHDL)], "multiple entities ['bitonic8', 'ce']"),
        (["{tmp}/two.v"], "multiple modules ['a', 'b']"),
        ([str(PMU_V), "--top", "nosuch"], "top module 'nosuch' not found"),
        ([str(PMU_V), "--param", "NOPE=3"], "unknown parameter 'NOPE'"),
        (["{tmp}/broken.v"], "broken.v:1:17: expected ')'"),
        (["{tmp}/missing.v"], "No such file or directory"),
    ], ids=["ambiguous-vhdl-top", "ambiguous-verilog-top", "unknown-top",
            "unknown-param", "syntax-error", "missing-file"])
    def test_exits_2_in_one_line(self, args, message, tmp_path, capsys):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        argv = ["compile"] + [a.format(tmp=tmp_path) for a in args]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("repro compile: error: ")
        assert message in line


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("compile", "fig5", "table2", "dse", "table3"):
            args = parser.parse_args(
                [cmd, "x.v"] if cmd == "compile" else [cmd]
            )
            assert args.command == cmd


class TestCompileCommand:
    def test_compile_verilog(self, capsys):
        rc = main(["compile", str(PMU_V), "--param", "NCOUNTERS=8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top module : pmu" in out
        assert "Verilator-equivalent" in out

    def test_compile_vhdl(self, capsys):
        rc = main(["compile", str(BITONIC_VHDL), "--top", "bitonic8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top module : bitonic8" in out
        assert "GHDL-equivalent" in out

    def test_free_run_with_vcd(self, tmp_path, capsys):
        vcd = tmp_path / "pmu.vcd"
        rc = main([
            "compile", str(PMU_V), "--param", "NCOUNTERS=4",
            "--ticks", "10", "--vcd", str(vcd),
        ])
        assert rc == 0
        assert vcd.exists()
        assert "$enddefinitions" in vcd.read_text()
        assert "free-ran 10 cycles" in capsys.readouterr().out

    def test_show_code(self, capsys):
        rc = main(["compile", str(PMU_V), "--show-code"])
        assert rc == 0
        assert "def _sync" in capsys.readouterr().out

    def test_show_code_prints_the_processes_it_counted(self, tmp_path, capsys):
        """--show-code prints every process the summary counts, as
        written: a constant net stays a process of its own."""
        src = tmp_path / "t.v"
        src.write_text(
            "module t(input [3:0] a, output [3:0] y);\n"
            "  wire [3:0] k; wire [3:0] z;\n"
            "  assign k = 4'd3; assign z = k + 4'd1; assign y = a & z;\n"
            "endmodule\n"
        )
        assert main(["compile", str(src), "--show-code"]) == 0
        out = capsys.readouterr().out
        assert "processes  : 3 comb, 0 sync" in out
        assert out.count("def _comb_") == 3
        assert "+ (1)" in out


class TestExperimentCommands:
    def test_tiny_dse(self, capsys):
        rc = main([
            "dse", "--workload", "sanity3", "--nvdla", "1",
            "--inflight", "8", "--memories", "HBM", "--scale", "0.1",
            "--no-cache",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HBM" in out and "normalized" in out
        assert "jobs=1" in out

    def test_tiny_dse_cached(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = [
            "dse", "--workload", "sanity3", "--nvdla", "1",
            "--inflight", "8", "--memories", "HBM", "--scale", "0.1",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hit(s), 2 miss(es)" in first   # ideal + HBM@8
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in second

    def test_injected_dse_neither_reads_nor_writes_the_cache(
            self, capsys, monkeypatch, tmp_path):
        """An injected run is not the clean point its cache key names:
        it must not store its ticks there, or a later plain run reads
        a normalised speed above the ideal memory's."""
        from repro.resilience import control
        from repro.soc.simobject import startup_hooks

        monkeypatch.setattr(control, "worker_plan", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = [
            "dse", "--workload", "sanity3", "--nvdla", "1",
            "--inflight", "8", "--memories", "HBM", "--scale", "0.1",
        ]
        try:
            assert main(argv + ["--inject", "retry-storm@200:20000"]) == 0
        finally:
            startup_hooks.clear()
        assert "hit(s)" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 hit(s), 2 miss(es)" in capsys.readouterr().out

    def test_parallel_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["dse", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4 and args.no_cache
        args = parser.parse_args(["fig5", "--intervals", "4000,8000",
                                  "--jobs", "2"])
        assert args.intervals == (4000, 8000) and args.jobs == 2
        args = parser.parse_args(["table3", "--jobs", "2"])
        assert args.jobs == 2


class TestTracingOptions:
    def test_trace_flags_parse_on_every_experiment_command(self):
        parser = build_parser()
        for cmd in ("fig5", "table2", "dse", "table3"):
            args = parser.parse_args([
                cmd, "--debug-flags", "Cache,DRAM",
                "--trace-out", "t.json",
                "--trace-start", "1000", "--trace-end", "2000",
            ])
            assert args.debug_flags == "Cache,DRAM"
            assert args.trace_out == "t.json"
            assert args.trace_start == 1000 and args.trace_end == 2000

    def test_flag_listing_exits_before_running(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--debug-flags", "?"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("Cache", "Cache.MSHR", "DRAM", "RTL", "Packet"):
            assert name in out

    def test_trace_out_produces_loadable_json(self, tmp_path, capsys):
        import json

        from repro.trace.flags import (
            reset_flags,
            set_chrome_tracer,
            set_default_profiler,
        )

        path = tmp_path / "trace.json"
        try:
            rc = main([
                "dse", "--workload", "sanity3", "--nvdla", "1",
                "--inflight", "8", "--memories", "HBM", "--scale", "0.05",
                "--no-cache", "--debug-flags", "Cache",
                "--trace-out", str(path),
            ])
        finally:
            reset_flags()
            set_chrome_tracer(None)
            set_default_profiler(None)
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestInjectErrors:
    """Malformed --inject specs die with a one-line diagnostic, exit 2."""

    def test_malformed_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--inject", "rtl-flip@20000:nosignal["])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1          # exactly one line
        assert "bad fault spec" in err
        assert "nosignal[" in err            # names the offending spec

    def test_unknown_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--inject", "no-such-kind@5"])
        assert exc.value.code == 2
        assert "no-such-kind" in capsys.readouterr().err


class TestResilienceFlags:
    """The sweep commands park one ``control.arm`` hook for the first
    simulation that starts, and only when a resilience flag is given."""

    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        from repro.resilience import control
        from repro.soc.simobject import startup_hooks

        monkeypatch.setattr(control, "worker_plan", None)
        startup_hooks.clear()
        yield startup_hooks
        startup_hooks.clear()

    @staticmethod
    def _park(argv):
        from repro.cli import _setup_resilience

        _setup_resilience(build_parser().parse_args(argv))

    def test_no_flag_parks_nothing(self, _isolated):
        self._park(["fig5"])
        assert _isolated == []

    def test_watchdog_interval_implies_watchdog(self, _isolated):
        from repro.resilience import control

        self._park(["table2", "--watchdog-interval", "2000"])
        (hook,) = _isolated
        assert hook.func is control.arm
        assert hook.keywords == {"plan": None,
                                 "watchdog": {"check_cycles": 2000},
                                 "checkpoints": None, "restore": None}

    def test_inject_is_the_worker_plan(self, _isolated):
        from repro.resilience import control

        self._park(["dse", "--inject", "worker-kill@1",
                    "--checkpoint-every", "500", "--checkpoint-dir", "d"])
        (hook,) = _isolated
        assert hook.keywords["plan"] is control.worker_plan
        assert [f.spec() for f in control.worker_plan.faults] == [
            "worker-kill@1"]
        assert hook.keywords["checkpoints"] == (500, "d")


class TestCampaignCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(
            ["campaign", "rtlcache", "--budget", "8", "--seed", "2",
             "--jobs", "2", "--param", "idxw=5", "--no-cache"]
        )
        assert args.command == "campaign"
        assert args.target == "rtlcache" and args.budget == 8
        assert args.param == [("idxw", "5")] and args.no_cache

    def test_list_targets(self, capsys):
        assert main(["campaign", "--list-targets"]) == 0
        out = capsys.readouterr().out
        for name in ("pmu", "rtlcache", "rtlcache_ecc"):
            assert name in out

    def test_missing_target_exits_2(self, capsys):
        assert main(["campaign"]) == 2
        assert "TARGET is required" in capsys.readouterr().err

    def test_unknown_target_exits_2(self, capsys):
        assert main(["campaign", "bogus"]) == 2
        assert "unknown campaign target" in capsys.readouterr().err

    def test_bad_param_exits_2(self, capsys):
        assert main(["campaign", "rtlcache", "--param", "nope=1"]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_end_to_end_report(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "camp"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = tmp_path / "report.json"
        rc = main(["campaign", "rtlcache", "--budget", "6", "--seed", "1",
                   "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "outcomes:" in out and "AVF:" in out
        doc = json.loads(report.read_text())
        assert doc["campaign"]["target"] == "rtlcache"
        assert sum(doc["histogram"].values()) == 6
