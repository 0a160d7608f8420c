"""A process imports what it runs.

Each entry point runs in a fresh interpreter that reports the ``repro``
modules (and ``multiprocessing``) it ended up holding.  Only those
names are pinned, never a count of standard-library modules, so the
checks do not depend on the Python version.  DESIGN.md, "A process
imports what it runs", has the rule and the counts behind it.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

REPORT = """
def _report():
    import json, sys
    print("@@modules " + json.dumps(sorted(
        m for m in sys.modules
        if m == "repro" or m.startswith("repro.") or m == "multiprocessing")),
        flush=True)
"""


#: what ``repro serve`` holds when it announces its port: the simulator
#: core it pre-imports, the scheduler and the pool, and no experiment
SERVE_MODULES = {
    "multiprocessing", "repro", "repro.bridge", "repro.bridge.rtl_object",
    "repro.bridge.shared_library", "repro.bridge.structs", "repro.cli",
    "repro.experiment", "repro.parallel", "repro.parallel.cache",
    "repro.parallel.runner", "repro.rtl", "repro.rtl.codegen", "repro.rtl.ir",
    "repro.rtl.kernel", "repro.rtl.simulator", "repro.rtl.vcd", "repro.serve",
    "repro.serve.client", "repro.serve.scheduler", "repro.serve.server",
    "repro.serve.tenants", "repro.soc", "repro.soc.cache",
    "repro.soc.cache.cache", "repro.soc.cache.core", "repro.soc.cache.sets",
    "repro.soc.cpu", "repro.soc.cpu.core", "repro.soc.cpu.uop",
    "repro.soc.event", "repro.soc.interconnect", "repro.soc.interconnect.xbar",
    "repro.soc.iomaster", "repro.soc.mem", "repro.soc.mem.dram",
    "repro.soc.mem.ideal", "repro.soc.mem.physmem", "repro.soc.packet",
    "repro.soc.ports", "repro.soc.simobject", "repro.soc.stats",
    "repro.soc.system", "repro.soc.tlb", "repro.trace", "repro.trace.flags",
    "repro.trace.packets",
}


def _loaded(code: str, tmp_path, timeout: float = 120.0) -> set[str]:
    """The ``repro.*``/``multiprocessing`` modules *code* leaves loaded,
    or holds at its first own ``_report()`` call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, "-c", REPORT + textwrap.dedent(code) + "\n_report()"],
        env=env, cwd=str(tmp_path), capture_output=True, text=True,
        timeout=timeout, stdin=subprocess.DEVNULL,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("@@modules "):
            return set(json.loads(line[len("@@modules "):]))
    raise AssertionError(
        f"child reported no modules (exit {proc.returncode}):\n"
        f"{proc.stderr[-3000:]}")


def _under(mods: set[str], *prefixes: str) -> set[str]:
    return {m for m in mods
            if any(m == p or m.startswith(p + ".") for p in prefixes)}


def test_serve_client_loads_only_its_package(tmp_path):
    mods = _loaded("import repro.serve.client", tmp_path)
    assert mods == {"repro", "repro.serve", "repro.serve.client"}


def test_cli_help_loads_only_the_cli(tmp_path):
    mods = _loaded("""
        from repro.cli import main
        try:
            main(["--help"])
        except SystemExit:
            pass
    """, tmp_path)
    assert mods == {"repro", "repro.cli"}


def test_behavioural_nvdla_system_never_loads_the_rtl_kernel(tmp_path):
    mods = _loaded("""
        from repro.dse.nvdla_system import build_nvdla_system
        build_nvdla_system("sanity3", n_nvdla=4, memory="DDR4-4ch",
                           max_inflight=240, scale=0.25)
    """, tmp_path)
    assert "repro.dse.nvdla_system" in mods
    assert not _under(mods, "repro.rtl", "repro.hdl", "repro.parallel",
                      "multiprocessing")


def test_pmu_run_loads_no_nvdla_pool_power_or_chrome(tmp_path):
    mods = _loaded("""
        from repro.dse.pmu_experiment import build_pmu_system, run_fig5
        build_pmu_system(n_sort=20, sleep_cycles=2000)
        run_fig5(n_sort=20, interval_cycles=2000, sleep_cycles=2000)
    """, tmp_path)
    assert "repro.rtl.simulator" in mods  # the PMU is RTL
    assert not _under(mods, "repro.models.nvdla", "repro.parallel",
                      "multiprocessing", "repro.rtl.synth",
                      "repro.soc.power", "repro.trace.chrome",
                      "repro.resilience", "repro.trace.control")


@pytest.mark.skipif(not hasattr(os, "kill") or sys.platform == "win32",
                    reason="stops the server with SIGTERM")
def test_server_holds_the_simulator_core_when_it_listens(tmp_path):
    # reported the moment the server announces its port, then stopped
    mods = _loaded("""
        import os, signal, sys
        from repro.cli import main

        class Tap:
            def __init__(self, inner):
                self.inner = inner

            def write(self, text):
                if "listening on" in text:
                    _report()
                    os.kill(os.getpid(), signal.SIGTERM)
                return self.inner.write(text)

            def flush(self):
                self.inner.flush()

        sys.stderr = Tap(sys.stderr)
        main(["serve", "--port", "0", "--no-cache"])
    """, tmp_path)
    # exactly: a module more is import time inside every benchmark
    # repeat that spawns a server, a module less is paid by its first job
    assert mods == SERVE_MODULES


def test_experiment_help_loads_no_other_experiments_stack(tmp_path):
    mods = _loaded("""
        from repro.cli import main
        try:
            main(["fig5", "--help"])
        except SystemExit:
            pass
    """, tmp_path)
    assert not _under(mods, "repro.resilience", "repro.models.nvdla",
                      "repro.parallel", "multiprocessing")
