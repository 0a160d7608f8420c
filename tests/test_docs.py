"""The docs say what the code does.

EXPERIMENTS.md quotes what the checked-in artifacts say: each artifact
test parses one ``benchmarks/out/*.txt``, renders its values at the
precision the prose uses and looks for that sentence in EXPERIMENTS.md.
Nothing is simulated: regenerate an artifact without updating the prose
(or the reverse) and this fails — the drift that let Table 3 read
180–250× in one file and 24–32× in the other.

Every ``repro`` import in a Python code block of the docs runs, so a
moved or renamed name cannot leave a quick start that no longer works.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"


def _prose() -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    return " ".join(text.split())  # quotes may wrap across lines


def _row(artifact: str, label: str) -> list[float]:
    """The numbers of the table row that starts with *label*."""
    for line in (OUT / artifact).read_text(encoding="utf-8").splitlines():
        cells = line.split()
        if cells and cells[0] == label:
            return [float(cell) for cell in cells[1:]]
    raise AssertionError(f"{artifact} has no {label!r} row")


def test_table2_ratios_are_the_artifact_to_one_decimal():
    prose = _prose()
    for label in ("gem5+PMU", "gem5+PMU+waveform"):
        cells = " | ".join(
            f"~{ratio:.1f}×" for ratio in _row("table2_pmu_overhead.txt", label)
        )
        assert f"| {label} | {cells} |" in prose


def test_table3_ratios_are_the_artifact_to_the_integer():
    perfect = _row("table3_nvdla_overhead.txt", "gem5+NVDLA+perfect-memory")
    ddr4 = _row("table3_nvdla_overhead.txt", "gem5+NVDLA+DDR4")
    prose = _prose()
    # columns: sanity3, googlenet
    assert (f"{perfect[0]:.0f}× vs {perfect[1]:.0f}× with perfect memory"
            in prose)
    assert f"{ddr4[0]:.0f}× vs {ddr4[1]:.0f}× with DDR4" in prose


def test_fig5_lost_events_are_the_artifact_totals():
    text = (OUT / "fig5_pmu_ipc.txt").read_text(encoding="utf-8")
    totals = re.search(
        r"totals: gem5 commits=(\d+) PMU commits=(\d+) "
        r"lost-to-reset/delay=(\d+)", text,
    )
    assert totals, "fig5_pmu_ipc.txt lost its totals line"
    commits, pmu_commits, lost = map(int, totals.groups())
    assert lost == commits - pmu_commits
    grouped = f"{commits:,}".replace(",", " ")
    assert (f"{lost} of {grouped} commits ({100 * lost / commits:.2f} %)"
            in _prose())


def _doc_imports(doc: str) -> list[str]:
    """The ``from repro… import …`` / ``import repro…`` statements in
    the ```python blocks of *doc*, parenthesised ones joined."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / doc).read_text(
        encoding="utf-8"), flags=re.M | re.S)
    statements = []
    for block in blocks:
        lines = iter(block.splitlines())
        for line in lines:
            if not re.match(r"(from|import) repro\b", line):
                continue
            statement = line
            if line.rstrip().endswith("("):
                for more in lines:
                    statement += "\n" + more
                    if more.strip().startswith(")"):
                        break
            statements.append(statement)
    return statements


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_every_doc_import_runs(doc):
    for statement in _doc_imports(doc):
        try:
            exec(compile(statement, doc, "exec"), {})
        except ImportError as err:
            raise AssertionError(f"{doc}: {statement!r}: {err}") from None


def test_the_readme_quick_start_imports_are_checked():
    assert len(_doc_imports("README.md")) >= 8
