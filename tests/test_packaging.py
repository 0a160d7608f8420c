"""What a non-editable install ships.

HDL sources are read through ``importlib.resources``, so a data file
that ``pyproject.toml`` does not declare works from a checkout (and
under CI's ``pip install -e``) and is missing from a built package.
"""

import fnmatch
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_every_data_file_is_declared_package_data():
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    config = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
    declared = config["tool"]["setuptools"]["package-data"]

    data_files = 0
    for path in (SRC / "repro").rglob("*"):
        if not path.is_file() or path.suffix in (".py", ".pyc"):
            continue
        data_files += 1
        package = ".".join(path.parent.relative_to(SRC).parts)
        globs = declared.get(package, ())
        assert any(fnmatch.fnmatch(path.name, glob) for glob in globs), (
            f"{path.relative_to(ROOT)} matches no [tool.setuptools."
            f"package-data] glob of {package}: a non-editable install "
            f"would not ship it"
        )
    assert data_files, "no data files found: is the source layout intact?"
