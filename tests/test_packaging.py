"""Every data file of the package is listed as package data, so an installed casfluct has it."""

import fnmatch
import sys
from pathlib import Path

import pytest

import casfluct

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(casfluct.__file__).resolve().parent


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_data_file_matches_a_package_data_glob():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["casfluct"]
    data = [
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts
    ]
    assert "laguerre_nodes.npy" in data
    assert [name for name in data if not any(fnmatch.fnmatch(name, g) for g in globs)] == []


# `wc -l src/casfluct/*.py` at the last change to the package's size.  A change
# that grows src/ raises this in the same diff and says why in CHANGES.md.
SRC_LINE_CEILING = 3046


def test_src_line_count_stays_under_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CEILING
