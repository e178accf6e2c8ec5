"""Every demo script, and the README's library quick start, runs to completion as a plain
script; demos 02 and 04 print the quadrature sums they compute inline.  Every line of the
README's CLI quick start parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import casfluct
from casfluct.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(casfluct.__file__).resolve().parents[1])


def _run(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# a line each of these demos must print: the quadrature sums they compute inline
PRINTS = {
    "02_fluctuation_correction": "budget: in-band 40 nm, out-of-band 100 nm, total 108 nm",
    "04_model_comparison": "-> excess scatter 2.725 (coarse-bin sigma units)",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    assert PRINTS.get(demo.stem, "") in _run(demo, tmp_path)


def test_readme_quick_start_exits_0(tmp_path):
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", readme, re.S).group(1)
    script = tmp_path / "quick_start.py"
    script.write_text(code)
    _run(script, tmp_path)


def test_readme_cli_quick_start_parses():
    """Parse only, nothing runs: a renamed or removed flag shows up as a README line that fails."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(CLI\)\n\n```bash\n(.*?)```", readme, re.S).group(1)
    lines = block.strip().splitlines()
    assert len(lines) >= 11 and all(line.startswith("casfluct ") for line in lines)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            _build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pytest.fail(f"README quick start line does not parse: {line}")
