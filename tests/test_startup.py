"""Start-up cost: ``import casfluct`` loads no numpy, and no subcommand needs scipy.

The package and its CLI load numpy and each layer on first use: after
``--version``, ``--help`` or a missing subcommand no layer but
provenance is loaded, and ``kk`` loads only the layers it runs.

The Lifshitz engine reads its Gauss-Laguerre nodes from package data and
takes its plasma n = 0 TE integral by a numpy rule; the force spline and
the background fit's d0 search are numpy and pure-Python ports of scipy's
``CubicSpline`` and bounded ``minimize_scalar``.  scipy is only a test
dependency, the oracle those ports are checked against.  So every
subcommand runs in a fresh interpreter without loading scipy, and with
scipy made unimportable, as in an install of the runtime dependencies
alone.  Each check runs in a fresh interpreter, because this test process
has numpy, scipy and every layer loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casfluct
from casfluct.cli import _COMMANDS

SRC = str(Path(casfluct.__file__).resolve().parents[1])

# step -> CLI argv; each runs in turn in one fresh interpreter
_SCIPY_FREE_STEPS = {
    "tilt-estimate": ["tilt-estimate", "-o", "tilt.json"],
    "background-only simulate": ["simulate", "--trials", "10", "--duration", "1000", "--dt", "0.05",
                                 "--f-lo", "0.1", "-o", "sim.json"],
    "simulate --model drude": ["simulate", "--model", "drude", "--trials", "10", "--duration", "1000",
                               "--f-lo", "0.1", "-o", "sim-drude.json"],
    "kk": ["kk", "--table", "optical.csv", "-o", "eps.csv"],
    "force-perfect": ["force", "--model", "perfect", "--points", "5", "-o", "perfect.csv"],
    "force-plasma": ["force", "--model", "plasma", "--points", "5", "-o", "plasma.csv"],
    "force-drude": ["force", "--model", "drude", "--points", "5", "-o", "drude.csv"],
    "force-tabulated": ["force", "--model", "tabulated", "--eps-table", "eps.csv", "--points", "5",
                        "-o", "tabulated.csv"],
    "force --temperature 0": ["force", "--temperature", "0", "--points", "5", "-o", "t0.csv"],
    "correct": ["correct", "--points", "5", "-o", "corrected.csv"],
    "correct --emit fig1": ["correct", "--emit", "fig1", "--points", "5", "-o", "fig1.csv"],
    "fit-beta": ["fit-beta", "--data", "data.csv", "-o", "fit.json"],
    "fit-beta --subtract drude": ["fit-beta", "--data", "data.csv", "--subtract", "drude",
                                  "--d-min", "1", "-o", "fit-drude.json"],
    "chi2": ["chi2", "--data", "data.csv", "--theory", "theory.csv", "-o", "chi2.json"],
    "scan-delta": ["scan-delta", "--data", "data.csv", "--steps", "3", "-o", "scan.csv"],
}

# Runs the steps and prints, after each, the scipy modules it left loaded
# (or its exit code, if not 0).  With "blocked" as the second argument,
# scipy is made unimportable first: any import of it raises ImportError.
_RUN_STEPS = """
import contextlib, io, json, sys

if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None

def scipy_modules():
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and (m == "scipy" or m.startswith("scipy.")))

loaded = {}
import casfluct as cf, casfluct.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        casfluct.cli.main(["--version"])
    except SystemExit:
        pass
loaded["import + --version"] = scipy_modules()
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        rc = casfluct.cli.main(argv)
    loaded[name] = scipy_modules() if rc == 0 else f"exit {rc}"
cf.plate_energy(cf.GOLD_DRUDE, 1e-6, 300.0)
loaded["plate_energy-drude"] = scipy_modules()
cf.plate_energy(cf.GOLD_PLASMA, 1e-6, 300.0)
loaded["plate_energy-plasma"] = scipy_modules()
print(json.dumps(loaded))
"""


def _write_inputs(cwd: Path) -> None:
    (cwd / "optical.csv").write_text(
        "omega_ev,eps_imag\n0.01,100.0\n0.1,10.0\n1.0,1.0\n10.0,0.1\n")
    d_um = [0.62, 0.8, 1.0, 1.5, 2.2, 3.0, 4.0, 5.0, 6.0]
    (cwd / "data.csv").write_text("d_um,force_udyne,sigma_udyne,n_samples,bin_width_um\n" + "".join(
        f"{d},{215.0 / d + 33.76 / d**3:.4f},3.0,100,0.2\n" for d in d_um))
    (cwd / "theory.csv").write_text("d_um,F_udyne\n" + "".join(
        f"{0.5 + 0.25 * i},{215.0 / (0.5 + 0.25 * i) + 33.76 / (0.5 + 0.25 * i) ** 3!r}\n"
        for i in range(25)))


def _python(cwd: Path, code: str, *args: str, flags: tuple = ()):
    """The JSON of the last line a fresh interpreter, started with ``flags``, running ``code`` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(cwd: Path, scipy: str) -> dict:
    _write_inputs(cwd)
    return _python(cwd, _RUN_STEPS, json.dumps(_SCIPY_FREE_STEPS), scipy)


def test_steps_cover_every_subcommand():
    assert {argv[0] for argv in _SCIPY_FREE_STEPS.values()} == set(_COMMANDS)


def _check_every_step_ran(loaded: dict, cwd: Path) -> None:
    steps = ["import + --version", *_SCIPY_FREE_STEPS, "plate_energy-drude", "plate_energy-plasma"]
    assert loaded == {step: [] for step in steps}
    for argv in _SCIPY_FREE_STEPS.values():
        assert (cwd / argv[-1]).exists()


def test_scipy_free_commands_load_no_scipy(tmp_path):
    _check_every_step_ran(_run(tmp_path, "importable"), tmp_path)


def test_every_subcommand_runs_without_scipy(tmp_path):
    """A runtime-only install has no scipy: an import of it would end the run."""
    _check_every_step_ran(_run(tmp_path, "blocked"), tmp_path)


# Runs each argv in turn through main and prints, after each, its exit code
# and the numpy and casfluct submodules then loaded.
_LOADED_AFTER = """
import contextlib, io, json, sys
import casfluct, casfluct.cli

loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = casfluct.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    loaded.append([rc, sorted(m for m in sys.modules if m == "numpy" or m.startswith("casfluct."))])
print(json.dumps(loaded))
"""


def test_version_help_and_no_subcommand_load_no_numpy(tmp_path):
    steps = [["--version"], ["--help"], []]
    lean = ["casfluct.cli", "casfluct.provenance"]
    assert _python(tmp_path, _LOADED_AFTER, json.dumps(steps)) == [[0, lean], [0, lean], [2, lean]]


# Runs --version and --help through main and prints which of OpenSSL's hashlib
# binding and tempfile are then loaded.  The interpreter starts without site
# (-S), whose .pth hooks may load either before casfluct is imported.
_STDLIB_AFTER = """
import contextlib, io, json, sys
import casfluct.cli

for argv in (["--version"], ["--help"]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            casfluct.cli.main(argv)
        except SystemExit:
            pass
print(json.dumps([m for m in ("_hashlib", "tempfile") if m in sys.modules]))
"""


def test_version_and_help_load_no_hashlib_or_tempfile(tmp_path):
    assert _python(tmp_path, _STDLIB_AFTER, flags=("-S",)) == []


def test_kk_loads_only_the_layers_it_runs(tmp_path):
    _write_inputs(tmp_path)
    kk = ["kk", "--table", "optical.csv", "-o", "eps.csv"]
    [[rc, loaded]] = _python(tmp_path, _LOADED_AFTER, json.dumps([kk]))
    assert rc == 0 and (tmp_path / "eps.csv").exists()
    assert "numpy" in loaded and "casfluct.permittivity" in loaded
    unused = ("lifshitz", "oracle", "analysis", "background", "corrections")
    assert [m for m in loaded if m.split(".")[-1] in unused] == []


LAYERS = ("analysis", "background", "corrections", "dataset", "lifshitz", "oracle", "permittivity")

# The package's lazy exports: a submodule import loads that module alone,
# dir() lists every exported name, and the star import binds them all.
_LAZY_EXPORTS = """
import importlib, json, sys
from casfluct import cli
numpy_after_cli = "numpy" in sys.modules
from casfluct import lifshitz
import casfluct
exported = ["DomainError", "ExperimentGeometry"]
for layer in json.loads(sys.argv[1]):
    exported += importlib.import_module("casfluct." + layer).__all__
star = {}
exec("from casfluct import *", star)
print(json.dumps({
    "numpy after cli": numpy_after_cli,
    "lifshitz is the submodule": lifshitz is sys.modules["casfluct.lifshitz"],
    "missing from dir": [n for n in exported + ["__version__"] if n not in dir(casfluct)],
    "missing from star import": [n for n in exported if star.get(n) is not getattr(casfluct, n)],
    "unknown name": hasattr(casfluct, "no_such_name"),
}))
"""


def test_package_exports_load_on_first_use(tmp_path):
    assert _python(tmp_path, _LAZY_EXPORTS, json.dumps(LAYERS)) == {
        "numpy after cli": False,
        "lifshitz is the submodule": True,
        "missing from dir": [],
        "missing from star import": [],
        "unknown name": False,
    }
