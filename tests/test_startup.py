"""Start-up cost: importing the package and running the theory commands loads no scipy.

The Lifshitz engine needs no scipy: its Gauss-Laguerre nodes are package
data and its plasma n = 0 TE integral is a numpy rule.  scipy is imported
where it is still used, the force spline and the background fit, so
``--version``, ``tilt-estimate``, a background-only ``simulate``, ``kk``,
``force`` (every model), ``correct`` and ``correct --emit fig1`` never pay
for it.  Each check runs in a fresh interpreter, because this test process
has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casfluct

SRC = str(Path(casfluct.__file__).resolve().parents[1])

# step -> CLI argv; each runs in turn in one fresh interpreter
_SCIPY_FREE_STEPS = {
    "tilt-estimate": ["tilt-estimate", "-o", "tilt.json"],
    "background-only simulate": ["simulate", "--trials", "10", "--duration", "1000", "--dt", "0.05",
                                 "--f-lo", "0.1", "-o", "sim.json"],
    "kk": ["kk", "--table", "optical.csv", "-o", "eps.csv"],
    "force-perfect": ["force", "--model", "perfect", "--points", "5", "-o", "perfect.csv"],
    "force-plasma": ["force", "--model", "plasma", "--points", "5", "-o", "plasma.csv"],
    "force-drude": ["force", "--model", "drude", "--points", "5", "-o", "drude.csv"],
    "force-tabulated": ["force", "--model", "tabulated", "--eps-table", "eps.csv", "--points", "5",
                        "-o", "tabulated.csv"],
    "force --zero-temperature": ["force", "--zero-temperature", "--points", "5", "-o", "t0.csv"],
    "correct": ["correct", "--points", "5", "-o", "corrected.csv"],
    "correct --emit fig1": ["correct", "--emit", "fig1", "--points", "5", "-o", "fig1.csv"],
}

# prints, after each step, the scipy modules that the step left loaded
_SCIPY_FREE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import casfluct as cf, casfluct.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        casfluct.cli.main(["--version"])
    except SystemExit:
        pass
loaded["import + --version"] = scipy_modules()
with open("optical.csv", "w") as fh:
    fh.write("omega_ev,eps_imag\\n0.01,100.0\\n0.1,10.0\\n1.0,1.0\\n10.0,0.1\\n")
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

# each entry point -> (the call, the scipy submodule it must load)
_FIRST_USE = {
    "fit_background": (
        "cf.fit_background(cf.ForceDataset(d_um=np.array([3.0, 4.0, 5.0, 6.0]),"
        " force_udyne=215.0 / np.array([3.0, 4.0, 5.0, 6.0]), sigma_udyne=np.ones(4),"
        " n_samples=np.full(4, 100), bin_width_um=np.full(4, 0.2)))",
        "scipy.optimize",
    ),
    "TabulatedForceCurve": (
        "cf.TabulatedForceCurve([1e-6, 2e-6, 3e-6, 4e-6], [4.0, 3.0, 2.0, 1.0])",
        "scipy.interpolate",
    ),
}


def _run(cwd, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


def test_scipy_free_commands_load_no_scipy(tmp_path):
    loaded = json.loads(_run(tmp_path, _SCIPY_FREE, json.dumps(_SCIPY_FREE_STEPS)))
    steps = ["import + --version", *_SCIPY_FREE_STEPS, "plate_energy-drude", "plate_energy-plasma"]
    assert loaded == {step: [] for step in steps}
    for argv in _SCIPY_FREE_STEPS.values():
        assert (tmp_path / argv[-1]).exists()


@pytest.mark.parametrize("name", list(_FIRST_USE))
def test_first_use_loads_its_scipy_submodule(name, tmp_path):
    call, module = _FIRST_USE[name]
    code = (
        "import sys\nimport numpy as np\nimport casfluct as cf\n"
        f"before = {module!r} in sys.modules\n{call}\n"
        f"print(before, {module!r} in sys.modules)"
    )
    assert _run(tmp_path, code) == "False True"
