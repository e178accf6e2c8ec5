"""Start-up cost: importing the package and running scipy-free commands loads no scipy.

scipy is imported where it is used (the Laguerre nodes, the plasma n = 0 TE
integral, the force spline and the background fit), so ``--version``,
``tilt-estimate``, a background-only ``simulate`` and ``kk`` never pay for
it.  Each check runs in a fresh interpreter, because this test process has
scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casfluct

SRC = str(Path(casfluct.__file__).resolve().parents[1])

# prints, after each step, the scipy modules that the step left loaded
_SCIPY_FREE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import casfluct, casfluct.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        casfluct.cli.main(["--version"])
    except SystemExit:
        pass
loaded["import + --version"] = scipy_modules()
rc = casfluct.cli.main(["tilt-estimate", "-o", "tilt.json"])
loaded["tilt-estimate"] = scipy_modules() if rc == 0 else f"exit {rc}"
rc = casfluct.cli.main(["simulate", "--trials", "10", "--duration", "1000", "--dt", "0.05",
                        "--f-lo", "0.1", "-o", "sim.json"])
loaded["background-only simulate"] = scipy_modules() if rc == 0 else f"exit {rc}"
with open("optical.csv", "w") as fh:
    fh.write("omega_ev,eps_imag\\n0.01,100.0\\n0.1,10.0\\n1.0,1.0\\n10.0,0.1\\n")
rc = casfluct.cli.main(["kk", "--table", "optical.csv", "-o", "eps.csv"])
loaded["kk"] = scipy_modules() if rc == 0 else f"exit {rc}"
print(json.dumps(loaded))
"""

# each entry point -> (the call, the scipy submodule it must load)
_FIRST_USE = {
    "plate_energy-drude": ("cf.plate_energy(cf.GOLD_DRUDE, 1e-6, 300.0)", "scipy.special"),
    "plate_energy-plasma": ("cf.plate_energy(cf.GOLD_PLASMA, 1e-6, 300.0)", "scipy.integrate"),
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


def _run(code: str, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


def test_scipy_free_commands_load_no_scipy(tmp_path):
    loaded = json.loads(_run(_SCIPY_FREE, tmp_path))
    assert loaded == {
        "import + --version": [],
        "tilt-estimate": [],
        "background-only simulate": [],
        "kk": [],
    }
    for name in ("tilt.json", "sim.json", "eps.csv"):
        assert (tmp_path / name).exists()


@pytest.mark.parametrize("name", list(_FIRST_USE))
def test_first_use_loads_its_scipy_submodule(name, tmp_path):
    call, module = _FIRST_USE[name]
    code = (
        "import sys\nimport numpy as np\nimport casfluct as cf\n"
        f"before = {module!r} in sys.modules\n{call}\n"
        f"print(before, {module!r} in sys.modules)"
    )
    assert _run(code, tmp_path) == "False True"
