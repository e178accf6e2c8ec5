"""Every data file of the package is listed as package data, so an installed casfluct has it."""

import fnmatch
import importlib
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
SRC_LINE_CEILING = 3005


def test_src_line_count_stays_under_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CEILING


# The names the package imported one by one before it exported each layer's __all__.
EARLIER_NAMES = """
    BackgroundFit BandError Chi2Report ConstantProfile ConvergenceError DatasetError DomainError
    Drude ElectrostaticBackground ExperimentGeometry FitConvergenceError FitError ForceCurve
    ForceDataset GOLD_DRUDE GOLD_PLASMA OpticalAbsorptionTable PFAValidityError PerfectConductor
    Plasma ProcessSpec ScanResult SpherePlateForce SqrtLawProfile TableProfile Tabulated
    TabulatedForceCurve TimeAverageReport TotalForceEvaluator UnsupportedModelError
    VerificationRecord __version__ apparent_force chi2_sf chi_squared drude_loss_spectrum
    eps_imag_axis fit_background force_curve fourth_order_allowance inflated_sigma kk_transform
    load_dataset load_eps_table load_optical_table plate_energy plate_pressure sample_process
    save_dataset scan_delta sphere_plate_force tilt_noise_estimate time_averaged_force
    verify_second_order
""".split()
STAR_MODULES = ("analysis", "background", "corrections", "dataset", "lifshitz", "oracle", "permittivity")


def test_earlier_public_names_still_resolve():
    assert [name for name in EARLIER_NAMES if not hasattr(casfluct, name)] == []


@pytest.mark.parametrize("module", STAR_MODULES)
def test_package_exports_each_layer_all_unshadowed(module):
    layer = importlib.import_module(f"casfluct.{module}")
    assert [name for name in layer.__all__ if getattr(casfluct, name) is not getattr(layer, name)] == []
