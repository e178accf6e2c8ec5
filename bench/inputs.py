"""Seeded inputs for the casfluct benchmark.

Every workload draws its physical parameters from ``numpy.random.default_rng``
seeded with ``(seed, workload index)``, so one seed always gives the same
files byte for byte and the workloads do not share draws.  Only the values
change with the seed; grid sizes, row counts and option sets are fixed, so
the amount of work per pass stays the same from seed to seed.

The program under test sees only the files written here and the option
values in ``params``.  Generation is never timed.
"""

from __future__ import annotations

import os

import numpy as np

from casfluct.lifshitz import force_curve
from casfluct.permittivity import Drude, drude_loss_spectrum
from casfluct.units import UDYNE, ExperimentGeometry

UM = 1e-6
WORKLOADS = ("theory", "scan", "montecarlo")

# scan dataset layout: bins over [D_LO, D_HI] um, theory CSV rows over the same span
SCAN_BINS = 200
D_LO, D_HI = 0.6, 6.0
THEORY_ROWS = 60
ABSORPTION_ROWS = 400


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _draw(rng: np.random.Generator, lo: float, hi: float, digits: int = 6) -> float:
    """Uniform draw rounded so the value survives a trip through argv unchanged."""
    return round(float(rng.uniform(lo, hi)), digits)


def _csv_row(*values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _metal(rng: np.random.Generator) -> dict:
    return {"omega_p": _draw(rng, 8.6, 9.4), "gamma": _draw(rng, 0.030, 0.040)}


def theory(seed: int, workdir: str) -> dict:
    """Absorption table of a seeded Drude metal, plus the option values."""
    rng = _rng(seed, "theory")
    p = _metal(rng)
    p["beta"] = _draw(rng, 180.0, 250.0)
    p["delta_rms"] = _draw(rng, 0.06, 0.12)
    omega = np.geomspace(1e-4, 1e3, ABSORPTION_ROWS)
    loss = drude_loss_spectrum(Drude(p["omega_p"], p["gamma"]), omega)
    p["absorption"] = os.path.join(workdir, "absorption.csv")
    _write(p["absorption"], ["omega_ev,eps_imag"] + [_csv_row(w, e) for w, e in zip(omega, loss)])
    return p


def scan(seed: int, workdir: str) -> dict:
    """Binned dataset F = beta/d + F_drude + F''delta^2/2 + noise, and a theory CSV.

    The theory CSV is the noiseless corrected curve on a coarser grid that
    spans exactly the dataset's range, so ``chi2`` of the data against its
    ``F_apparent_udyne`` column has a reduced value near one.
    """
    rng = _rng(seed, "scan")
    p = _metal(rng)
    p["beta"] = _draw(rng, 180.0, 250.0)
    p["delta_rms"] = _draw(rng, 0.05, 0.15)
    beta = p["beta"] * UDYNE * UM
    delta = p["delta_rms"] * UM

    # a coarse Lifshitz curve behind a spline keeps generation cheap
    knots = np.geomspace(0.8 * D_LO, 1.2 * D_HI, 40) * UM
    casimir = force_curve(Drude(p["omega_p"], p["gamma"]), ExperimentGeometry(), knots).as_evaluator()

    def total(d):
        return beta / d + casimir(d)

    def apparent(d):
        return total(d) + 0.5 * (2.0 * beta / d**3 + casimir.curvature(d)) * delta**2

    step = (D_HI - D_LO) / (SCAN_BINS - 1)
    d_um = D_LO + step * np.arange(SCAN_BINS) + rng.uniform(-0.2, 0.2, SCAN_BINS) * step
    d_um[0], d_um[-1] = D_LO, D_HI
    sigma = rng.uniform(0.8, 1.2, SCAN_BINS)
    n_samples = rng.integers(20, 80, SCAN_BINS)
    force = apparent(d_um * UM) / UDYNE + sigma * rng.standard_normal(SCAN_BINS)
    p["data"] = os.path.join(workdir, "data.csv")
    _write(
        p["data"],
        ["d_um,force_udyne,sigma_udyne,n_samples,bin_width_um"]
        + [
            f"{_csv_row(d, f, s)},{int(n)},{_csv_row(step)}"
            for d, f, s, n in zip(d_um, force, sigma, n_samples)
        ],
    )

    grid = np.linspace(D_LO, D_HI, THEORY_ROWS)
    rows = []
    for g in grid:
        d = g * UM
        slope = -beta / d**2 + casimir.gradient(d)
        rows.append(
            _csv_row(g, total(d) / UDYNE, apparent(d) / UDYNE, p["delta_rms"], abs(slope) * delta / UDYNE)
        )
    p["theory"] = os.path.join(workdir, "theory.csv")
    _write(p["theory"], ["d_um,F_udyne,F_apparent_udyne,delta_rms_um,sigma_inflation_udyne"] + rows)
    return p


def montecarlo(seed: int, workdir: str) -> dict:
    """Separation, fluctuation and series seed for the two ``simulate`` runs.

    delta/d stays at or below 0.05, so every sampled separation stays well
    inside the spline span d +- 10 delta and the scatter law applies.
    """
    rng = _rng(seed, "montecarlo")
    p = _metal(rng)
    p["beta"] = _draw(rng, 180.0, 250.0)
    p["d"] = _draw(rng, 1.0, 2.0)
    p["delta_rms"] = _draw(rng, 0.02, 0.05 * p["d"])
    p["sim_seed"] = int(rng.integers(0, 2**31 - 1))
    return p


GENERATORS = {"theory": theory, "scan": scan, "montecarlo": montecarlo}


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's input files under ``workdir`` and return its parameters."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](seed, workdir)
