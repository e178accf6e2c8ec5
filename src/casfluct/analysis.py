"""Chi-squared model comparison, tail probabilities and fluctuation-amplitude scans.

Tail probabilities are computed exactly: the finite Poisson sum for even
degrees of freedom while exp(-x/2) keeps its digits, and the regularized
incomplete gamma function (series or Lentz continued fraction) otherwise.
Asymptotic approximations are deliberately avoided because the
interesting values live in the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import ForceDataset
from .units import ConvergenceError, DomainError, check_amplitude, check_samples

__all__ = [
    "Chi2Report",
    "evaluate_theory",
    "chi2_sf",
    "chi_squared",
    "ScanResult",
    "scan_delta",
]

_EPS = 1e-16
_MAX_ITER = 600
_SCAN_BLOCK = 1 << 12  # elements of one (steps x bins) block of scan_delta: 32 KiB a temporary


def evaluate_theory(theory: Callable, d_m: np.ndarray) -> np.ndarray:
    """``theory`` at every separation of ``d_m`` (meters), as a float array.

    ``theory`` is called once, on the whole array, and whatever it raises
    reaches the caller unchanged: a :class:`DomainError` of an evaluator
    names the separation outside its domain.  A result that is not one
    float per separation raises :class:`TypeError`.
    """
    out = np.asarray(theory(d_m))
    if out.dtype.kind != "f" or out.shape != d_m.shape:
        raise TypeError(
            f"theory must return one float per separation, shape {d_m.shape}; "
            f"got {out.dtype} of shape {out.shape}"
        )
    return out.astype(float, copy=False)


def _upper_gamma_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x), NR-style series/CF split."""
    max_iter = _MAX_ITER + int(10.0 * math.sqrt(a))  # the series takes ~8 sqrt(a) at x ~ a
    if a <= 5e3:  # x^a e^-x / Gamma(a), whose terms of size ~a log a cancel as a grows
        prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    else:  # past k = 1e4, the same from u = (x - a)/a and lgamma's Stirling remainder to 1/a^3
        u = (x - a) / a
        prefactor = math.exp(-a * (u - math.log1p(u)) + 0.5 * math.log(a / (2.0 * math.pi))
                             - 1.0 / (12.0 * a) + 1.0 / (360.0 * a**3))
    if x < a + 1.0:
        # lower series, then complement
        term = 1.0 / a
        total = term
        n = a
        for _ in range(max_iter):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        else:
            raise ConvergenceError(f"Q({a:g}, {x:g}): series unconverged", total, max_iter)
        p = total * prefactor
        return min(max(1.0 - p, 0.0), 1.0)
    # Lentz continued fraction for the upper function
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ConvergenceError(f"Q({a:g}, {x:g}): continued fraction unconverged", h, max_iter)
    q = h * prefactor
    return min(max(q, 0.0), 1.0)


def chi2_sf(x: float, k: int) -> float:
    """Upper-tail probability P(X >= x) for a chi-squared variable, k d.o.f.

    Even k with x/2 <= 700 uses the exact finite sum exp(-x/2) *
    sum_{j<k/2} (x/2)^j / j!, whose first term loses digits past that; every
    other k goes through the regularized incomplete gamma function.  Absolute
    accuracy is ~1e-12 up to k = 1e4 (5e-12 there), and 3e-14 at k = 1e7
    within 8 sqrt(2k) of x = k, where the gamma prefactor avoids cancellation.
    """
    check_amplitude("chi2 statistic", x)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"degrees of freedom must be an integer >= 1, got {k}")
    if x == 0.0:
        return 1.0
    m = 0.5 * x
    if k % 2 == 0 and m <= 700.0:
        term = math.exp(-m)
        total = term
        for j in range(1, k // 2):
            term *= m / j
            total += term
        return min(total, 1.0)
    return _upper_gamma_reg(0.5 * k, m)


@dataclass(frozen=True)
class Chi2Report:
    """Goodness-of-fit summary for one theory curve against one dataset."""

    chi2: float
    dof: int
    reduced: float
    p_value: float
    residuals: tuple[tuple[float, float], ...]  # (d_um, residual in sigma units)

    def to_json_dict(self) -> dict:
        return {
            "chi2": self.chi2,
            "dof": self.dof,
            "reduced": self.reduced,
            "p_value": self.p_value,
            "residuals": [
                {"d_um": d, "resid_sigma": r} for d, r in self.residuals
            ],
        }


def chi_squared(
    data: ForceDataset,
    theory: Callable,
    fitted_params: int = 0,
    dof_override: int | None = None,
) -> Chi2Report:
    """chi^2 = sum ((F_i - theory(d_i)) / sigma_i)^2 with explicit dof accounting.

    ``theory`` maps an array of separations in meters to forces in
    newtons; it is called once for all points (see :func:`evaluate_theory`).
    Degrees of freedom are never inferred: they are n - fitted_params, or
    exactly ``dof_override`` when given.
    """
    if fitted_params < 0:
        raise ValueError(f"fitted_params must be >= 0, got {fitted_params}")
    preds = evaluate_theory(theory, data.d_m)
    dof = dof_override if dof_override is not None else len(data) - fitted_params
    resid = (data.force_N - preds) / data.sigma_N
    chi2 = float(np.sum(resid**2))
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    return Chi2Report(
        chi2=chi2,
        dof=int(dof),
        reduced=chi2 / dof,
        p_value=chi2_sf(chi2, int(dof)),
        residuals=tuple(zip(data.d_um.tolist(), resid.tolist())),
    )


@dataclass(frozen=True)
class ScanResult:
    """chi^2 profile over a fluctuation-amplitude grid: chi^2, reduced chi^2 and p-value per delta."""

    deltas: tuple[float, ...]
    chi2: tuple[float, ...]
    reduced: tuple[float, ...]
    p_value: tuple[float, ...]
    dof: int
    argmin_delta: float


def scan_delta(data: ForceDataset, force: Callable, grid) -> ScanResult:
    """Profile chi^2 over a grid of rms-fluctuation amplitudes.

    Each amplitude delta scores the apparent force F + (1/2) F'' delta^2
    of the evaluator ``force`` (F itself at delta = 0): its chi^2, reduced
    chi^2 and p-value are those of ``chi_squared`` on
    ``apparent_force(force, ., delta)`` with ``fitted_params=1``, bit for
    bit.  F and ``force.curvature`` are each evaluated once, on all the
    points of ``data``; F'' is not asked for when the grid holds zero
    alone.  Ties break toward the smaller amplitude.
    """
    grid = check_samples(("grid",), grid)[0]
    check_amplitude("delta_rms", grid)
    dof = len(data) - 1
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    base = evaluate_theory(force, data.d_m)
    second = evaluate_theory(force.curvature, data.d_m) if np.any(grid) else np.zeros_like(base)
    deltas = grid.tolist()
    chi2 = []
    # (steps x bins) blocks, each row summed on its own; delta**2 by Python's pow, which numpy's square can miss
    steps = max(1, _SCAN_BLOCK // base.size)
    for lo in range(0, len(deltas), steps):
        sq = np.array([delta**2 for delta in deltas[lo : lo + steps]])[:, None]
        pred = np.where(sq > 0.0, base + 0.5 * second * sq, base)  # apparent_from_values, F itself at 0
        chi2 += np.sum(((data.force_N - pred) / data.sigma_N) ** 2, axis=1).tolist()
    return ScanResult(
        deltas=tuple(deltas),
        chi2=tuple(chi2),
        reduced=tuple(c / dof for c in chi2),
        p_value=tuple(chi2_sf(c, dof) for c in chi2),
        dof=dof,
        argmin_delta=deltas[int(np.argmin(chi2))],  # first minimum = smallest delta
    )
