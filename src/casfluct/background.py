"""Electrostatic calibration background and total-force composition.

A residual contact potential between nominally grounded plates produces a
force beta/(d - d0) that dominates the dispersion force over most of the
measurement range.  It is fitted from long-distance points and then
composed with the Casimir curve, F = F_e + F_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import ForceDataset
from .lifshitz import float_or_array
from .units import UDYNE, DomainError

__all__ = [
    "ElectrostaticBackground",
    "FitError",
    "BackgroundFit",
    "fit_background",
    "TotalForceEvaluator",
]


class FitError(ValueError):
    """Background fit impossible: too few points or degenerate design."""


@dataclass(frozen=True)
class ElectrostaticBackground:
    """Inverse-distance background force beta/(d - d0), SI units.

    ``beta`` in N*m, ``d0`` in m.  Callable as a force evaluator, with
    gradient and curvature in closed form.
    """

    beta: float
    d0: float = 0.0
    beta_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not math.isfinite(self.d0):
            raise ValueError(f"d0 must be finite, got {self.d0}")
        if self.beta_sigma < 0:
            raise ValueError(f"beta_sigma must be >= 0, got {self.beta_sigma}")

    def _gap(self, d):
        d = np.asarray(d, dtype=float)
        gap = d - self.d0
        # one reduction, NaN skipped as `gap <= 0` skips it
        if np.fmin.reduce(gap, axis=None, initial=np.inf) <= 0:
            raise DomainError(f"require d > d0 = {self.d0:g}, got d = {float(d.min()):g}")
        return gap

    def force(self, d):
        return float_or_array(self.beta / self._gap(d))

    __call__ = force

    def gradient(self, d):
        return float_or_array(-self.beta / self._gap(d) ** 2)

    def curvature(self, d):
        return float_or_array(2.0 * self.beta / self._gap(d) ** 3)


@dataclass(frozen=True)
class BackgroundFit:
    """Fitted background with covariance-based uncertainties and diagnostics."""

    background: ElectrostaticBackground
    d0_sigma: float
    chi2: float
    dof: int
    points_used: int
    d0_at_bounds: bool

    def to_json_dict(self) -> dict:
        bg = self.background
        return {
            "beta_udyne_um": bg.beta / (UDYNE * 1e-6),
            "beta_sigma": bg.beta_sigma / (UDYNE * 1e-6),
            "d0_um": bg.d0 / 1e-6,
            "d0_sigma": self.d0_sigma / 1e-6,
            "chi2": self.chi2,
            "dof": self.dof,
            "points_used": self.points_used,
        }


def _beta_profile(d0: float, d, f, w) -> tuple[float, float]:
    """Closed-form weighted beta and chi^2 at a trial d0."""
    g = 1.0 / (d - d0)
    denom = float(np.sum(w * g * g))
    beta = float(np.sum(w * f * g)) / denom
    chi2 = float(np.sum(w * (f - beta * g) ** 2))
    return beta, chi2


_D0_BOUNDS = (-1e-6, 1e-6)  # m: the d0 search interval


def fit_background(
    data: ForceDataset,
    d_min: float = 2e-6,
    casimir_subtractor: Callable | None = None,
) -> BackgroundFit:
    """Weighted least-squares fit of beta/(d - d0) to points with d > d_min.

    The problem is linear in beta at fixed d0, so d0 is found by a 1-D
    search over (-1, 1) um of the chi^2 profile, with beta eliminated in
    closed form.
    By default nothing is subtracted from the data (the long-distance
    points are taken as background-only); ``casimir_subtractor`` may
    remove a theoretical dispersion-force contribution first.  It is
    called once, on the array of selected d (m), and returns the force
    (N) at each.

    Parameter uncertainties come from the Gauss-Newton covariance
    (J^T W J)^-1 at the optimum.
    """
    sel = data.d_m > d_min
    d = data.d_m[sel]
    f = data.force_N[sel]
    sig = data.sigma_N[sel]
    if len(d) < 3:
        raise FitError(f"need >= 3 points with d > {d_min:g} m, got {len(d)}")
    if np.ptp(d) == 0:
        raise FitError("degenerate design: all selected distances are equal")
    if casimir_subtractor is not None:
        f = f - casimir_subtractor(d)
    w = 1.0 / sig**2

    lo, hi = _D0_BOUNDS
    hi = min(hi, float(d.min()) * (1.0 - 1e-9))  # keep the pole out of the data

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda d0: _beta_profile(d0, d, f, w)[1],
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-15},
    )
    d0 = float(res.x)
    beta, chi2 = _beta_profile(d0, d, f, w)
    at_bounds = min(d0 - lo, hi - d0) < 1e-12 * (hi - lo)

    # Gauss-Newton covariance: columns d(model)/d(beta), d(model)/d(d0)
    g = 1.0 / (d - d0)
    jac = np.column_stack([g, beta * g * g])
    hess = jac.T @ (w[:, None] * jac)
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular normal equations: {exc}") from exc
    beta_sigma = math.sqrt(max(cov[0, 0], 0.0))
    d0_sigma = math.sqrt(max(cov[1, 1], 0.0))

    bg = ElectrostaticBackground(beta=beta, d0=d0, beta_sigma=beta_sigma)
    return BackgroundFit(
        background=bg,
        d0_sigma=d0_sigma,
        chi2=chi2,
        dof=len(d) - 2,
        points_used=len(d),
        d0_at_bounds=bool(at_bounds),
    )


class TotalForceEvaluator:
    """Electrostatic-plus-Casimir force and its derivatives.

    Each is the sum of the background's closed form and the dispersion
    evaluator's own ``gradient``/``curvature``, which it must carry.
    """

    def __init__(self, bg: ElectrostaticBackground, casimir: Callable):
        self.bg = bg
        self.casimir = casimir

    def __call__(self, d: float) -> float:
        return self.bg.force(d) + self.casimir(d)

    def gradient(self, d: float) -> float:
        return self.bg.gradient(d) + self.casimir.gradient(d)

    def curvature(self, d: float) -> float:
        return self.bg.curvature(d) + self.casimir.curvature(d)
