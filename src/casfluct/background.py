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
from .units import UDYNE, DomainError, check_amplitude, check_positive, float_or_array

__all__ = [
    "ElectrostaticBackground",
    "FitError",
    "FitConvergenceError",
    "BackgroundFit",
    "fit_background",
    "TotalForceEvaluator",
]


class FitError(ValueError):
    """Background fit impossible: too few points or degenerate design."""


class FitConvergenceError(FitError, ArithmeticError):
    """The d0 search stopped unconverged: out of evaluations, or on a NaN.

    An ArithmeticError too, so the CLI reports it as a numerical failure.
    """


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
        check_positive("beta", self.beta)
        if not math.isfinite(self.d0):
            raise ValueError(f"d0 must be finite, got {self.d0}")
        check_amplitude("beta_sigma", self.beta_sigma)

    def _gap(self, d):
        d = np.asarray(d, dtype=float)
        gap = d - self.d0
        # one reduction; a NaN carries through it and fails the test
        if not np.min(gap, initial=np.inf) > 0:
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
            "d0_at_bounds": self.d0_at_bounds,
        }


def _beta_profile(d0: float, d, f, w) -> tuple[float, float]:
    """Closed-form weighted beta and chi^2 at a trial d0."""
    g = 1.0 / (d - d0)
    denom = float(np.sum(w * g * g))
    beta = float(np.sum(w * f * g)) / denom
    chi2 = float(np.sum(w * (f - beta * g) ** 2))
    return beta, chi2


_D0_BOUNDS = (-1e-6, 1e-6)  # m: the d0 search interval
_D0_XATOL, _D0_MAXFUN = 1e-15, 500  # m, and chi^2 evaluations
_SQRT_EPS, _GOLDEN = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(func, a: float, b: float, xatol: float, maxfun: int) -> float:
    """Minimiser of ``func`` on [a, b] by Brent's bounded search.

    A line-for-line port of scipy's ``minimize_scalar(method="bounded")``
    (``_minimize_scalar_bounded``) onto Python floats: it evaluates at the
    same points and returns the same x, bit for bit.  Where scipy would
    report status 1 (``maxfun`` evaluations used) or 2 (NaN), it raises
    FitConvergenceError.
    """
    nfc = xf = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = func(xf)
    num, fu = 1, math.inf
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise FitConvergenceError(f"d0 search met a NaN chi^2 after {num} evaluations")
    if num >= maxfun:
        raise FitConvergenceError(f"d0 search did not converge in {maxfun} evaluations")
    return xf


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
    (J^T W J)^-1 at the optimum.  A d0 search that meets a NaN chi^2 or
    uses up its 500 evaluations raises FitConvergenceError.
    """
    sel = data.d_m > d_min
    d = data.d_m[sel]
    f = data.force_N[sel]
    sig = data.sigma_N[sel]
    if len(d) < 3:
        raise FitError(f"need >= 3 points with d > {d_min:g} m, got {len(d)}")
    if casimir_subtractor is not None:
        f = f - casimir_subtractor(d)
    w = 1.0 / sig**2

    lo, hi = _D0_BOUNDS
    hi = min(hi, float(d.min()) * (1.0 - 1e-9))  # keep the pole out of the data

    d0 = _fminbound(lambda d0: _beta_profile(d0, d, f, w)[1], lo, hi, _D0_XATOL, _D0_MAXFUN)
    beta, chi2 = _beta_profile(d0, d, f, w)
    # the search stops once it is within 2*tol1 of the optimum, so an optimum
    # on a bound leaves d0 up to that far inside it
    at_bounds = min(d0 - lo, hi - d0) <= 2.0 * (_SQRT_EPS * abs(d0) + _D0_XATOL / 3.0)

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

    def __call__(self, d: float | np.ndarray) -> float | np.ndarray:
        return self.bg.force(d) + self.casimir(d)

    def gradient(self, d: float | np.ndarray) -> float | np.ndarray:
        return self.bg.gradient(d) + self.casimir.gradient(d)

    def curvature(self, d: float | np.ndarray) -> float | np.ndarray:
        return self.bg.curvature(d) + self.casimir.curvature(d)
