"""Material permittivity on the imaginary frequency axis.

Metallic plates enter the force kernels only through eps(i*xi).  Supported
models: perfect conductor (handled downstream as unit reflection), the
plasma form 1 + wp^2/xi^2, the Drude form 1 + wp^2/(xi*(xi+gamma)), a
tabulated eps(i*xi) with log-log interpolation, and ingestion of measured
absorption spectra eps''(omega) through the dispersion integral

    eps(i*xi) = 1 + (2/pi) * int_0^inf  w * eps''(w) / (w^2 + xi^2) dw.

Energies are in eV throughout this module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dataset import read_table
from .units import ConvergenceError, check_positive, check_samples, float_or_array

__all__ = [
    "PerfectConductor",
    "Plasma",
    "Drude",
    "Tabulated",
    "MaterialModel",
    "GOLD_DRUDE",
    "GOLD_PLASMA",
    "UnsupportedModelError",
    "eps_imag_axis",
    "OpticalAbsorptionTable",
    "kk_transform",
    "drude_loss_spectrum",
    "load_optical_table",
    "load_eps_table",
]

log = logging.getLogger(__name__)


class UnsupportedModelError(ValueError):
    """Model has no eps(i*xi); use the reflection-coefficient path instead."""


@dataclass(frozen=True)
class PerfectConductor:
    """Ideal mirror: unit reflection for both polarizations at every frequency."""


@dataclass(frozen=True)
class Plasma:
    """Dissipationless metal, eps(i*xi) = 1 + omega_p^2 / xi^2."""

    omega_p_ev: float = 9.0

    def __post_init__(self) -> None:
        check_positive("omega_p_ev", self.omega_p_ev)


@dataclass(frozen=True)
class Drude:
    """Metal with relaxation, eps(i*xi) = 1 + omega_p^2 / (xi*(xi+gamma))."""

    omega_p_ev: float = 9.0
    gamma_ev: float = 0.035

    def __post_init__(self) -> None:
        check_positive("omega_p_ev", self.omega_p_ev)
        check_positive("gamma_ev", self.gamma_ev)


@dataclass(frozen=True)
class Tabulated:
    """Sampled eps(i*xi), log-log interpolated.

    Below the first sample the low-frequency Drude extension takes over;
    above the last sample the metallic asymptote 1 + omega_p^2/xi^2 (with
    the extension's plasma frequency) is used.
    """

    xi_ev: np.ndarray
    eps: np.ndarray
    low_freq: Drude = Drude()

    def __post_init__(self) -> None:
        xi, ep = check_samples(("xi_ev", "eps"), self.xi_ev, self.eps)
        check_positive("xi_ev", xi)
        if np.any(ep < 1):
            raise ValueError("all eps samples must be >= 1")
        if np.any(np.diff(ep) > 0):
            raise ValueError("eps samples must be non-increasing in xi")
        object.__setattr__(self, "xi_ev", xi)
        object.__setattr__(self, "eps", ep)


MaterialModel = Union[PerfectConductor, Plasma, Drude, Tabulated]

# Community-standard gold parameters; configurable everywhere they appear.
GOLD_DRUDE = Drude(omega_p_ev=9.0, gamma_ev=0.035)
GOLD_PLASMA = Plasma(omega_p_ev=9.0)


def eps_imag_axis(model: MaterialModel, xi_ev):
    """Evaluate eps(i*xi) for a material model at finite xi > 0 (eV).

    Accepts scalars or arrays.  PerfectConductor is rejected: it is not a
    dielectric function but a boundary condition, applied as unit
    reflection coefficients in the force kernel.
    """
    if isinstance(model, PerfectConductor):
        raise UnsupportedModelError(
            "PerfectConductor has no finite eps(i*xi); the force kernel applies "
            "unit reflection coefficients for it directly"
        )
    grid = np.asarray(xi_ev, dtype=float)
    xi = np.atleast_1d(grid)
    check_positive("xi_ev", xi)
    if isinstance(model, Plasma):
        out = 1.0 + (model.omega_p_ev / xi) ** 2
    elif isinstance(model, Drude):
        out = 1.0 + model.omega_p_ev**2 / (xi * (xi + model.gamma_ev))
    elif isinstance(model, Tabulated):
        out = _eps_tabulated(model, xi)
    else:
        raise UnsupportedModelError(f"unknown material model {model!r}")
    return float_or_array(out.reshape(grid.shape))


def _eps_tabulated(model: Tabulated, xi: np.ndarray) -> np.ndarray:
    lo, hi = model.xi_ev[0], model.xi_ev[-1]
    out = np.empty_like(xi)
    below = xi < lo
    above = xi > hi
    inside = ~(below | above)
    # an empty selection assigns nothing
    out[below] = eps_imag_axis(model.low_freq, xi[below])
    out[above] = 1.0 + (model.low_freq.omega_p_ev / xi[above]) ** 2
    # interpolate log(eps-ish) against log(xi); eps >= 1 so logs are safe
    out[inside] = np.exp(np.interp(np.log(xi[inside]), np.log(model.xi_ev), np.log(model.eps)))
    return out


@dataclass(frozen=True)
class OpticalAbsorptionTable:
    """Measured imaginary permittivity eps''(omega) on the real axis (eV)."""

    omega_ev: np.ndarray
    eps_imag: np.ndarray

    def __post_init__(self) -> None:
        w, e = check_samples(("omega_ev", "eps_imag"), self.omega_ev, self.eps_imag)
        check_positive("omega_ev", w)
        check_positive("eps_imag", e)
        object.__setattr__(self, "omega_ev", w)
        object.__setattr__(self, "eps_imag", e)


def drude_loss_spectrum(model: Drude, omega_ev):
    """Real-axis Drude loss eps''(omega) = wp^2 gamma / (omega (omega^2 + gamma^2)).

    Its dispersion integral reproduces the Drude eps(i*xi) exactly, which
    makes it the analytic reference pair for testing table ingestion.
    """
    w = np.asarray(omega_ev, dtype=float)
    check_positive("omega_ev", w)
    return model.omega_p_ev**2 * model.gamma_ev / (w * (w**2 + model.gamma_ev**2))


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _kk_segments(table: OpticalAbsorptionTable, edges: np.ndarray, order: int):
    """Gauss-Legendre nodes in log(omega) on the segments between ``edges``.

    Returns (half-width * weight, omega^2, omega^2 * eps''), each of shape
    (segments, order); eps'' is interpolated as a power law between table
    rows, and the extra omega comes from the log substitution.
    """
    u_lo = np.log(edges[:-1])
    u_hi = np.log(edges[1:])
    t, gw = _gl_nodes(order)
    u = 0.5 * (u_hi + u_lo)[:, None] + 0.5 * (u_hi - u_lo)[:, None] * t[None, :]
    half = 0.5 * (u_hi - u_lo)[:, None]
    om = np.exp(u)
    loss = np.exp(np.interp(u, np.log(table.omega_ev), np.log(table.eps_imag)))
    om2 = om**2
    return half * gw[None, :], om2, om2 * loss


def _kk_terms(hw: np.ndarray, om2: np.ndarray, num: np.ndarray, xi: float) -> np.ndarray:
    """Weighted integrand values at the nodes of :func:`_kk_segments`."""
    return hw * (num / (om2 + xi**2))


def _kk_table_integral(table: OpticalAbsorptionTable, nodes, xi: float, order: int) -> float:
    """Integrate w*eps''(w)/(w^2+xi^2) over the tabulated range.

    ``nodes`` holds the :func:`_kk_segments` of the table's own rows at
    ``order``.  The segment containing omega = xi is split there, because
    the kernel bends at that point; only that segment's nodes are rebuilt,
    and the terms are summed as one array, in row order.
    """
    w = table.omega_ev
    if not w[0] < xi < w[-1]:
        return float(np.sum(_kk_terms(*nodes, xi)))
    j = int(np.searchsorted(w, xi))
    split = _kk_segments(table, np.array([w[j - 1], xi, w[j]]), order)
    parts = ([a[: j - 1] for a in nodes], split, [a[j:] for a in nodes])
    return float(np.sum(np.concatenate([_kk_terms(*part, xi) for part in parts])))


def _below_table_integral(table: OpticalAbsorptionTable, xi: float) -> float:
    """Closed-form kernel integral over [0, omega_0] with a Drude extension.

    The Drude loss A / (w (w^2 + g^2)) is recovered from the first two
    rows; its kernel integral has the partial-fraction closed form

        A/(xi^2-g^2) * [ atan(w0/g)/g - atan(w0/xi)/xi ].

    If the recovered g^2 is unphysical (first rows not metallic-like) the
    extension degrades to the plain 1/omega tail anchored at row one.
    """
    w0, e0 = table.omega_ev[0], table.eps_imag[0]
    g2 = -1.0
    if len(table.omega_ev) > 1:
        w1, e1 = table.omega_ev[1], table.eps_imag[1]
        r = (e0 * w0) / (e1 * w1)
        if r > 1.0:
            g2 = (w1 * w1 - r * w0 * w0) / (r - 1.0)
    if g2 <= 0:
        # 1/omega tail: integral of (eps0*w0/w) * w/(w^2+xi^2)
        return e0 * w0 * np.arctan(w0 / xi) / xi
    g = math.sqrt(g2)
    amplitude = e0 * w0 * (w0 * w0 + g2)
    if abs(xi - g) < 1e-9 * g:
        xi = g * (1.0 + 1e-6)  # nudge off the removable singularity
    return (
        amplitude
        / (xi * xi - g2)
        * (np.arctan(w0 / g) / g - np.arctan(w0 / xi) / xi)
    )


_KK_REL_TOL = 1e-6


def kk_transform(table: OpticalAbsorptionTable, xi_ev):
    """Dispersion-integral eps(i*xi) from a real-axis absorption table.

    Accepts a scalar (returns a float) or an array of xi (returns an array
    of the same shape).  Each value is bit-identical to a call on that xi
    alone: the table's quadrature nodes are built once per Gauss-Legendre
    order within a call, and only the segment holding xi is rebuilt per xi.
    The whole grid is checked (finite xi > 0) before any integral.

    Below the first sample, eps'' is extended with the Drude low-frequency
    form recovered from the first two rows (closed-form kernel integral).
    Above the last sample the contribution is taken as zero and a
    truncation estimate is logged.  Raises :class:`ConvergenceError`, carrying
    the order-128 value, when orders 64 and 128 still differ beyond
    ``_KK_REL_TOL`` (relative); on a grid, that of the first such xi.
    """
    grid = np.asarray(xi_ev, dtype=float)
    check_positive("xi_ev", grid)
    nodes = {}  # order -> _kk_segments of the unsplit table
    out = np.empty(grid.size)
    for i, xi in enumerate(grid.ravel().tolist()):
        below = _below_table_integral(table, xi)
        order, prev = 16, None
        while True:
            if order not in nodes:
                nodes[order] = _kk_segments(table, table.omega_ev, order)
            inside = _kk_table_integral(table, nodes[order], xi, order)
            if prev is not None and abs(inside - prev) <= _KK_REL_TOL * max(abs(inside), 1e-300):
                break
            if order >= 128:
                rel = abs(inside - prev) / max(abs(inside), 1e-300)
                raise ConvergenceError(
                    f"kk_transform at xi = {xi:g} eV: orders 64 and 128 differ by {rel:.3g} "
                    f"(relative), above rel_tol {_KK_REL_TOL:g}",
                    partial_sum=1.0 + (2.0 / np.pi) * (below + inside),
                    terms=order,
                )
            prev, order = inside, order * 2
        out[i] = 1.0 + (2.0 / np.pi) * (below + inside)
    # assume eps'' ~ w^-3 beyond the table (Drude tail) for the size estimate
    tail_est = (2.0 / np.pi) * table.eps_imag[-1] / 3.0
    if tail_est > 1e-3:
        log.debug("kk_transform: truncated high-frequency tail ~ %.3g (eps units)", tail_est)
    return float_or_array(out.reshape(grid.shape))


def load_optical_table(path) -> OpticalAbsorptionTable:
    """Read an absorption spectrum CSV with columns ``omega_ev, eps_imag``."""
    return read_table(path, ["omega_ev", "eps_imag"], OpticalAbsorptionTable)


def load_eps_table(path, low_freq: Drude = Drude()) -> Tabulated:
    """Read a tabulated eps(i*xi) CSV with columns ``xi_ev, eps``."""
    return read_table(path, ["xi_ev", "eps"], lambda xi, e: Tabulated(xi, e, low_freq))
