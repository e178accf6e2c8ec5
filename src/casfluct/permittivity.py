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
from .units import ConvergenceError

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
        if not self.omega_p_ev > 0:
            raise ValueError(f"omega_p_ev must be > 0, got {self.omega_p_ev}")


@dataclass(frozen=True)
class Drude:
    """Metal with relaxation, eps(i*xi) = 1 + omega_p^2 / (xi*(xi+gamma))."""

    omega_p_ev: float = 9.0
    gamma_ev: float = 0.035

    def __post_init__(self) -> None:
        if not self.omega_p_ev > 0:
            raise ValueError(f"omega_p_ev must be > 0, got {self.omega_p_ev}")
        if not self.gamma_ev > 0:
            raise ValueError(f"gamma_ev must be > 0, got {self.gamma_ev}")


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
        xi = np.asarray(self.xi_ev, dtype=float)
        ep = np.asarray(self.eps, dtype=float)
        if xi.ndim != 1 or len(xi) == 0 or len(xi) != len(ep):
            raise ValueError("xi_ev and eps must be 1-D arrays of equal nonzero length")
        if np.any(xi <= 0):
            raise ValueError("all xi_ev must be > 0")
        if np.any(np.diff(xi) <= 0):
            raise ValueError("xi_ev must be strictly increasing")
        if np.any(ep < 1):
            raise ValueError("all eps samples must be >= 1")
        if np.any(np.diff(ep) > 0):
            raise ValueError("eps samples must be non-increasing in xi")
        xi.setflags(write=False)
        ep.setflags(write=False)
        object.__setattr__(self, "xi_ev", xi)
        object.__setattr__(self, "eps", ep)


MaterialModel = Union[PerfectConductor, Plasma, Drude, Tabulated]

# Community-standard gold parameters; configurable everywhere they appear.
GOLD_DRUDE = Drude(omega_p_ev=9.0, gamma_ev=0.035)
GOLD_PLASMA = Plasma(omega_p_ev=9.0)


def eps_imag_axis(model: MaterialModel, xi_ev):
    """Evaluate eps(i*xi) for a material model at xi > 0 (eV).

    Accepts scalars or arrays.  PerfectConductor is rejected: it is not a
    dielectric function but a boundary condition, applied as unit
    reflection coefficients in the force kernel.
    """
    if isinstance(model, PerfectConductor):
        raise UnsupportedModelError(
            "PerfectConductor has no finite eps(i*xi); the force kernel applies "
            "unit reflection coefficients for it directly"
        )
    xi = np.asarray(xi_ev, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if np.any(xi <= 0):
        raise ValueError("xi_ev must be > 0")
    if isinstance(model, Plasma):
        out = 1.0 + (model.omega_p_ev / xi) ** 2
    elif isinstance(model, Drude):
        out = 1.0 + model.omega_p_ev**2 / (xi * (xi + model.gamma_ev))
    elif isinstance(model, Tabulated):
        out = _eps_tabulated(model, xi)
    else:
        raise UnsupportedModelError(f"unknown material model {model!r}")
    return float(out[0]) if scalar else out


def _eps_tabulated(model: Tabulated, xi: np.ndarray) -> np.ndarray:
    lo, hi = model.xi_ev[0], model.xi_ev[-1]
    out = np.empty_like(xi)
    below = xi < lo
    above = xi > hi
    inside = ~(below | above)
    if np.any(below):
        out[below] = eps_imag_axis(model.low_freq, xi[below])
    if np.any(above):
        out[above] = 1.0 + (model.low_freq.omega_p_ev / xi[above]) ** 2
    if np.any(inside):
        # interpolate log(eps-ish) against log(xi); eps >= 1 so logs are safe
        out[inside] = np.exp(
            np.interp(np.log(xi[inside]), np.log(model.xi_ev), np.log(model.eps))
        )
    return out


@dataclass(frozen=True)
class OpticalAbsorptionTable:
    """Measured imaginary permittivity eps''(omega) on the real axis (eV)."""

    omega_ev: np.ndarray
    eps_imag: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.omega_ev, dtype=float)
        e = np.asarray(self.eps_imag, dtype=float)
        if w.ndim != 1 or len(w) == 0 or len(w) != len(e):
            raise ValueError("omega_ev and eps_imag must be 1-D arrays of equal nonzero length")
        if np.any(w <= 0):
            raise ValueError("all omega_ev must be > 0")
        if np.any(np.diff(w) <= 0):
            raise ValueError("omega_ev must be strictly increasing")
        if np.any(e <= 0):
            raise ValueError("all eps_imag must be > 0")
        w.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "omega_ev", w)
        object.__setattr__(self, "eps_imag", e)


def drude_loss_spectrum(model: Drude, omega_ev):
    """Real-axis Drude loss eps''(omega) = wp^2 gamma / (omega (omega^2 + gamma^2)).

    Its dispersion integral reproduces the Drude eps(i*xi) exactly, which
    makes it the analytic reference pair for testing table ingestion.
    """
    w = np.asarray(omega_ev, dtype=float)
    if np.any(w <= 0):
        raise ValueError("omega_ev must be > 0")
    return model.omega_p_ev**2 * model.gamma_ev / (w * (w**2 + model.gamma_ev**2))


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _kk_table_integral(table: OpticalAbsorptionTable, xi: float, order: int) -> float:
    """Integrate w*eps''(w)/(w^2+xi^2) over the tabulated range.

    Per-segment Gauss-Legendre in log(omega), with eps'' interpolated as a
    power law on each segment; the segment containing omega = xi is split
    there because the kernel bends at that point.
    """
    w = table.omega_ev
    e = table.eps_imag
    edges = w
    if w[0] < xi < w[-1]:
        edges = np.sort(np.append(w, xi))
    u_lo = np.log(edges[:-1])
    u_hi = np.log(edges[1:])
    t, gw = _gl_nodes(order)
    # nodes in log space, shape (segments, order)
    u = 0.5 * (u_hi + u_lo)[:, None] + 0.5 * (u_hi - u_lo)[:, None] * t[None, :]
    half = 0.5 * (u_hi - u_lo)[:, None]
    om = np.exp(u)
    loss = np.exp(np.interp(u, np.log(w), np.log(e)))
    integrand = om**2 * loss / (om**2 + xi**2)  # extra om from the log substitution
    return float(np.sum(half * gw[None, :] * integrand))


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


def kk_transform(table: OpticalAbsorptionTable, xi_ev: float) -> float:
    """Dispersion-integral eps(i*xi) from a real-axis absorption table.

    Below the first sample, eps'' is extended with the Drude low-frequency
    form recovered from the first two rows (closed-form kernel integral).
    Above the last sample the contribution is taken as zero and a
    truncation estimate is logged.  Raises :class:`ConvergenceError`, carrying
    the order-128 value, when orders 64 and 128 still differ beyond
    ``_KK_REL_TOL`` (relative).
    """
    xi = float(xi_ev)
    if xi <= 0:
        raise ValueError("xi_ev must be > 0")
    below = _below_table_integral(table, xi)
    order, prev = 16, None
    while True:
        inside = _kk_table_integral(table, xi, order)
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
    # assume eps'' ~ w^-3 beyond the table (Drude tail) for the size estimate
    tail_est = (2.0 / np.pi) * table.eps_imag[-1] / 3.0
    if tail_est > 1e-3:
        log.debug("kk_transform: truncated high-frequency tail ~ %.3g (eps units)", tail_est)
    return 1.0 + (2.0 / np.pi) * (below + inside)


def load_optical_table(path) -> OpticalAbsorptionTable:
    """Read an absorption spectrum CSV with columns ``omega_ev, eps_imag``."""
    return read_table(path, ["omega_ev", "eps_imag"], OpticalAbsorptionTable)


def load_eps_table(path, low_freq: Drude = Drude()) -> Tabulated:
    """Read a tabulated eps(i*xi) CSV with columns ``xi_ev, eps``."""
    return read_table(path, ["xi_ev", "eps"], lambda xi, e: Tabulated(xi, e, low_freq))
