"""Finite-temperature dispersion forces between metallic surfaces.

The parallel-plate pressure is the Matsubara sum

    P(d, T) = (k_B T / pi) * sum'_{n>=0} int_0^inf k dk  kappa_n *
              sum_{p in TM,TE} [ r_p^-2 exp(2 kappa_n d) - 1 ]^-1,

with kappa_n = sqrt(k^2 + xi_n^2/c^2), xi_n = 2 pi n k_B T / hbar, the
primed sum giving the n = 0 term half weight, and Fresnel reflection
coefficients evaluated at eps(i xi_n).  Attractive pressures and forces
are reported as positive numbers.  The free energy per unit area uses the
matching log-determinant form, and the sphere-plate force follows from
the proximity-force approximation F = -2 pi R E(d).  Its derivatives are
exact kernels of the same sum: F' = -2 pi R P and F'' = -2 pi R dP/dd.

Zero-frequency reflection is the physically loaded choice: TM -> 1 for
every metallic model, TE -> 0 for Drude-like models, the finite plasma
value for the plasma model, and 1 for a perfect conductor.

All k-integrals are taken in the scale-free variable y = 2 kappa_n d.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .permittivity import (
    Drude,
    MaterialModel,
    PerfectConductor,
    Plasma,
    Tabulated,
    eps_imag_axis,
)
from .units import CONSTANTS, EV, ConvergenceError, DomainError, ExperimentGeometry

__all__ = [
    "LifshitzSettings",
    "ConvergenceError",
    "PFAValidityError",
    "plate_pressure",
    "plate_energy",
    "PlateTower",
    "plate_tower",
    "sphere_plate_force",
    "SpherePlateForce",
    "ForceCurve",
    "force_curve",
    "TabulatedForceCurve",
]

# float(scipy.special.zeta(3)), written out so that the engine needs no scipy
_ZETA3 = 1.2020569031595942


class PFAValidityError(ValueError):
    """Separation too large relative to the sphere radius for the PFA."""


@dataclass(frozen=True)
class LifshitzSettings:
    """Numerical controls for the Matsubara sum and the k-integrals."""

    matsubara_rel_tol: float = 1e-9
    matsubara_max_terms: int = 5000
    quad_rel_tol: float = 1e-8
    zero_temperature_mode: bool = False

    def __post_init__(self) -> None:
        for name in ("matsubara_rel_tol", "quad_rel_tol"):
            v = getattr(self, name)
            if not 0 < v <= 1e-2:
                raise ValueError(f"{name} must be in (0, 1e-2], got {v}")
        if self.matsubara_max_terms < 1:
            raise ValueError("matsubara_max_terms must be >= 1")


_DEFAULT_SETTINGS = LifshitzSettings()

_LAG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_LAG_ORDERS = (32, 64, 128, 256)
# Row 0 holds the nodes, row 1 the weights of scipy.special.roots_laguerre(n)
# for each n of _LAG_ORDERS in turn, bit for bit; numpy's laggauss differs
# in the last digits and gives NaN weights at order 256.
_LAG_TABLE = Path(__file__).with_name("laguerre_nodes.npy")


def _lag_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights of order ``n``, read from the table on first use."""
    if not _LAG_CACHE:
        table = np.load(_LAG_TABLE)
        lo = 0
        for order in _LAG_ORDERS:
            _LAG_CACHE[order] = (table[0, lo : lo + order], table[1, lo : lo + order])
            lo += order
    return _LAG_CACHE[n]


def _r2_metal(eps, y, a):
    """Squared TM/TE reflection coefficients in y = 2 kappa d variables."""
    s = np.sqrt(y * y + (eps - 1.0) * a * a)
    r_tm = (eps * y - s) / (eps * y + s)
    r_te = (y - s) / (y + s)
    return r_tm * r_tm, r_te * r_te


def _log_scaled(r2, y):
    """exp(y) * log(1 - r2*exp(-y)), computed without overflow."""
    q = r2 * np.exp(-y)
    small = q < 1e-8
    # direct branch only selected where q >= 1e-8, i.e. y <~ 19 + log(r2)
    direct = np.exp(np.minimum(y, 40.0)) * np.log1p(-np.where(small, 0.0, q))
    series = -r2 * (1.0 + 0.5 * q + q * q / 3.0)
    return np.where(small, series, direct)


# kernel -> (power p of d in the prefactor, sign).  The thermal prefactor is
# k_B T / (8 pi d^p), the zero-temperature one hbar c / (32 pi^2 d^(p+1)).
# "slope" is dP/dd: d/dd acts only on exp(-2 kappa d) at fixed (xi, k).
_KERNELS = {"energy": (2, 1.0), "pressure": (3, 1.0), "slope": (4, -1.0)}
# n = 0 TM term of each scaled kernel (r_TM = 1, a = 0)
_N0_TM = {"energy": -_ZETA3, "pressure": 2.0 * _ZETA3, "slope": 6.0 * _ZETA3}
# int_0^inf da of each scaled kernel for a perfect conductor at T = 0
_PC_ZERO_T = {"energy": -2.0 * math.pi**4 / 45.0, "pressure": 2.0 * math.pi**4 / 15.0,
              "slope": 8.0 * math.pi**4 / 15.0}
# kernels that raise ConvergenceError instead of returning an unconverged value
_STRICT = frozenset({"pressure", "slope"})


def _integrand(kind: str, y, r_tm2, r_te2):
    """exp(y) times the y-integrand of one kernel, summed over TM and TE."""
    if kind == "energy":
        return y * (_log_scaled(r_tm2, y) + _log_scaled(r_te2, y))
    e = np.exp(-y)
    den_tm, den_te = 1.0 - r_tm2 * e, 1.0 - r_te2 * e
    if kind == "pressure":
        return y * y * (r_tm2 / den_tm + r_te2 / den_te)
    return y**3 * (r_tm2 / den_tm**2 + r_te2 / den_te**2)


def _inner_rows(a: np.ndarray, r2_of_y: Callable, kinds: tuple, rel_tol: float):
    """exp(a_i) * integral over y in [a_i, inf) of each kernel in ``kinds``, for each a_i.

    Gauss-Laguerre in t = y - a_i, evaluated as a (rows x order) grid; the
    exp(a) scaling keeps every factor O(1) so terms at any Matsubara index
    can be composed stably.  ``r2_of_y(y, rows)`` gives the squared TM and
    TE reflection coefficients on the grid ``y`` of the listed rows.  Each
    row and each kernel stops at the first order that agrees with the one
    before, and each row is reduced on its own with ``np.dot``, so a value
    depends neither on the other rows nor on which other kernels were
    requested.  Returns the values and the mask of those still unconverged
    at the last order, both shaped (rows x kinds); callers decide whether
    an unconverged value is an error.
    """
    vals = np.zeros((a.size, len(kinds)))
    pending = np.ones(vals.shape, dtype=bool)
    for step, order in enumerate(_LAG_ORDERS):
        rows = np.flatnonzero(pending.any(axis=1))
        if rows.size == 0:
            break
        t, w = _lag_nodes(order)
        y = a[rows, None] + t
        r_tm2, r_te2 = r2_of_y(y, rows)
        for j, kind in enumerate(kinds):
            sub = pending[rows, j]
            if not sub.any():
                continue
            f = _integrand(kind, y[sub], r_tm2[sub], r_te2[sub])
            val = np.array([np.dot(w, row) for row in f])
            idx = rows[sub]
            if step:
                prev = vals[idx, j]
                pending[idx, j] = ~(np.abs(val - prev) <= rel_tol * np.maximum(np.abs(val), 1e-300))
            vals[idx, j] = val
    return vals, pending


def _unconverged_k_integral(kind: str, value: float) -> ConvergenceError:
    order = _LAG_ORDERS[-1]
    return ConvergenceError(
        f"{kind} k-integral did not converge at Gauss-Laguerre order {order}",
        partial_sum=value,
        terms=order,
    )


def _r2_factory(model: MaterialModel, xi_ev: np.ndarray, a: np.ndarray, terms=slice(None)) -> Callable:
    """``r2_of_y`` of ``_inner_rows`` for rows a = 2 xi d / c; row i is at frequency xi_ev[terms][i] (eV)."""
    if isinstance(model, PerfectConductor):
        return lambda y, rows: (np.ones_like(y), np.ones_like(y))
    eps = eps_imag_axis(model, xi_ev)[terms]
    return lambda y, rows: _r2_metal(eps[rows, None], y, a[rows, None])


# The plasma n = 0 TE energy integral: the trapezoid rule in t after
# y = exp(pi/2 sinh t), on these nodes (step 1/32), checked against the rule
# on every other node (step 1/16).  The ends cut off y < 5e-12 and y > 1.3e4,
# parts below 1e-19 of the integral for d = 0.05-50 um and omega_p = 1-30 eV.
_N0_TE_T = np.linspace(-3.5, 2.5, 193)
_N0_TE_REL_TOL = 1e-11


def _n0_te_energy(b: float) -> float:
    """int_0^inf y log(1 - r^2 e^-y) dy, r = (y - s)/(y + s), s = sqrt(y^2 + b^2).

    r^2 = (b/(y + s))^4 is taken as (1 - u)^4 with u = (y + y^2/(s + b))/(y + s),
    so 1 - r^2 e^-y keeps its digits where it goes like y near y = 0.  Raises
    ``ConvergenceError`` when the two steps disagree beyond ``_N0_TE_REL_TOL``.
    """
    t = _N0_TE_T
    y = np.exp(0.5 * math.pi * np.sinh(t))
    s = np.sqrt(y * y + b * b)
    z = 4.0 * np.log1p(-(y + y * y / (s + b)) / (y + s)) - y  # log(r^2 e^-y)
    q = np.exp(z)
    # log(1 - q), from expm1 near q = 1 and from log1p elsewhere
    log_1mq = np.where(q > 0.5, np.log(-np.expm1(z)), np.log1p(-np.minimum(q, 0.5)))
    f = y * log_1mq * (0.5 * math.pi * np.cosh(t) * y)
    h = float(t[1] - t[0])
    fine = h * math.fsum(f)
    coarse = 2.0 * h * math.fsum(f[::2])
    if not abs(fine - coarse) <= _N0_TE_REL_TOL * abs(fine):
        raise ConvergenceError(
            f"plasma n = 0 TE energy integral did not converge (b = {b:g}): "
            f"step {h:g} gives {fine!r}, step {2.0 * h:g} gives {coarse!r}",
            partial_sum=fine,
            terms=t.size,
        )
    return fine


def _n0_scaled(model: MaterialModel, d: float, kinds: tuple, rel_tol: float) -> list[float]:
    """Zero-frequency term of each scaled sum (a = 0, model-specific TE)."""
    tm = [_N0_TM[kind] for kind in kinds]
    if isinstance(model, PerfectConductor):
        return [2.0 * v for v in tm]
    if isinstance(model, (Drude, Tabulated)):
        return tm  # TE reflection vanishes at zero frequency
    if isinstance(model, Plasma):
        omega_p = model.omega_p_ev * EV / CONSTANTS.hbar  # rad/s
        b = 2.0 * d * omega_p / CONSTANTS.c
        te = {}
        if "energy" in kinds:
            te["energy"] = _n0_te_energy(b)
        laguerre = tuple(kind for kind in kinds if kind != "energy")
        if laguerre:

            def r2(y, rows):
                s = np.sqrt(y * y + b * b)
                r = (y - s) / (y + s)
                return np.zeros_like(y), r * r

            vals, unconverged = _inner_rows(np.zeros(1), r2, laguerre, rel_tol)
            for kind, value, bad in zip(laguerre, vals[0].tolist(), unconverged[0]):
                if bad:
                    raise _unconverged_k_integral(kind, value)
                te[kind] = value
        return [v + te[kind] for kind, v in zip(kinds, tm)]
    raise TypeError(f"unknown material model {model!r}")


def _xi1_rad(T: float) -> float:
    return 2.0 * math.pi * CONSTANTS.k_B * T / CONSTANTS.hbar


# The Matsubara series is computed in blocks of terms: the first block holds
# the terms with a_n <= _BLOCK_A (the default 1e-9 stop lands at a_n ~ 15-40),
# every later block as many again, and no block more than _BLOCK_MAX terms.
# The first blocks of a grid of d share _inner_rows calls of at most
# _BLOCK_MAX rows, which also bounds the memory of one call.
_BLOCK_A = 30.0
_BLOCK_MAX = 256


def _first_blocks(model, plans, n, xi1, kinds, rel) -> list:
    """(values, unconverged) of ``_inner_rows`` for the first block of each d, or None.

    ``plans`` holds (a_all, stop, size) per d.  The blocks are packed in
    grid order into ``_inner_rows`` calls of at most ``_BLOCK_MAX`` rows,
    no block split between calls, with one ``eps_imag_axis`` call per
    ``_inner_rows`` call.  Rows are reduced on their own, so each value
    equals that of a call for its d alone.  A d with no terms gets None.
    """
    blocks = [a_all[:size] if stop else None for a_all, stop, size in plans]
    groups, rows = [], _BLOCK_MAX
    for i, a in enumerate(blocks):
        if a is None:
            continue
        if rows + a.size > _BLOCK_MAX:
            groups.append([])
            rows = 0
        groups[-1].append(i)
        rows += a.size
    out = [None] * len(blocks)
    for members in groups:
        a = np.concatenate([blocks[i] for i in members])
        terms = np.concatenate([np.arange(blocks[i].size) for i in members])
        xi_ev = n[: terms.max() + 1] * xi1 * CONSTANTS.hbar / EV
        vals, unconverged = _inner_rows(a, _r2_factory(model, xi_ev, a, terms), kinds, rel)
        lo = 0
        for i in members:
            hi = lo + blocks[i].size
            out[i] = (vals[lo:hi], unconverged[lo:hi])
            lo = hi
    return out


def _thermal_sum(model, ds, T, kinds, settings) -> list[list[float]]:
    """sum'_n exp(-a_n) * inner(a_n) of each kernel at each d of ``ds``, the scale-free Matsubara series.

    inner(a) is the exp(a)-scaled k-integral of ``_inner_rows``.  The
    first block of terms of every d comes from ``_first_blocks``; each
    later block of one d from one ``_inner_rows`` and one
    ``eps_imag_axis`` call.  Then, one d at a time in grid order, the
    terms are added one at a time in n, each kernel stopping at its own
    converged term count, so a grid raises what its first failing d
    raises alone.  A block may compute terms past the stop; only a
    consumed term can raise.
    """
    rel = settings.quad_rel_tol
    xi1 = _xi1_rad(T)
    n_max = settings.matsubara_max_terms
    n = np.arange(1, n_max + 1)
    plans = []
    for d in ds:
        a_all = 2.0 * d * n * xi1 / CONSTANTS.c
        stop = int(np.searchsorted(a_all, 700.0, side="right"))  # later terms underflow to zero
        size = min(max(int(np.searchsorted(a_all, _BLOCK_A, side="right")), 1), _BLOCK_MAX)
        # keep only the terms a block can reach, not n_max of them per d
        plans.append((a_all[: stop + size].copy(), stop, size))

    def series(d, a_all, stop, size, first) -> list[float]:
        acc = {kind: 0.5 * v for kind, v in zip(kinds, _n0_scaled(model, d, kinds, rel))}
        pending = kinds
        for lo in range(0, stop, size):
            a = a_all[lo : lo + size]
            if lo == 0 and first is not None:
                vals, unconverged = first
            else:
                xi_ev = n[lo : lo + size] * xi1 * CONSTANTS.hbar / EV
                vals, unconverged = _inner_rows(a, _r2_factory(model, xi_ev, a), pending, rel)
            column = {kind: j for j, kind in enumerate(pending)}
            for a_n, row, bad in zip(a.tolist(), vals.tolist(), unconverged.tolist()):
                scale = math.exp(-a_n)
                still = []
                for kind in pending:
                    inner = row[column[kind]]
                    if bad[column[kind]] and kind in _STRICT:
                        raise _unconverged_k_integral(kind, inner)
                    term = scale * inner
                    acc[kind] += term
                    if not abs(term) <= settings.matsubara_rel_tol * abs(acc[kind]):
                        still.append(kind)
                pending = tuple(still)
                if not pending:
                    return [acc[kind] for kind in kinds]
        if stop == n_max:
            raise ConvergenceError(
                f"Matsubara sum did not converge within {n_max} terms (d={d:g} m, T={T:g} K)",
                partial_sum=acc[pending[0]],
                terms=n_max,
            )
        return [acc[kind] for kind in kinds]

    firsts = _first_blocks(model, plans, n, xi1, kinds, rel)
    return [series(d, *plan, first) for d, plan, first in zip(ds, plans, firsts)]


def _zero_t_integral(model, d, kinds, settings) -> list[float]:
    """int_0^inf I(a) da of each kernel, I(a) = exp(-a)*inner(a), by 128-node Gauss-Laguerre.

    The rule is not checked for convergence, and neither are its
    k-integrals: for Drude-like models both stop short of ``quad_rel_tol``
    (the 64-node rule differs by ~2e-4).
    """
    A, W = _lag_nodes(128)
    xi_ev = A * CONSTANTS.c * CONSTANTS.hbar / (2.0 * d * EV)
    vals, _ = _inner_rows(A, _r2_factory(model, xi_ev, A), kinds, settings.quad_rel_tol)
    sums = [0.0] * len(kinds)
    for w, row in zip(W.tolist(), vals.tolist()):
        for i, v in enumerate(row):
            sums[i] += w * v
    return sums


def _check_d_T(d: float, T: float) -> None:
    if not d > 0:
        raise DomainError(f"separation must be > 0, got {d}")
    if T < 0:
        raise DomainError(f"temperature must be >= 0, got {T}")


def _check_pfa(d: float, geometry: ExperimentGeometry) -> None:
    """Reject d/R >= 0.1; warn above d/R = 1e-3."""
    ratio = d / geometry.sphere_radius
    if ratio >= 0.1:
        raise PFAValidityError(
            f"d/R = {ratio:.3g} >= 0.1: proximity-force approximation invalid"
        )
    if ratio > 1e-3:
        warnings.warn(
            f"d/R = {ratio:.3g} > 1e-3: proximity-force approximation degraded",
            stacklevel=4,
        )


def _plate_kernels(model, ds, T, kinds: tuple, settings, geometry=None) -> list[list[float]]:
    """SI values of the requested kernels at each d of ``ds``, from one Matsubara (or T = 0) pass.

    Every d is checked before the first sum: against the PFA for
    ``geometry`` when one is given, then for d > 0 and T >= 0.
    """
    settings = settings or _DEFAULT_SETTINGS
    for d in ds:
        if geometry is not None:
            _check_pfa(d, geometry)
        _check_d_T(d, T)
    zero_t = settings.zero_temperature_mode or T == 0.0
    if zero_t:
        values = []
        for d in ds:
            if isinstance(model, PerfectConductor):
                values.append([_PC_ZERO_T[kind] for kind in kinds])
            else:
                values.append(_zero_t_integral(model, d, kinds, settings))
    else:
        values = _thermal_sum(model, ds, T, kinds, settings)
    out = []
    for d, row in zip(ds, values):
        si = []
        for kind, v in zip(kinds, row):
            power, sign = _KERNELS[kind]
            if zero_t:
                si.append(sign * (CONSTANTS.hbar_c / (32.0 * math.pi**2 * d ** (power + 1)) * v))
            else:
                si.append(sign * (CONSTANTS.k_B * T / (8.0 * math.pi * d**power) * v))
        out.append([float(v) for v in si])
    return out


def plate_pressure(
    model: MaterialModel,
    d: float,
    T: float,
    settings: LifshitzSettings | None = None,
) -> float:
    """Attractive parallel-plate pressure in Pa (positive), at separation d (m).

    With ``zero_temperature_mode`` (or T = 0) the Matsubara sum is replaced
    by the continuous imaginary-frequency integral, in closed form for a
    perfect conductor.
    """
    return _plate_kernels(model, (d,), T, ("pressure",), settings)[0][0]


def plate_energy(
    model: MaterialModel,
    d: float,
    T: float,
    settings: LifshitzSettings | None = None,
) -> float:
    """Interaction free energy per unit area in J/m^2 (negative = binding)."""
    return _plate_kernels(model, (d,), T, ("energy",), settings)[0][0]


_TOWER = ("energy", "pressure", "slope")


class PlateTower(NamedTuple):
    """Free energy per area E (J/m^2), pressure P = dE/dd (Pa) and dP/dd (Pa/m)."""

    energy: float
    pressure: float
    pressure_slope: float


def plate_tower(
    model: MaterialModel,
    d: float,
    T: float,
    settings: LifshitzSettings | None = None,
) -> PlateTower:
    """E, P and dP/dd from one pass over shared frequencies and k-nodes.

    Each component equals what ``plate_energy``/``plate_pressure`` return
    bit for bit, because each stops at its own convergence.
    """
    return PlateTower(*_plate_kernels(model, (d,), T, _TOWER, settings)[0])


def sphere_plate_force(
    model: MaterialModel,
    d: float | np.ndarray,
    geometry: ExperimentGeometry | None = None,
    settings: LifshitzSettings | None = None,
) -> float | np.ndarray:
    """Attractive sphere-plate force in N (positive) via F = -2 pi R E(d).

    ``d`` may be an array: its forces come from one batched Matsubara pass
    and equal the scalar ones bit for bit.  Valid for d << R; d/R >= 0.1
    is rejected and d/R > 1e-3 warned about.
    """
    geometry = geometry or ExperimentGeometry()
    grid = np.asarray(d, dtype=float)
    ds = (d,) if grid.ndim == 0 else grid.ravel()
    energies = _plate_kernels(model, ds, geometry.temperature, ("energy",), settings, geometry)
    forces = [-2.0 * math.pi * geometry.sphere_radius * energy for (energy,) in energies]
    return forces[0] if grid.ndim == 0 else np.array(forces).reshape(grid.shape)


class SpherePlateForce:
    """Sphere-plate force evaluator F(d) with exact F'(d) and F''(d).

    Under the PFA F = -2 pi R E, F' = -2 pi R P and F'' = -2 pi R dP/dd.
    All three come from one tower pass per d, kept for the most
    recent d so that F, F' and F'' at one separation cost a single pass;
    ``preload`` keeps the towers of a whole grid from one batched pass.
    The kept passes are keyed by d alone: treat ``model``, ``geometry``
    and ``settings`` as fixed after construction.
    """

    def __init__(
        self,
        model: MaterialModel,
        geometry: ExperimentGeometry | None = None,
        settings: LifshitzSettings | None = None,
    ):
        self.model = model
        self.geometry = geometry or ExperimentGeometry()
        self.settings = settings or _DEFAULT_SETTINGS
        self._kept: dict[float, PlateTower] = {}

    def preload(self, d_m) -> None:
        """Compute the towers at every d of ``d_m`` in one batched pass.

        Calls at those d reuse them, bit-identical to a pass per d, until a
        call at any other d replaces them.
        """
        ds = np.asarray(d_m, dtype=float).ravel()
        towers = _plate_kernels(
            self.model, ds, self.geometry.temperature, _TOWER, self.settings, self.geometry
        )
        self._kept = dict(zip(ds.tolist(), map(PlateTower._make, towers)))

    def _tower(self, d: float) -> PlateTower:
        if float(d) not in self._kept:
            self.preload((d,))
        return self._kept[float(d)]

    def __call__(self, d: float) -> float:
        return -2.0 * math.pi * self.geometry.sphere_radius * self._tower(d).energy

    def gradient(self, d: float) -> float:
        return -2.0 * math.pi * self.geometry.sphere_radius * self._tower(d).pressure

    def curvature(self, d: float) -> float:
        return -2.0 * math.pi * self.geometry.sphere_radius * self._tower(d).pressure_slope


# --------------------------------------------------------------------------
# force curves


@dataclass(frozen=True)
class ForceCurve:
    """Sampled sphere-plate force curve, ascending in d, attractive-positive."""

    model: MaterialModel
    geometry: ExperimentGeometry
    d_m: np.ndarray
    force_N: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d_m, dtype=float)
        f = np.asarray(self.force_N, dtype=float)
        if d.ndim != 1 or len(d) != len(f) or len(d) == 0:
            raise ValueError("d_m and force_N must be 1-D arrays of equal nonzero length")
        if np.any(np.diff(d) <= 0):
            raise ValueError("d_m must be strictly ascending")
        if not np.all(np.isfinite(f)):
            raise ValueError("force_N contains non-finite values")
        if np.any(f <= 0):
            raise ValueError("metallic force curves must be attractive (positive)")
        if np.any(np.diff(f) >= 0):
            raise ValueError("force magnitude must decrease with separation")
        d.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "d_m", d)
        object.__setattr__(self, "force_N", f)

    def as_evaluator(self) -> "TabulatedForceCurve":
        return TabulatedForceCurve(self.d_m, self.force_N)


def force_curve(
    model: MaterialModel,
    geometry: ExperimentGeometry,
    d_m,
    settings: LifshitzSettings | None = None,
) -> ForceCurve:
    """Evaluate the sphere-plate force on a distance grid in one batched pass."""
    d = np.asarray(d_m, dtype=float)
    forces = sphere_plate_force(model, d, geometry, settings)
    return ForceCurve(model=model, geometry=geometry, d_m=d, force_N=forces)


class TabulatedForceCurve:
    """Cubic-spline force evaluator over a sampled curve.

    Used wherever an analytic curve is too slow to call per sample (Monte
    Carlo time averaging, chi-squared scans against CSV theory curves).
    Its gradient and curvature are the spline's own derivatives.
    """

    def __init__(self, d_m, force_N):
        from scipy.interpolate import CubicSpline

        d = np.asarray(d_m, dtype=float)
        f = np.asarray(force_N, dtype=float)
        if len(d) < 4:
            raise ValueError("need at least 4 samples for a cubic spline")
        if np.any(np.diff(d) <= 0):
            raise ValueError("d_m must be strictly ascending")
        self.d_min = float(d[0])
        self.d_max = float(d[-1])
        self._spline = CubicSpline(d, f)
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.d_min) or np.any(x > self.d_max):
            bad = x[(x < self.d_min) | (x > self.d_max)]
            worst = float(bad.flat[np.argmax(np.abs(bad - 0.5 * (self.d_min + self.d_max)))])
            raise DomainError(
                f"separation {worst:g} outside tabulated range "
                f"[{self.d_min:g}, {self.d_max:g}]"
            )
        return x

    def __call__(self, x):
        return float_or_array(self._spline(self._check(x)))

    def gradient(self, x):
        return float_or_array(self._d1(self._check(x)))

    def curvature(self, x):
        return float_or_array(self._d2(self._check(x)))


# --------------------------------------------------------------------------
# numerical differentiation


@dataclass(frozen=True)
class DerivativeResult:
    """Finite-difference derivative with a truncation-error estimate."""

    value: float
    error: float
    flagged: bool
    step: float


def derivative(func: Callable, x: float, order: int = 1) -> DerivativeResult:
    """Richardson-extrapolated central difference of ``func`` at ``x``.

    ``order`` is 1 or 2, and ``x`` must be finite.  The step is
    h = max(1e-3*|x|, 1e-9); the evaluator must be defined on [x - h, x + h].
    The result is flagged when the error estimate exceeds 1% of the value.

    No module of the package calls it; every evaluator carries its own
    ``gradient`` and ``curvature``.  It stays only as the independent
    reference that ``tests/test_lifshitz.py`` checks F'' against, and
    because ``bench/tracing.py::instrument`` looks up ``lifshitz.derivative``
    by name; ROADMAP item 1 moves it into ``tests/``.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not math.isfinite(x):
        raise ValueError(f"derivative needs a finite x, got x = {x}")
    h = max(1e-3 * abs(x), 1e-9)

    def central(hh: float) -> float:
        if order == 1:
            return (func(x + hh) - func(x - hh)) / (2.0 * hh)
        return (func(x + hh) - 2.0 * func(x) + func(x - hh)) / (hh * hh)

    coarse = central(h)
    fine = central(0.5 * h)
    value = (4.0 * fine - coarse) / 3.0
    error = abs(fine - coarse) / 3.0
    flagged = error > 0.01 * abs(value) if value != 0.0 else error > 0.0
    return DerivativeResult(value=value, error=error, flagged=flagged, step=h)


def float_or_array(value) -> float | np.ndarray:
    """A scalar result as a Python float, an array result as a float array."""
    out = np.asarray(value, dtype=float)
    return float(out) if out.ndim == 0 else out
