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
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .permittivity import (
    Drude,
    MaterialModel,
    PerfectConductor,
    Plasma,
    Tabulated,
    UnsupportedModelError,
    eps_imag_axis,
)
from .units import C, EV, HBAR, HBAR_C, K_B, ConvergenceError, DomainError, ExperimentGeometry
from .units import check_amplitude, check_positive, check_samples, float_or_array

__all__ = [
    "ConvergenceError",
    "PFAValidityError",
    "plate_pressure",
    "plate_energy",
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


# Numerical controls, read at call time: a Matsubara series stops at the
# first term below _MATSUBARA_REL_TOL of its sum and fails past
# _MATSUBARA_MAX_TERMS terms; each k-integral stops at the first
# Gauss-Laguerre order within _QUAD_REL_TOL of the one before.
_MATSUBARA_REL_TOL = 1e-9
_MATSUBARA_MAX_TERMS = 5000
_QUAD_REL_TOL = 1e-8

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


def _log_scaled(r2, y, e):
    """exp(y) * log(1 - r2*e) for e = exp(-y), without overflow; each branch only where taken."""
    q = r2 * e
    out = -r2 * (1.0 + 0.5 * q + q * q / 3.0)  # the series of log1p, where q < 1e-8
    direct = ~(q < 1e-8)  # q >= 1e-8, i.e. y <~ 19 + log(r2), and NaN
    out[direct] = np.exp(np.minimum(y[direct], 40.0)) * np.log1p(-q[direct])
    return out


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


def _integrand(kind: str, y, e, r_tm2, r_te2):
    """exp(y) times the y-integrand of one kernel, summed over TM and TE, given e = exp(-y)."""
    if kind == "energy":
        return y * (_log_scaled(r_tm2, y, e) + _log_scaled(r_te2, y, e))
    den_tm, den_te = 1.0 - r_tm2 * e, 1.0 - r_te2 * e
    if kind == "pressure":
        return y * y * (r_tm2 / den_tm + r_te2 / den_te)
    return y**3 * (r_tm2 / den_tm**2 + r_te2 / den_te**2)


def _inner_rows(a: np.ndarray, r2_of_y: Callable, kinds: tuple, need=None):
    """exp(a_i) * integral over y in [a_i, inf) of each kernel in ``kinds``, for each a_i.

    Gauss-Laguerre in t = y - a_i, evaluated as a (rows x order) grid; the
    exp(a) scaling keeps every factor O(1) so terms at any Matsubara index
    can be composed stably.  ``r2_of_y(y, rows)`` gives the squared TM and
    TE reflection coefficients on the grid ``y`` of the listed rows.  Each
    row and each kernel stops at the first order that agrees with the one
    before.  Each row is reduced on its own, by one BLAS ``ddot`` through
    ``np.vecdot`` (not a matrix-vector product, whose bits depend on the
    batch), so a value depends neither on the other rows nor on which other
    kernels were requested.  ``need``, a (rows x kinds) mask, limits each
    row to the kernels it marks; every kernel of every row by default.
    Returns the values and the mask of those still unconverged at the last
    order, both shaped (rows x kinds), with 0 and False where a row was not
    asked for a kernel; callers decide whether an unconverged value is an
    error.
    """
    vals = np.zeros((a.size, len(kinds)))
    pending = np.ones(vals.shape, dtype=bool) if need is None else np.array(need, dtype=bool)
    for step, order in enumerate(_LAG_ORDERS):
        rows = np.flatnonzero(pending.any(axis=1))
        if rows.size == 0:
            break
        t, w = _lag_nodes(order)
        y = a[rows, None] + t
        grid = (y, np.exp(-y), *r2_of_y(y, rows))
        for j, kind in enumerate(kinds):
            sub = pending[rows, j]
            if not sub.any():
                continue
            # a kernel every row still needs takes the grid itself: copies would raise peak memory
            f = _integrand(kind, *(grid if sub.all() else [v[sub] for v in grid]))
            val = np.vecdot(f, w)
            idx = rows[sub]
            if step:
                prev = vals[idx, j]
                pending[idx, j] = ~(np.abs(val - prev) <= _QUAD_REL_TOL * np.maximum(np.abs(val), 1e-300))
            vals[idx, j] = val
    return vals, pending


def _unconverged_k_integral(kind: str, value: float) -> ConvergenceError:
    order = _LAG_ORDERS[-1]
    return ConvergenceError(
        f"{kind} k-integral did not converge at Gauss-Laguerre order {order}",
        partial_sum=value,
        terms=order,
    )


def _r2_factory(model: MaterialModel, xi_ev: np.ndarray, a: np.ndarray) -> Callable:
    """``r2_of_y`` of ``_inner_rows`` for rows a = 2 xi d / c; row i is at frequency xi_ev[i] (eV)."""
    if isinstance(model, PerfectConductor):
        return lambda y, rows: (np.ones_like(y), np.ones_like(y))
    eps = eps_imag_axis(model, xi_ev)
    return lambda y, rows: _r2_metal(eps[rows, None], y, a[rows, None])


# The plasma n = 0 TE energy integral: the trapezoid rule in t after
# y = exp(pi/2 sinh t), on these nodes (step 1/32), checked against the rule
# on every other node (step 1/16).  The ends cut off y < 5e-12 and y > 1.3e4,
# parts below 1e-19 of the integral for d = 0.05-50 um and omega_p = 1-30 eV.
_N0_TE_T = np.linspace(-3.5, 2.5, 193)
_N0_TE_REL_TOL = 1e-11


def _n0_te_energy(b):
    """int_0^inf y log(1 - r^2 e^-y) dy, r = (y - s)/(y + s), s = sqrt(y^2 + b^2).

    r^2 = (b/(y + s))^4 is taken as (1 - u)^4 with u = (y + y^2/(s + b))/(y + s),
    so 1 - r^2 e^-y keeps its digits where it goes like y near y = 0.  A 1-D float
    array ``b`` gives a list, from one (b x node) grid with a ``math.fsum`` per row.
    The first b whose steps differ beyond ``_N0_TE_REL_TOL`` raises.
    """
    t = _N0_TE_T
    y = np.exp(0.5 * math.pi * np.sinh(t))
    col = b[:, None]
    s = np.sqrt(y * y + col * col)
    z = 4.0 * np.log1p(-(y + y * y / (s + col)) / (y + s)) - y  # log(r^2 e^-y)
    q = np.exp(z)
    # log(1 - q), from expm1 near q = 1 and from log1p elsewhere
    log_1mq = np.where(q > 0.5, np.log(-np.expm1(z)), np.log1p(-np.minimum(q, 0.5)))
    f = y * log_1mq * (0.5 * math.pi * np.cosh(t) * y)
    h = float(t[1] - t[0])
    out = []
    for b_d, row in zip(b.tolist(), f.tolist()):
        fine = h * math.fsum(row)
        coarse = 2.0 * h * math.fsum(row[::2])
        if not abs(fine - coarse) <= _N0_TE_REL_TOL * abs(fine):
            raise ConvergenceError(
                f"plasma n = 0 TE energy integral did not converge (b = {b_d:g}): "
                f"step {h:g} gives {fine!r}, step {2.0 * h:g} gives {coarse!r}",
                partial_sum=fine,
                terms=t.size,
            )
        out.append(fine)
    return out


def _n0_scaled(model: MaterialModel, ds, kinds: tuple) -> list:
    """Zero-frequency term of each scaled sum (a = 0, model-specific TE) at each d of ``ds``.

    The plasma TE pressure and slope of every d come from one
    ``_inner_rows`` call, a row per d with its own b.  The first d, in grid
    order, whose term fails to converge raises its ``ConvergenceError``.
    """
    tm = [_N0_TM[kind] for kind in kinds]
    if isinstance(model, PerfectConductor):
        return [[2.0 * v for v in tm]] * len(ds)
    if isinstance(model, (Drude, Tabulated)):
        return [tm] * len(ds)  # TE reflection vanishes at zero frequency
    if not isinstance(model, Plasma):
        raise UnsupportedModelError(f"unknown material model {model!r}")
    omega_p = model.omega_p_ev * EV / HBAR  # rad/s
    b = 2.0 * np.asarray(ds, dtype=float) * omega_p / C
    laguerre = tuple(kind for kind in kinds if kind != "energy")

    def r2(y, rows):
        s = np.sqrt(y * y + b[rows, None] * b[rows, None])
        r = (y - s) / (y + s)
        return np.zeros_like(y), r * r

    # energy alone leaves no kinds here: _inner_rows then gives (rows x 0) arrays, never calling r2
    vals, unconverged = _inner_rows(np.zeros(b.size), r2, laguerre)
    # the d of the first flagged row fails unless an earlier d, or its own energy, fails first
    first = int(np.argmax(unconverged.any(axis=1))) if unconverged.any() else b.size
    te = {kind: vals[: first + 1, j] for j, kind in enumerate(laguerre)}
    if "energy" in kinds:
        te["energy"] = np.array(_n0_te_energy(b[: first + 1]))
    if first < b.size:
        j = int(np.argmax(unconverged[first]))
        raise _unconverged_k_integral(laguerre[j], float(vals[first, j]))
    return (np.array(tm) + np.stack([te[kind] for kind in kinds], axis=1)).tolist()


def _xi1_rad(T: float) -> float:
    return 2.0 * math.pi * K_B * T / HBAR


# The Matsubara series of each d is computed in blocks of terms: the first
# block holds the terms with a_n <= _BLOCK_A (the default 1e-9 stop lands at
# a_n ~ 15-40), every later block as many again, and no block more than
# _BLOCK_MAX terms.  A grid of d is summed in rounds, each taking the next
# block of every d still summing; a round's rows go through _inner_rows calls
# of _BLOCK_MAX rows (the last fewer), which bounds the memory of one call.
_BLOCK_A = 30.0
_BLOCK_MAX = 256


def _series_extent(d: float, xi1: float, n: np.ndarray) -> tuple[int, int]:
    """Stop and block size of the Matsubara series of d, as the full array of a_n gives them.

    The stop counts the a_n = 2 d xi_n / c <= 700 (later terms underflow to
    zero), the block size those <= ``_BLOCK_A``, at least 1 and at most
    ``_BLOCK_MAX``, over n <= ``n.size``.  a_n, rounded as the array rounds it, never falls
    as n grows, so each count is found by stepping from limit / a_1 (from ``n.size`` when
    a_1 * ``n.size`` is within the limit, so that a tiny a_1 never reaches int(inf)).
    """
    n_max, a_1, counts = n.size, 2.0 * d * xi1 / C, []
    for limit in (700.0, _BLOCK_A):
        k = n_max if a_1 * n_max <= limit else min(int(limit / a_1), n_max)
        while k < n_max and 2.0 * d * (k + 1) * xi1 / C <= limit:
            k += 1
        while k and 2.0 * d * k * xi1 / C > limit:
            k -= 1
        counts.append(k)
    return counts[0], min(max(counts[1], 1), _BLOCK_MAX)


def _thermal_sum(model, ds, T, kinds) -> list[list[float]]:
    """sum'_n exp(-a_n) * inner(a_n) of each kernel at each d of ``ds``, the scale-free Matsubara series.

    inner(a) is the exp(a)-scaled k-integral of ``_inner_rows``.  Round r
    computes block r, the terms n[r*size:(r+1)*size], of every d still
    summing, a row computing only the kernels its d still needs; a block
    may straddle two calls, as each row is reduced on its own.  Then, one d
    at a time in grid order, the terms are added one at a time in n, each
    kernel stopping at its own converged term count, and a d whose next
    block would start at or past its stop is done.  The grid raises the
    first failure it meets: the n = 0 terms come first (``_n0_scaled``),
    then the rounds, and within a round the first failing d in grid order.
    A block may compute terms past the stop; only a consumed term can raise.
    """
    stop_rel = _MATSUBARA_REL_TOL
    xi1 = _xi1_rad(T)
    n_max = _MATSUBARA_MAX_TERMS
    n = np.arange(1, n_max + 1)
    columns = range(len(kinds))
    strict = [kind in _STRICT for kind in kinds]
    sums = [[0.5 * v for v in zero] for zero in _n0_scaled(model, ds, kinds)]
    # (index, d, stop, block size, kernel columns still summing) of each d still summing
    live = [(i, d, *_series_extent(d, xi1, n), list(columns)) for i, d in enumerate(ds)]
    r = 0
    while live:
        # block r of each d still summing; a series with no terms (stop 0) takes no rows
        blocks = [n[r * size : (r + 1) * size] if r * size < stop else n[:0] for _, _, stop, size, _ in live]
        sizes, ns = [block.size for block in blocks], np.concatenate(blocks)
        # per round, not kept per d (a grid's series are all alive at once), rounded as _series_extent rounds
        a = 2.0 * np.repeat([d for _, d, *_ in live], sizes) * ns * xi1 / C
        xi_ev = ns * xi1 * HBAR / EV
        need = np.repeat([[j in p for j in columns] for *_, p in live], sizes, axis=0)
        vals, unconverged = np.zeros(need.shape), np.zeros(need.shape, dtype=bool)
        for lo in range(0, a.size, _BLOCK_MAX):
            cut = slice(lo, lo + _BLOCK_MAX)
            r2 = _r2_factory(model, xi_ev[cut], a[cut])
            vals[cut], unconverged[cut] = _inner_rows(a[cut], r2, kinds, need[cut])
        lo, kept = 0, []
        for (i, d, stop, size, pending), rows in zip(live, sizes):
            acc, hi = sums[i], lo + rows
            for a_n, row, bad in zip(a[lo:hi].tolist(), vals[lo:hi].tolist(), unconverged[lo:hi].tolist()):
                scale = math.exp(-a_n)
                still = []
                for j in pending:
                    if bad[j] and strict[j]:
                        raise _unconverged_k_integral(kinds[j], row[j])
                    term = scale * row[j]
                    acc[j] += term
                    if not abs(term) <= stop_rel * abs(acc[j]):
                        still.append(j)
                pending = still
                if not pending:
                    break
            lo = hi
            if pending and (r + 1) * size < stop:
                kept.append((i, d, stop, size, pending))
            elif pending and stop == n_max:
                raise ConvergenceError(
                    f"Matsubara sum did not converge within {n_max} terms (d={d:g} m, T={T:g} K)",
                    partial_sum=acc[pending[0]],
                    terms=n_max,
                )
        live, r = kept, r + 1
    return sums


def _zero_t_integral(model, d, kinds) -> list[float]:
    """int_0^inf I(a) da of each kernel, I(a) = exp(-a)*inner(a), by 128-node Gauss-Laguerre.

    The rule is not checked for convergence, and neither are its
    k-integrals: for Drude-like models both stop short of ``_QUAD_REL_TOL``
    (the 64-node rule differs by ~2e-4).
    """
    A, W = _lag_nodes(128)
    xi_ev = A * C * HBAR / (2.0 * d * EV)
    vals, _ = _inner_rows(A, _r2_factory(model, xi_ev, A), kinds)
    sums = [0.0] * len(kinds)
    for w, row in zip(W.tolist(), vals.tolist()):
        for i, v in enumerate(row):
            sums[i] += w * v
    return sums


def _check_pfa(ds, geometry: ExperimentGeometry) -> None:
    """Warn once for all d with 1e-3 < d/R < 0.1, then reject the first d with d/R >= 0.1."""
    ratio = np.asarray(ds, dtype=float) / geometry.sphere_radius
    degraded, invalid = ratio[(ratio > 1e-3) & (ratio < 0.1)], ratio[ratio >= 0.1]
    if degraded.size:
        up = 1  # warn from the first frame outside this package, whichever entry point led here
        while sys._getframe(up).f_globals.get("__name__", "").partition(".")[0] == __package__:
            up += 1
        warnings.warn(f"{degraded.size} of {ratio.size} separations have 1e-3 < d/R < 0.1 (largest "
                      f"{degraded.max():.3g}): proximity-force approximation degraded", stacklevel=up + 1)
    if invalid.size:
        raise PFAValidityError(f"d/R = {invalid[0]:.3g} >= 0.1: proximity-force approximation invalid")


def _plate_kernels(model, ds, T, kinds: tuple) -> list[list[float]]:
    """SI values of the requested kernels at each d of ``ds``, from one Matsubara (or T = 0) pass.

    Every d is checked before the first sum: for finite d > 0, then T >= 0.
    """
    check_positive("separation", ds)
    check_amplitude("temperature", T)
    zero_t = T == 0.0
    if not zero_t:
        values = _thermal_sum(model, ds, T, kinds)
    elif isinstance(model, PerfectConductor):
        values = [[_PC_ZERO_T[kind] for kind in kinds]] * len(ds)
    else:
        values = [_zero_t_integral(model, d, kinds) for d in ds]
    out = []
    for d, row in zip(ds, values):
        si = []
        for kind, v in zip(kinds, row):
            power, sign = _KERNELS[kind]
            if zero_t:
                si.append(sign * (HBAR_C / (32.0 * math.pi**2 * d ** (power + 1)) * v))
            else:
                si.append(sign * (K_B * T / (8.0 * math.pi * d**power) * v))
        out.append([float(v) for v in si])
    return out


def plate_pressure(model: MaterialModel, d: float, T: float) -> float:
    """Attractive parallel-plate pressure in Pa (positive), at separation d (m).

    At T = 0 the Matsubara sum is replaced by the continuous
    imaginary-frequency integral, in closed form for a perfect conductor.
    """
    return _plate_kernels(model, (d,), T, ("pressure",))[0][0]


def plate_energy(model: MaterialModel, d: float, T: float) -> float:
    """Interaction free energy per unit area in J/m^2 (negative = binding)."""
    return _plate_kernels(model, (d,), T, ("energy",))[0][0]


_TOWER = ("energy", "pressure", "slope")


def _sphere_kernels(model, d, geometry, kinds: tuple) -> np.ndarray:
    """-2 pi R times each kernel of ``kinds`` at each d of ``d``, shaped d's shape + (len(kinds),).

    Under the PFA that is F for the energy, F' for the pressure and F'' for
    the slope, from one ``_plate_kernels`` pass over every d.  Every d is
    checked against the PFA before that pass checks it further.
    """
    grid = np.asarray(d, dtype=float)
    ds = (d,) if grid.ndim == 0 else grid.ravel()
    _check_pfa(ds, geometry)
    values = np.array(_plate_kernels(model, ds, geometry.temperature, kinds))
    # (-2 pi R) * E, left to right, as for one Python float E
    return -2.0 * math.pi * geometry.sphere_radius * values.reshape(grid.shape + (len(kinds),))


def sphere_plate_force(
    model: MaterialModel,
    d: float | np.ndarray,
    geometry: ExperimentGeometry | None = None,
) -> float | np.ndarray:
    """Attractive sphere-plate force in N (positive) via F = -2 pi R E(d).

    ``d`` may be an array: its forces come from one batched Matsubara pass
    and equal the scalar ones bit for bit.  Valid for d << R; d/R >= 0.1
    is rejected and d/R > 1e-3 warned about.
    """
    geometry = geometry or ExperimentGeometry()
    return float_or_array(_sphere_kernels(model, d, geometry, ("energy",))[..., 0])


class SpherePlateForce:
    """Sphere-plate force evaluator F(d) with exact F'(d) and F''(d).

    Under the PFA F = -2 pi R E, F' = -2 pi R P and F'' = -2 pi R dP/dd.
    ``d`` may be a scalar or an array.  A call gets all three at every d
    of the call from one batched tower pass, bit for bit the values of a
    pass per d, and keeps them until a call at other d, so F, F' and F''
    on one grid cost a single pass.  The kept pass is keyed by d alone:
    treat ``model`` and ``geometry`` as fixed after construction.
    """

    def __init__(self, model: MaterialModel, geometry: ExperimentGeometry | None = None):
        self.model = model
        self.geometry = geometry or ExperimentGeometry()
        self._key, self._kept = None, None

    def _kernel(self, d, j: int):
        grid = np.asarray(d, dtype=float)
        key = (grid.shape, grid.tobytes())
        if key != self._key:
            self._kept = _sphere_kernels(self.model, d, self.geometry, _TOWER)
            self._key = key
        return float_or_array(self._kept[..., j].copy())

    def __call__(self, d):
        return self._kernel(d, 0)

    def gradient(self, d):
        return self._kernel(d, 1)

    def curvature(self, d):
        return self._kernel(d, 2)


# --------------------------------------------------------------------------
# force curves


@dataclass(frozen=True)
class ForceCurve:
    """Sampled sphere-plate force curve, ascending in d, attractive-positive."""

    d_m: np.ndarray
    force_N: np.ndarray

    def __post_init__(self) -> None:
        d, f = check_samples(("d_m", "force_N"), self.d_m, self.force_N)
        if np.any(f <= 0):
            raise ValueError("metallic force curves must be attractive (positive)")
        if np.any(np.diff(f) >= 0):
            raise ValueError("force magnitude must decrease with separation")
        object.__setattr__(self, "d_m", d)
        object.__setattr__(self, "force_N", f)

    def as_evaluator(self) -> "TabulatedForceCurve":
        return TabulatedForceCurve(self.d_m, self.force_N)


def force_curve(model: MaterialModel, geometry: ExperimentGeometry, d_m) -> ForceCurve:
    """Evaluate the sphere-plate force on a distance grid in one batched pass."""
    d = np.asarray(d_m, dtype=float)
    forces = sphere_plate_force(model, d, geometry)
    return ForceCurve(d_m=d, force_N=forces)


_SPLINE_BUCKETS = 8  # at most this many buckets per knot interval in spline evaluation


def _not_a_knot_slopes(x, dx, slope) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic through knots x with interval
    widths dx and chord slopes ``slope``, bit for bit scipy's.

    The tridiagonal system is the one ``scipy.interpolate.CubicSpline``
    builds (n >= 4), and it is solved as LAPACK ``dgtsv`` solves one
    right-hand side, the routine ``scipy.linalg.solve_banded`` calls for
    (1, 1) bands: elimination with row interchanges, then back substitution.
    Every subdiagonal entry is a positive knot width, so only the last
    pivot can vanish (a singular system), and dividing by it would raise
    ZeroDivisionError.
    """
    d_0, d_1 = x[2] - x[0], x[-1] - x[-3]
    b = np.empty(len(x))
    b[0] = ((dx[0] + 2 * d_0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d_0
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d_1 + dx[-1]) * dx[-2] * slope[-1]) / d_1
    diag = [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])]
    lower = [*dx[1:].tolist(), float(d_1)]
    # padded: an interchange at the last step reads and writes upper[n - 1], which nothing uses
    upper = [float(d_0), *dx[:-1].tolist(), 0.0]
    b = b.tolist()
    n = len(b)
    for i in range(n - 1):
        if abs(diag[i]) >= abs(lower[i]):
            fact = lower[i] / diag[i]
            diag[i + 1] = diag[i + 1] - fact * upper[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            lower[i] = 0.0
        else:
            fact = diag[i] / lower[i]
            diag[i], temp = lower[i], diag[i + 1]
            diag[i + 1] = upper[i] - fact * temp
            lower[i] = upper[i + 1]  # the second superdiagonal, fill-in of the interchange
            upper[i + 1] = -fact * lower[i]
            upper[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[-1] = b[-1] / diag[-1]
    b[-2] = (b[-2] - upper[-2] * b[-1]) / diag[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1] - lower[i] * b[i + 2]) / diag[i]
    return np.array(b)


class TabulatedForceCurve:
    """Not-a-knot cubic-spline force evaluator over a sampled curve.

    Used wherever an analytic curve is too slow to call per sample (Monte
    Carlo time averaging, chi-squared scans against CSV theory curves).
    Its gradient and curvature are the spline's own derivatives.  Built and
    evaluated in numpy, it equals scipy's ``CubicSpline`` and its
    ``derivative(1)``/``(2)`` bit for bit: the knot slopes come from
    ``_not_a_knot_slopes``, the coefficients from ``CubicHermiteSpline``'s
    formula and the derivative rows from ``PPoly.derivative``'s factors.
    A point's interval [x_i, x_i+1) (the last closed at d_max) needs no
    binary search: the bucket int((x - d_min)*inv_h) is monotone in x, so
    its table entry, the last knot of an earlier bucket, is at or below x,
    and as many one-knot steps as the fullest bucket holds knots reach the
    interval.
    """

    def __init__(self, d_m, force_N):
        d, f = check_samples(("d_m", "force_N"), d_m, force_N, min_len=4)
        dx = np.diff(d)
        self.d_min = float(d[0])
        self.d_max = float(d[-1])
        slope = np.diff(f) / dx
        s = _not_a_knot_slopes(d, dx, slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c_3, c_2 = t / dx, (slope - s[:-1]) / dx - t
        # F, F' and F'' per interval as rows of ascending powers of u = x - x_i;
        # scipy's sum starts from 0.0, so each constant row holds 0.0 + c
        self._rows = (
            (f[:-1] + 0.0, s[:-1], c_2, c_3),
            (s[:-1] + 0.0, c_2 * 2.0, c_3 * 3.0),
            (c_2 * 2.0 + 0.0, c_3 * 6.0),
        )
        self._knots, self._upper = d[:-1], np.append(d[1:-1], np.inf)
        span = self.d_max - self.d_min
        buckets = int(min(np.ceil(span / dx.min()), _SPLINE_BUCKETS * (len(d) - 1)))
        self._inv_h = buckets / span
        home = self._bucket(d)
        self._start = np.maximum(np.searchsorted(home, np.arange(buckets + 1)) - 1, 0)
        load = np.bincount(home)
        load[0] -= 1  # knot 0 itself starts bucket 0
        self._steps = int(load.max())

    def _bucket(self, x):
        return ((x - self.d_min) * self._inv_h).astype(np.intp)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        # min and max carry a NaN through and it fails the test: NaN never reaches the table
        if not (x.min(initial=np.inf) >= self.d_min and x.max(initial=-np.inf) <= self.d_max):
            bad = x[~((x >= self.d_min) & (x <= self.d_max))]
            worst = float(bad.flat[np.argmax(np.abs(bad - 0.5 * (self.d_min + self.d_max)))])
            raise DomainError(
                f"separation {worst:g} outside tabulated range "
                f"[{self.d_min:g}, {self.d_max:g}]"
            )
        return x

    def _evaluate(self, x, rows):
        # one pass over all of x: a caller with many points (the time average) blocks them
        x = self._check(x)
        i = self._start.take(self._bucket(x))
        for _ in range(self._steps):
            i += x >= self._upper.take(i)
        s = x - self._knots.take(i)
        # scipy's evaluate_poly1 order: ((0.0 + c_3) + c_2*s) + c_1*(s*s) + c_0*((s*s)*s)
        value, power = rows[0].take(i), s
        for row in rows[1:-1]:
            value += row.take(i) * power
            power = power * s
        return float_or_array(value + rows[-1].take(i) * power)

    def __call__(self, x):
        return self._evaluate(x, self._rows[0])

    def gradient(self, x):
        return self._evaluate(x, self._rows[1])

    def curvature(self, x):
        return self._evaluate(x, self._rows[2])


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
