"""Unit constants, physical constants, error types and experiment geometry.

All physics in this package runs in SI internally.  File and command-line
interfaces use the micrometer/microdyne conventions of torsion-pendulum
force metrology (1 udyne = 1e-11 N); the CLI converts at its boundary with
the ``UDYNE`` constant here and its own ``UM`` = 1e-6 m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "ExperimentGeometry",
    "UDYNE",
    "EV",
    "HBAR",
    "C",
    "K_B",
    "HBAR_C",
]

# 1 microdyne in newtons; 1 eV in joules (exact, CODATA 2018).
UDYNE = 1e-11
EV = 1.602176634e-19
# CODATA 2018: hbar in J s, c in m/s, k_B in J/K, and hbar * c in J m.
HBAR = 1.054571817e-34
C = 299792458.0
K_B = 1.380649e-23
HBAR_C = HBAR * C


def float_or_array(value) -> float | np.ndarray:
    """A scalar result as a Python float, an array result as a float array."""
    out = np.asarray(value, dtype=float)
    return float(out) if out.ndim == 0 else out


class DomainError(ValueError):
    """An argument left the physical domain of an operation (e.g. d <= 0)."""


def check_amplitude(name: str, value) -> None:
    """Raise DomainError unless ``value`` (a scalar or an array) is finite and >= 0."""
    _check_domain(name, value, ">=")


def check_positive(name: str, value) -> None:
    """Raise DomainError unless ``value`` (a scalar or an array) is finite and > 0."""
    _check_domain(name, value, ">")


def _check_domain(name: str, value, relation: str) -> None:
    """The one domain test; written positively, because NaN passes ``value < 0``."""
    v = np.asarray(value, dtype=float)
    ok = np.isfinite(v) & ((v > 0) if relation == ">" else (v >= 0))
    if not ok.all():
        raise DomainError(f"{name} must be finite and {relation} 0, got {v[~ok].flat[0]:g}")


def check_samples(names, *columns, min_len: int = 1) -> tuple[np.ndarray, ...]:
    """Read-only copies of the sampled ``columns``, named by ``names`` in order.

    Each copy is float, except that a signed-integer column stays integer;
    the caller's arrays are left as they were.  Raise ValueError unless the
    columns are 1-D, all of one length >= ``min_len``, finite, and the first
    is strictly ascending.  The tests are written positively, so NaN fails.
    """
    copies = []
    for column in columns:
        a = np.array(column)  # a copy, whatever the caller holds
        if a.dtype.kind != "i":
            a = a.astype(float, copy=False)
        a.setflags(write=False)
        copies.append(a)
    x = copies[0]
    if x.ndim != 1 or len(x) < min_len or any(a.shape != x.shape for a in copies):
        got = ", ".join(f"{n} {a.shape}" for n, a in zip(names, copies))
        raise ValueError(f"need at least {min_len} samples, 1-D and of equal length; got {got}")
    for name, a in zip(names, copies):
        ok = np.isfinite(a)
        if not np.all(ok):
            raise ValueError(f"{name} must be finite, got {a[~ok][0]:g}")
    if not np.all(np.diff(x) > 0):
        i = int(np.argmin(np.diff(x) > 0))
        raise ValueError(f"{names[0]} must be strictly ascending, got {x[i + 1]:g} after {x[i]:g}")
    return tuple(copies)


class ConvergenceError(RuntimeError):
    """A sum or integral failed to converge; carries the partial value and the
    number of terms (Matsubara or incomplete-gamma terms, or a KK integral's order)."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


@dataclass(frozen=True)
class ExperimentGeometry:
    """Sphere-plate geometry and operating temperature.

    Defaults are a 12.4 cm radius of curvature and room temperature, the
    regime where the centimeter-scale pendulum experiments operate.
    """

    sphere_radius: float = 0.124  # m
    temperature: float = 300.0  # K

    def __post_init__(self) -> None:
        check_positive("sphere_radius", self.sphere_radius)
        check_amplitude("temperature", self.temperature)
