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
    "PhysicalConstants",
    "CONSTANTS",
    "ExperimentGeometry",
    "UDYNE",
    "EV",
]

# 1 microdyne in newtons; 1 eV in joules (exact, CODATA 2018).
UDYNE = 1e-11
EV = 1.602176634e-19


class DomainError(ValueError):
    """An argument left the physical domain of an operation (e.g. d <= 0)."""


def check_amplitude(name: str, value) -> None:
    """Raise DomainError unless ``value`` (a scalar or an array) is finite and >= 0.

    The test is written positively because NaN passes ``value < 0``.
    """
    v = np.asarray(value, dtype=float)
    ok = np.isfinite(v) & (v >= 0)
    if not np.all(ok):
        raise DomainError(f"{name} must be finite and >= 0, got {v[~ok].flat[0]:g}")


class ConvergenceError(RuntimeError):
    """A sum or integral failed to converge; carries the partial value and the
    number of terms (Matsubara terms, or the quadrature order of a KK integral)."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 constants used by the force kernels. Immutable."""

    hbar: float = 1.054571817e-34  # J s
    c: float = 299792458.0  # m/s
    k_B: float = 1.380649e-23  # J/K

    @property
    def hbar_c(self) -> float:
        """hbar * c in J m."""
        return self.hbar * self.c


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ExperimentGeometry:
    """Sphere-plate geometry and operating temperature.

    Defaults are a 12.4 cm radius of curvature and room temperature, the
    regime where the centimeter-scale pendulum experiments operate.
    """

    sphere_radius: float = 0.124  # m
    temperature: float = 300.0  # K

    def __post_init__(self) -> None:
        if not self.sphere_radius > 0:
            raise ValueError(f"sphere_radius must be > 0, got {self.sphere_radius}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
