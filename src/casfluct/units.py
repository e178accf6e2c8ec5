"""Units, physical constants, and experiment geometry.

All physics in this package runs in SI internally.  File and command-line
interfaces use the micrometer/microdyne conventions of torsion-pendulum
force metrology (1 udyne = 1e-11 N), so a small curated unit table plus an
explicit ``convert`` call covers every quantity that crosses a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "UnitError",
    "DomainError",
    "ConvergenceError",
    "convert",
    "si_factor",
    "dimension_of",
    "PhysicalConstants",
    "CONSTANTS",
    "ExperimentGeometry",
    "UDYNE",
    "EV",
]

# 1 microdyne in newtons; 1 eV in joules (exact, CODATA 2018).
UDYNE = 1e-11
EV = 1.602176634e-19

# unit name -> (dimension, factor to SI). Deliberately a closed list: these
# are the only units that appear at any interface of the toolkit.
_UNITS: dict[str, tuple[str, float]] = {
    "m": ("length", 1.0),
    "cm": ("length", 1e-2),
    "um": ("length", 1e-6),
    "nm": ("length", 1e-9),
    "N": ("force", 1.0),
    "dyne": ("force", 1e-5),
    "udyne": ("force", UDYNE),
    "N/m": ("force_gradient", 1.0),
    "udyne/um": ("force_gradient", UDYNE / 1e-6),
    "N/m^2": ("force_curvature", 1.0),
    "udyne/um^2": ("force_curvature", UDYNE / 1e-12),
    "Pa": ("pressure", 1.0),
    "J": ("energy", 1.0),
    "eV": ("energy", EV),
    "K": ("temperature", 1.0),
    "rad": ("angle", 1.0),
    "N*m": ("force_times_length", 1.0),
    "udyne*um": ("force_times_length", UDYNE * 1e-6),
}


class UnitError(ValueError):
    """Unknown unit name or dimensionally incompatible conversion."""


class DomainError(ValueError):
    """An argument left the physical domain of an operation (e.g. d <= 0)."""


class ConvergenceError(RuntimeError):
    """A sum or integral failed to converge; carries the partial value and the
    number of terms (Matsubara terms, or the quadrature order of a KK integral)."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


def _lookup(unit: str) -> tuple[str, float]:
    try:
        return _UNITS[unit]
    except KeyError:
        known = ", ".join(sorted(_UNITS))
        raise UnitError(f"unknown unit {unit!r}; supported units: {known}") from None


def dimension_of(unit: str) -> str:
    """Return the dimension tag ('length', 'force', ...) of a unit name."""
    return _lookup(unit)[0]


def si_factor(unit: str) -> float:
    """Return the multiplicative factor taking one ``unit`` to its SI value."""
    return _lookup(unit)[1]


def convert(value: float, unit: str, to: str) -> float:
    """Convert ``value`` from ``unit`` to ``to``.

    Both units must carry the same dimension; mixing dimensions raises
    :class:`UnitError` naming both offending units.  The conversion is a
    single multiply and divide, so round trips are exact to <= 1 ulp.
    """
    dim_from, f_from = _lookup(unit)
    dim_to, f_to = _lookup(to)
    if dim_from != dim_to:
        raise UnitError(
            f"cannot convert {unit!r} ({dim_from}) to {to!r} ({dim_to}): "
            "dimensions differ"
        )
    return value * f_from / f_to


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
