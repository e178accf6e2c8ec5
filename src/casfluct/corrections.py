"""Systematic corrections from fluctuating plate separation.

A stationary zero-mean jitter delta(t) of the gap shifts the time-averaged
force through the curvature of the force law,

    F_a(d) = F(d) + (1/2) F''(d) <delta^2>,

and, when the jitter lies inside the measurement bandwidth, inflates the
per-point scatter,

    sigma_Fa^2 = sigma_F^2 + (F'(d) delta_rms)^2.

Out-of-band sources shift the mean only; in-band sources do both.
Uncorrelated sources combine in quadrature.  The same quadratic form
covers static surface roughness, so an rms roughness can simply be added
to the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .lifshitz import float_or_array
from .units import DomainError, check_amplitude

__all__ = [
    "ConstantProfile",
    "SqrtLawProfile",
    "TableProfile",
    "FluctuationProfile",
    "FluctuationSource",
    "FluctuationBudget",
    "DeltaCombination",
    "combine_delta_sources",
    "apparent_force",
    "inflated_sigma",
    "tilt_noise_estimate",
]


@dataclass(frozen=True)
class ConstantProfile:
    """Distance-independent rms fluctuation."""

    delta_rms: float  # m

    def __post_init__(self) -> None:
        check_amplitude("delta_rms", self.delta_rms)

    def __call__(self, d: float) -> float:
        if not d > 0:
            raise DomainError(f"distance must be > 0, got {d}")
        return self.delta_rms


@dataclass(frozen=True)
class SqrtLawProfile:
    """Square-root growth delta_rms(d) = amplitude * sqrt(d / scale).

    Defaults give delta_rms(3 um) = 1 um.  Evaluated literally; no
    rescaling is applied even though the default magnitudes are large
    compared with typical constant-profile fits.
    """

    scale: float = 3e-6  # m
    amplitude: float = 1e-6  # m

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        check_amplitude("amplitude", self.amplitude)

    def __call__(self, d: float) -> float:
        if not d > 0:
            raise DomainError(f"distance must be > 0, got {d}")
        return self.amplitude * math.sqrt(d / self.scale)


@dataclass(frozen=True)
class TableProfile:
    """Linearly interpolated delta_rms(d) from (d, delta) pairs."""

    d: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        v = np.asarray(self.delta, dtype=float)
        if d.ndim != 1 or len(d) < 2 or len(d) != len(v):
            raise ValueError("need >= 2 (d, delta) pairs of equal length")
        if np.any(np.diff(d) <= 0):
            raise ValueError("d must be strictly ascending")
        check_amplitude("delta", v)
        d.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "delta", v)

    def __call__(self, x: float) -> float:
        if not x > 0:
            raise DomainError(f"distance must be > 0, got {x}")
        return float(np.interp(x, self.d, self.delta))


FluctuationProfile = Union[ConstantProfile, SqrtLawProfile, TableProfile]


_BANDS = ("in-band", "out-of-band")


@dataclass(frozen=True)
class FluctuationSource:
    """One contribution to the fluctuation budget."""

    label: str
    delta_rms: float  # m
    band: str  # 'in-band' or 'out-of-band'

    def __post_init__(self) -> None:
        check_amplitude("delta_rms", self.delta_rms)
        if self.band not in _BANDS:
            raise ValueError(f"band must be one of {_BANDS}, got {self.band!r}")


@dataclass(frozen=True)
class FluctuationBudget:
    sources: tuple[FluctuationSource, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))


class DeltaCombination(NamedTuple):
    """Quadrature-combined rms per band."""

    in_band: float
    out_of_band: float

    @property
    def total(self) -> float:
        """Combined rms of all sources; this drives the mean-force shift."""
        return math.hypot(self.in_band, self.out_of_band)


def combine_delta_sources(budget: FluctuationBudget) -> DeltaCombination:
    """Add uncorrelated sources in quadrature, split by band.

    The total feeds the mean-force shift; only the in-band part feeds the
    scatter inflation.
    """
    sq = {band: 0.0 for band in _BANDS}
    for src in budget.sources:
        sq[src.band] += src.delta_rms**2
    return DeltaCombination(
        in_band=math.sqrt(sq["in-band"]),
        out_of_band=math.sqrt(sq["out-of-band"]),
    )


def apparent_force(
    force: Callable,
    d: float | np.ndarray,
    delta_rms: float,
    curvature: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Time-averaged apparent force F(d) + (1/2) F''(d) delta_rms^2.

    F'' is the ``curvature`` value at ``d`` when given, else the evaluator's
    own ``force.curvature(d)``.  ``d`` may be an array when the force and
    its curvature accept one; the result is then an array.
    """
    if not np.all(np.asarray(d) > 0):
        raise DomainError(f"distance must be > 0, got {d if np.ndim(d) == 0 else np.min(d)}")
    check_amplitude("delta_rms", delta_rms)
    base = float_or_array(force(d))
    if delta_rms == 0.0:
        return base
    second = float_or_array(force.curvature(d) if curvature is None else curvature)
    return base + 0.5 * second * delta_rms**2


def inflated_sigma(sigma_force: float, f_prime: float, delta_rms: float) -> float:
    """Scatter with the in-band fluctuation term: sqrt(sigma^2 + (F' delta)^2)."""
    if sigma_force < 0:
        raise DomainError(f"sigma_force must be >= 0, got {sigma_force}")
    check_amplitude("delta_rms", delta_rms)
    return math.hypot(sigma_force, f_prime * delta_rms)


def tilt_noise_estimate(
    ref_noise: float,
    ref_length: float,
    length: float,
    mode_freq_ratio: float | None = None,
) -> float:
    """Scale a measured pendulum tilt noise to a different pendulum length.

    The raw position noise scales with the lever arm, ref_noise * (length
    / ref_length).  A longer pendulum swings at a lower mode frequency, so
    less of the ambient tilt spectrum falls below the mode and the raw
    value is attenuated by 1/sqrt(mode_freq_ratio).  When the ratio is not
    given it defaults to sqrt(length/ref_length) (frequency ~ 1/sqrt(L)),
    i.e. a fourth-root-law attenuation.
    """
    check_amplitude("ref_noise", ref_noise)
    if not ref_length > 0 or not length > 0:
        raise DomainError("lengths must be > 0")
    if mode_freq_ratio is None:
        mode_freq_ratio = math.sqrt(length / ref_length)
    if not mode_freq_ratio > 0:
        raise DomainError(f"mode_freq_ratio must be > 0, got {mode_freq_ratio}")
    raw = ref_noise * (length / ref_length)
    return raw / math.sqrt(mode_freq_ratio)
