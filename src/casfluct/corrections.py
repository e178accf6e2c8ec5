"""Systematic corrections from fluctuating plate separation.

A stationary zero-mean jitter delta(t) of the gap shifts the time-averaged
force through the curvature of the force law,

    F_a(d) = F(d) + (1/2) F''(d) <delta^2>,

and, when the jitter lies inside the measurement bandwidth, inflates the
per-point scatter,

    sigma_Fa^2 = sigma_F^2 + (F'(d) delta_rms)^2.

Out-of-band sources shift the mean only; in-band sources do both.
Uncorrelated sources, static surface roughness among them, add to
delta_rms in quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .units import DomainError, check_amplitude, check_positive, check_samples, float_or_array

__all__ = [
    "ConstantProfile",
    "SqrtLawProfile",
    "TableProfile",
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
        check_positive("distance", d)
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
        check_positive("scale", self.scale)
        check_amplitude("amplitude", self.amplitude)

    def __call__(self, d: float) -> float:
        check_positive("distance", d)
        return self.amplitude * math.sqrt(d / self.scale)


@dataclass(frozen=True)
class TableProfile:
    """Linearly interpolated delta_rms(d) from (d, delta) pairs.

    A d outside the tabulated span raises :class:`DomainError`; the table
    is never extrapolated.
    """

    d: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        check_amplitude("delta", self.delta)  # first, so a NaN is a DomainError
        d, v = check_samples(("d", "delta"), self.d, self.delta, min_len=2)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "delta", v)

    def __call__(self, x: float) -> float:
        check_positive("distance", x)
        lo, hi = float(self.d[0]), float(self.d[-1])
        if not lo <= x <= hi:
            raise DomainError(f"distance {x:g} outside tabulated range [{lo:g}, {hi:g}]")
        return float(np.interp(x, self.d, self.delta))


def apparent_force(
    force: Callable, d: float | np.ndarray, delta_rms: float | np.ndarray
) -> float | np.ndarray:
    """Time-averaged apparent force F(d) + (1/2) F''(d) delta_rms^2.

    F'' is the evaluator's own ``force.curvature(d)``, which is not asked
    for when every delta_rms is zero.  ``d`` may be an array when the force
    and its curvature accept one, and ``delta_rms`` an array of one value
    per d; the result is then an array.  :func:`apparent_from_values`
    takes F and F'' as values instead.
    """
    check_positive("distance", d)
    check_amplitude("delta_rms", delta_rms)
    base = float_or_array(force(d))
    if not np.any(delta_rms):
        return base
    return apparent_from_values(base, float_or_array(force.curvature(d)), delta_rms)


def apparent_from_values(force_value, curvature, delta_rms):
    """F + (1/2) F'' delta_rms^2 from values of F and F'' at the same d."""
    return force_value + 0.5 * curvature * delta_rms**2


def inflated_sigma(sigma_force, f_prime, delta_rms) -> float | np.ndarray:
    """Scatter with the in-band fluctuation term, sqrt(sigma^2 + (F' delta)^2); arrays allowed."""
    check_amplitude("sigma_force", sigma_force)
    check_amplitude("delta_rms", delta_rms)
    return float_or_array(np.hypot(sigma_force, f_prime * delta_rms))


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
    check_positive("ref_length", ref_length)
    check_positive("length", length)
    if mode_freq_ratio is None:
        mode_freq_ratio = math.sqrt(length / ref_length)
    check_positive("mode_freq_ratio", mode_freq_ratio)
    raw = ref_noise * (length / ref_length)
    return raw / math.sqrt(mode_freq_ratio)
