"""Brute-force Monte Carlo check of the fluctuation corrections.

Band-limited stationary Gaussian series delta(t) are synthesized in the
frequency domain and pushed through the exact force law; the empirical
time average and scatter are then compared against the quadratic-order
predictions (mean shift (1/2) F'' delta_rms^2, excess scatter
|F'| delta_rms) without any Taylor expansion on the sampling side.

One run of trials reuses one set of buffers (the band shape, the
spectrum and the series), so a trial of n samples adds no n-sized
allocation of its own; every number is what the one-shot functions give.

The synthesis rescales each realization so its sample rms equals the
requested value exactly; the analytic predictions therefore see the
realized second moment, and the comparison isolates the truncation error
of the quadratic formula itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import _KINDS
from .analysis import evaluate_theory
from .corrections import apparent_force, inflated_sigma
from .units import DomainError, check_amplitude, check_positive

__all__ = [
    "BandError",
    "ProcessSpec",
    "TimeAverageReport",
    "TrialVerdict",
    "VerificationRecord",
    "sample_process",
    "time_averaged_force",
    "verify_second_order",
    "fourth_order_allowance",
]


@dataclass(frozen=True)
class ProcessSpec:
    """Band-limited stationary zero-mean Gaussian displacement process.

    Defaults mirror measured torsion-pendulum conditions: 20 nm rms in a
    0.01-5 Hz band sampled at 20 Hz.  The duration must cover at least
    100 cycles of the lowest band frequency so realizations are
    statistically stationary.
    """

    target_rms: float = 2e-8  # m
    f_lo: float = 0.01  # Hz
    f_hi: float = 5.0  # Hz
    kind: str = "white"
    seed: int = 0
    dt: float = 0.05  # s
    duration: float = 10000.0  # s

    def __post_init__(self) -> None:
        check_amplitude("target_rms", self.target_rms)
        check_positive("dt", self.dt)
        check_positive("duration", self.duration)
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        nyquist = 0.5 / self.dt
        if not 0 <= self.f_lo < self.f_hi <= nyquist:
            raise ValueError(
                f"need 0 <= f_lo < f_hi <= Nyquist ({nyquist:g} Hz), "
                f"got [{self.f_lo}, {self.f_hi}]"
            )
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.f_lo > 0 and self.duration < 100.0 / self.f_lo:
            raise ValueError(
                f"duration {self.duration:g} s too short: need >= 100 cycles of "
                f"f_lo, i.e. >= {100.0 / self.f_lo:g} s"
            )
        if self.duration < 2 * self.dt:
            raise ValueError("duration must cover at least two samples")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.dt))


class BandError(ValueError):
    """Requested band contains no frequency bins at this dt/duration."""


_BLOCK = 1 << 13  # samples per evaluator call in time_averaged_force; no evaluator blocks again


class _Workspace:
    """The buffers one run of trials reuses, so no trial allocates its own.

    The band shape is built once.  ``series`` is a view of the buffer the
    normals are drawn into, ahead of the inverse transform that overwrites
    them; ``values`` is the spectrum's memory, free for squares and force
    samples once the spectrum has been transformed.  A series returned
    from here is overwritten by the next synthesis.
    """

    def __init__(self, spec: ProcessSpec):
        n = spec.n_samples
        freqs = np.fft.rfftfreq(n, spec.dt)
        lo = max(int(np.searchsorted(freqs, spec.f_lo, side="left")), 1)
        hi = int(np.searchsorted(freqs, spec.f_hi, side="right"))
        if lo >= hi:
            raise BandError(
                f"band [{spec.f_lo}, {spec.f_hi}] Hz contains no bins for "
                f"n={n}, dt={spec.dt}"
            )
        self.band = slice(lo, hi)
        if spec.kind == "white":
            self.shape = 1.0
        else:
            self.shape = 1.0 / np.sqrt(freqs[lo:hi])
        m = len(freqs)
        del freqs  # freed before the n-sized buffers are allocated
        self.spectrum = np.empty(m, dtype=complex)
        self._normals = np.empty(2 * m)
        self.series = self._normals[:n]
        self.values = self.spectrum.view(float)[:n]

    def synthesize(self, spec: ProcessSpec) -> np.ndarray:
        n, m = len(self.series), len(self.spectrum)
        if spec.target_rms == 0.0:
            self.series[:] = 0.0
            return self.series
        rng = np.random.default_rng(spec.seed)
        spectrum, band = self.spectrum, self.band
        # every real part is drawn, so the imaginary parts start at the same place in
        # the stream; those past the band are zeroed unread, so none is drawn
        re, im = self._normals[:m], self._normals[m : m + band.stop]
        rng.standard_normal(out=re)
        rng.standard_normal(out=im)
        spectrum[: band.start] = 0.0
        spectrum[band.stop :] = 0.0
        np.multiply(self.shape, re[band], out=spectrum.real[band])
        np.multiply(self.shape, im[band], out=spectrum.imag[band])
        if n % 2 == 0:
            spectrum.imag[-1] = 0.0  # Nyquist bin must be real
        series = np.fft.irfft(spectrum, n=n, out=self.series)
        series -= series.mean()
        rms = math.sqrt(float(np.mean(np.square(series, out=self.values))))
        if rms == 0.0:
            raise BandError("degenerate realization with zero power")
        series *= spec.target_rms / rms
        return series


def sample_process(spec: ProcessSpec, *, _work: _Workspace | None = None) -> np.ndarray:
    """Synthesize one realization of the displacement process, in meters.

    Gaussian amplitudes are drawn on the in-band rfft bins (flat for
    'white', power ~ 1/f for 'one-over-f'), inverse-transformed, mean
    removed, and rescaled so the sample rms equals target_rms exactly.
    Identical specs (including seed) give bit-identical series.  Given
    ``_work`` (built from a spec that differs at most in its seed), the
    series is a view of its buffers, overwritten by the next call.
    """
    return (_Workspace(spec) if _work is None else _work).synthesize(spec)


@dataclass(frozen=True)
class TimeAverageReport:
    """Empirical vs analytic statistics of F(d + delta(t)) over one series."""

    mean_force: float
    se_mean: float
    variance_force: float
    analytic_mean: float
    analytic_excess_sigma: float
    n_samples: int
    realized_rms: float

    def to_json_dict(self) -> dict:
        return {
            "mc_mean": self.mean_force,
            "se_mean": self.se_mean,
            "mc_sigma": math.sqrt(self.variance_force),
            "analytic_mean": self.analytic_mean,
            "analytic_sigma": self.analytic_excess_sigma,
            "n_samples": self.n_samples,
            "realized_rms": self.realized_rms,
        }


def _batch_se(values: np.ndarray) -> float:
    """Standard error of the mean by batch means over 32 batches (robust to correlation)."""
    n = len(values)
    if n < 4:
        return float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    b = min(32, n // 2)
    usable = (n // b) * b
    blocks = values[:usable].reshape(b, -1).mean(axis=1)
    return float(np.std(blocks, ddof=1) / math.sqrt(b))


def time_averaged_force(
    force: Callable, d: float, series: np.ndarray, *, _work: _Workspace | None = None
) -> TimeAverageReport:
    """Average the exact force over d + delta(t) and attach the predictions.

    The analytic mean is the quadratic-order apparent force at the series'
    realized rms, with F'' from ``force.curvature``; the analytic scatter
    is |F'(d)| times that rms, with F' from ``force.gradient``.  The
    standard error of the Monte Carlo mean uses batch means, which stay
    honest for band-limited (correlated) samples.  The force is called once
    per block of ``_BLOCK`` samples, written into a buffer of ``_work`` when
    given, and its own exception propagates: a sample outside its domain
    raises the evaluator's :class:`DomainError`.  It is evaluated at every
    sample, so it should be a spline or a closed form, not
    a :class:`SpherePlateForce` (~0.1 ms per d on a 2-core Xeon: ~1.5-2 min
    for 10^6 samples).
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    # fl(d + s) is monotone in s, so the smallest sample (NaN skipped, as
    # the comparison skips it) decides the domain without a full-size temporary
    if n and d + np.fmin.reduce(series) <= 0:
        x = d + series
        worst = int(np.argmin(x))
        raise DomainError(
            f"sample {worst} takes the separation to {x[worst]:g} m (<= 0); "
            "fluctuations too large for this distance"
        )
    values = np.empty(n) if _work is None else _work.values
    realized_rms = math.sqrt(float(np.mean(np.square(series, out=values))))
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        values[block] = evaluate_theory(force, d + series[block])
    mean = float(np.mean(values))
    se_mean = _batch_se(values)
    var = 0.0
    if n > 1:  # np.var(values, ddof=1), in place
        values -= mean
        var = float(np.sum(np.square(values, out=values))) / (n - 1)
    grad = force.gradient(d)
    return TimeAverageReport(
        mean_force=mean,
        se_mean=se_mean,
        variance_force=var,
        analytic_mean=apparent_force(force, d, realized_rms),
        analytic_excess_sigma=inflated_sigma(0.0, grad, realized_rms),
        n_samples=n,
        realized_rms=realized_rms,
    )


def fourth_order_allowance(force: Callable, d: float, delta_rms: float) -> float:
    """Size of the first neglected term of the mean-shift prediction.

    For Gaussian delta the quartic term is F''''(d) * 3 delta^4 / 24; the
    fourth derivative is estimated with a five-point stencil (h = 5% of d).
    """
    h = 0.05 * d
    val = (
        force(d - 2 * h)
        - 4.0 * force(d - h)
        + 6.0 * force(d)
        - 4.0 * force(d + h)
        + force(d + 2 * h)
    ) / h**4
    return abs(val) * delta_rms**4 / 8.0


@dataclass(frozen=True)
class TrialVerdict:
    """Per-seed outcome of the second-order verification."""

    seed: int
    mean_ok: bool
    scatter_ok: bool
    scatter_applicable: bool
    expansion_breakdown: bool
    mean_discrepancy: float
    mean_tolerance: float
    scatter_ratio: float
    report: TimeAverageReport | None

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "report"}
        if self.report is not None:
            d.update(self.report.to_json_dict())
        return d


# every field but the seed of the verdict on a trial whose series left the force's domain
_BREAKDOWN = dict(
    mean_ok=False, scatter_ok=False, scatter_applicable=False, expansion_breakdown=True,
    mean_discrepancy=math.nan, mean_tolerance=math.nan, scatter_ratio=math.nan, report=None,
)


@dataclass(frozen=True)
class VerificationRecord:
    """Aggregate pass/fail record over independent seeds."""

    verdicts: tuple[TrialVerdict, ...]
    n_mean_pass: int
    n_scatter_pass: int
    n_scatter_applicable: int
    trials: int

    @property
    def all_passed(self) -> bool:
        return self.n_mean_pass == self.trials and (
            self.n_scatter_pass == self.n_scatter_applicable
        )


def verify_second_order(
    force: Callable,
    d: float,
    spec: ProcessSpec,
    trials: int = 10,
) -> VerificationRecord:
    """Check the quadratic mean-shift and scatter laws over independent seeds.

    Per trial: (a) the Monte Carlo mean must match the quadratic apparent
    force within 4 batch-mean standard errors plus the analytic
    fourth-order allowance, or within n.bit_length() ulps of it for n
    samples, whichever is larger; (b) for delta_rms/d <= 0.1 the Monte Carlo
    standard deviation must match |F'| delta_rms within 5%.  A series that
    drives the separation out of the evaluator's domain (a
    :class:`DomainError`), or a failed mean check at delta_rms/d > 0.1, is
    recorded as an expansion breakdown rather than raised: large excursions
    are exactly where the quadratic description is documented to stop
    working.  Any other exception of the evaluator propagates.  Like
    :func:`time_averaged_force`, it evaluates the force at every sample: pass
    a spline or a closed form, not a :class:`SpherePlateForce`.
    """
    if trials < 10:
        raise ValueError(f"need >= 10 trials, got {trials}")
    ratio = spec.target_rms / d
    work = _Workspace(spec)
    verdicts = []
    for i in range(trials):
        trial_spec = replace(spec, seed=spec.seed + i)
        series = sample_process(trial_spec, _work=work)
        try:
            report = time_averaged_force(force, d, series, _work=work)
        except DomainError:
            verdicts.append(TrialVerdict(seed=trial_spec.seed, **_BREAKDOWN))
            continue
        allowance = fourth_order_allowance(force, d, report.realized_rms)
        discrepancy = abs(report.mean_force - report.analytic_mean)
        # numpy's pairwise mean rounds by up to ~log2(n) ulps; at delta = 0 the
        # statistical part is exactly 0 and that rounding is all that is left
        floor = report.n_samples.bit_length() * math.ulp(abs(report.analytic_mean))
        tolerance = max(4.0 * report.se_mean + allowance, floor)
        mean_ok = discrepancy <= tolerance
        mc_sigma = math.sqrt(report.variance_force)
        pred = report.analytic_excess_sigma
        scatter_ratio = mc_sigma / pred if pred > 0 else math.inf
        scatter_applicable = ratio <= 0.1 and pred > 0
        scatter_ok = scatter_applicable and abs(scatter_ratio - 1.0) <= 0.05
        verdicts.append(
            TrialVerdict(
                seed=trial_spec.seed,
                mean_ok=mean_ok,
                scatter_ok=scatter_ok,
                scatter_applicable=scatter_applicable,
                expansion_breakdown=(not mean_ok) and ratio > 0.1,
                mean_discrepancy=discrepancy,
                mean_tolerance=tolerance,
                scatter_ratio=scatter_ratio,
                report=report,
            )
        )
    return VerificationRecord(
        verdicts=tuple(verdicts),
        n_mean_pass=sum(v.mean_ok for v in verdicts),
        n_scatter_pass=sum(v.scatter_ok for v in verdicts),
        n_scatter_applicable=sum(v.scatter_applicable for v in verdicts),
        trials=trials,
    )
