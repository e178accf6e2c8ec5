import math
import tracemalloc

import numpy as np
import pytest

import casfluct as cf
from casfluct import oracle
from casfluct.oracle import (
    BandError,
    ProcessSpec,
    fourth_order_allowance,
    sample_process,
    time_averaged_force,
    verify_second_order,
)

UM = 1e-6
UDYNE = 1e-11

FAST = dict(f_lo=0.1, f_hi=5.0, dt=0.05, duration=1000.0)  # 20k samples


def _whole_array_series(spec):
    """The synthesis written with whole-array temporaries: the reference."""
    n = spec.n_samples
    freqs = np.fft.rfftfreq(n, spec.dt)
    mask = (freqs >= spec.f_lo) & (freqs <= spec.f_hi) & (freqs > 0)
    rng = np.random.default_rng(spec.seed)
    shape = np.zeros(len(freqs))
    shape[mask] = 1.0 if spec.kind == "white" else 1.0 / np.sqrt(freqs[mask])
    spectrum = shape * (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs)))
    if n % 2 == 0:
        spectrum[-1] = spectrum[-1].real
    series = np.fft.irfft(spectrum, n=n)
    series -= series.mean()
    return series * (spec.target_rms / math.sqrt(float(np.mean(series**2))))


class TestProcessSpec:
    def test_defaults_satisfy_invariants(self):
        spec = ProcessSpec()
        assert spec.f_lo == 0.01 and spec.f_hi == 5.0
        assert spec.dt == 0.05
        assert spec.duration >= 100.0 / spec.f_lo

    def test_band_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec(f_lo=5.0, f_hi=1.0, **{k: v for k, v in FAST.items() if k not in ("f_lo", "f_hi")})
        with pytest.raises(ValueError):
            ProcessSpec(f_hi=100.0, dt=0.05)  # above Nyquist

    def test_stationarity_invariant(self):
        with pytest.raises(ValueError, match="100 cycles"):
            ProcessSpec(f_lo=0.01, f_hi=5.0, duration=2000.0)

    def test_at_least_two_samples(self):
        # with f_lo = 0 no stationarity rule bounds the duration from below
        with pytest.raises(ValueError, match="at least two samples"):
            ProcessSpec(f_lo=0.0, dt=0.05, duration=0.05)

    def test_kind_and_rms_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec(kind="pink", **FAST)
        with pytest.raises(ValueError):
            ProcessSpec(target_rms=-1.0, **FAST)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            ProcessSpec(seed=seed, **FAST)

    def test_numpy_integer_seed(self):
        assert ProcessSpec(seed=np.int64(3), **FAST).seed == 3


class TestSampleProcess:
    def test_deterministic(self):
        spec = ProcessSpec(target_rms=1e-7, seed=42, **FAST)
        a = sample_process(spec)
        b = sample_process(spec)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = sample_process(ProcessSpec(target_rms=1e-7, seed=1, **FAST))
        b = sample_process(ProcessSpec(target_rms=1e-7, seed=2, **FAST))
        assert not np.array_equal(a, b)

    def test_mean_removed_and_rms_exact(self):
        s = sample_process(ProcessSpec(target_rms=1e-7, seed=5, **FAST))
        assert abs(s.mean()) <= 1e-12 * 1e-7
        assert math.sqrt(np.mean(s**2)) == pytest.approx(1e-7, rel=1e-12)

    def test_spectral_mass_confined_to_band(self):
        spec = ProcessSpec(target_rms=1e-7, seed=9, **FAST)
        s = sample_process(spec)
        power = np.abs(np.fft.rfft(s)) ** 2
        freqs = np.fft.rfftfreq(len(s), spec.dt)
        in_band = (freqs >= spec.f_lo) & (freqs <= spec.f_hi) & (freqs > 0)
        leak = power[~in_band].sum() / power.sum()
        assert leak < 1e-10

    def test_one_over_f_shape(self):
        spec = ProcessSpec(target_rms=1e-7, seed=11, kind="one-over-f", **FAST)
        s = sample_process(spec)
        power = np.abs(np.fft.rfft(s)) ** 2
        freqs = np.fft.rfftfreq(len(s), spec.dt)
        lo = (freqs >= 0.15) & (freqs <= 0.4)
        hi = (freqs >= 1.5) & (freqs <= 4.0)
        ratio = power[lo].mean() / power[hi].mean()
        f_ratio = freqs[hi].mean() / freqs[lo].mean()
        assert ratio == pytest.approx(f_ratio, rel=0.4)

    @pytest.mark.parametrize("kind", ["white", "one-over-f"])
    @pytest.mark.parametrize(
        "duration, f_lo, f_hi",
        [(1000.0, 0.1, 5.0), (1000.05, 0.1, 10.0), (1000.0, 0.0, 10.0), (1000.0, 0.1, 0.1005)],
        ids=["even-n", "odd-n-to-nyquist", "dc-to-nyquist", "one-bin"],
    )
    def test_equals_whole_array_reference(self, kind, duration, f_lo, f_hi):
        spec = ProcessSpec(target_rms=3e-8, f_lo=f_lo, f_hi=f_hi, kind=kind, seed=7,
                           dt=0.05, duration=duration)
        assert sample_process(spec).tobytes() == _whole_array_series(spec).tobytes()

    def test_draws_no_imaginary_part_past_the_band(self, monkeypatch):
        # every real part, then the imaginary parts up to the band's top bin: the
        # series still equals the draw-everything reference above, bit for bit
        spec = ProcessSpec(target_rms=3e-8, seed=7, **FAST)
        sizes = []
        real = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = real(seed)

            def standard_normal(self, out):
                sizes.append(out.size)
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        series = sample_process(spec).copy()
        monkeypatch.undo()
        freqs = np.fft.rfftfreq(spec.n_samples, spec.dt)
        assert sizes == [freqs.size, int(np.searchsorted(freqs, spec.f_hi, side="right"))]
        assert sizes[1] < freqs.size
        assert series.tobytes() == _whole_array_series(spec).tobytes()

    def test_zero_rms_gives_zeros(self):
        s = sample_process(ProcessSpec(target_rms=0.0, seed=3, **FAST))
        assert np.all(s == 0.0)

    def test_empty_band_error(self):
        # band narrower than one bin at a short duration
        spec = ProcessSpec(target_rms=1e-7, f_lo=0.9995, f_hi=0.9996, dt=0.05, duration=200.0)
        with pytest.raises(BandError):
            sample_process(spec)


class TestTimeAveragedForce:
    def test_linear_evaluator_no_shift(self, polynomial):
        spec = ProcessSpec(target_rms=1e-7, seed=21, **FAST)
        s = sample_process(spec)
        rep = time_averaged_force(polynomial(c1=5.0), 1e-6, s)
        assert abs(rep.mean_force - 5.0 * 1e-6) <= 4.0 * rep.se_mean + 1e-18
        assert rep.analytic_mean == pytest.approx(5.0 * 1e-6, rel=1e-9)

    def test_quadratic_evaluator_exact_shift(self, polynomial):
        spec = ProcessSpec(target_rms=1e-7, seed=22, **FAST)
        s = sample_process(spec)
        rep = time_averaged_force(polynomial(c2=1.0), 1e-6, s)
        shift = rep.mean_force - 1e-12
        assert shift == pytest.approx(rep.realized_rms**2, rel=1e-9)
        assert rep.analytic_mean - 1e-12 == pytest.approx(rep.realized_rms**2, rel=1e-6)

    def test_inverse_distance_fourth_order(self):
        # the Monte Carlo mean resolves the quartic term beyond the
        # quadratic prediction
        bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM)
        spec = ProcessSpec(target_rms=0.1 * UM, seed=23, f_lo=0.01, f_hi=5.0,
                           dt=0.05, duration=50000.0)
        s = sample_process(spec)
        rep = time_averaged_force(bg, 1e-6, s)
        shift_udyne = (rep.mean_force - bg.force(1e-6)) / UDYNE
        assert abs(shift_udyne - 2.2145) <= 4.0 * rep.se_mean / UDYNE

    def test_domain_error_reports_worst_sample(self):
        s = np.array([0.0, -2e-6, 1e-7])
        with pytest.raises(cf.DomainError, match="sample 1"):
            time_averaged_force(lambda x: 1.0 / x, 1e-6, s)

    def test_sample_outside_evaluator_range_named(self):
        knots = np.linspace(0.9, 1.1, 12) * UM
        spline = cf.TabulatedForceCurve(knots, 1.0 / knots)
        s = np.array([0.0, 0.05, 0.2, -0.05]) * UM
        # the spline's own DomainError, unwrapped, names the sample's separation
        with pytest.raises(cf.DomainError, match=r"separation 1\.2e-06 outside tabulated range") as info:
            time_averaged_force(spline, 1e-6, s)
        assert info.value.__cause__ is None

    def test_statistics_equal_whole_array_reference(self):
        bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM)
        s = sample_process(ProcessSpec(target_rms=0.05 * UM, seed=3, duration=10000.0))
        rep = time_averaged_force(bg, 1e-6, s)  # 2e5 samples: 25 evaluation blocks
        values = bg(1e-6 + s)
        assert rep.realized_rms == math.sqrt(float(np.mean(s**2)))
        assert rep.mean_force == float(np.mean(values))
        assert rep.se_mean == oracle._batch_se(values)
        assert rep.variance_force == float(np.var(values, ddof=1))
        assert rep.n_samples == len(s)

    def test_domain_error_past_first_block(self):
        calls = []

        def force(x):
            calls.append(x)
            return 1.0 / x

        s = np.zeros(200_000)
        s[70_000] = -1.5e-6  # first non-positive separation, past the first block
        s[140_000] = -3e-6  # the worst one, in a later block
        with pytest.raises(cf.DomainError, match=r"sample 140000 takes the separation to -2e-06 m"):
            time_averaged_force(force, 1e-6, s)
        assert calls == []  # the domain is checked before any evaluation

    def test_failing_point_past_first_block_named(self):
        calls = []

        def force(x):
            calls.append(len(x))
            if np.any(x > 1.1e-6):
                raise ValueError(f"d = {x.max():g} outside this evaluator's range")
            return 1.0 / x

        s = np.zeros(200_000)
        s[oracle._BLOCK + 100] = 0.2e-6  # in the second block
        with pytest.raises(ValueError, match=r"^d = 1\.2e-06 outside this evaluator's range$"):
            time_averaged_force(force, 1e-6, s)
        assert calls == [oracle._BLOCK, oracle._BLOCK]  # one call per block, none per point

    def test_report_fields(self, polynomial):
        spec = ProcessSpec(target_rms=1e-8, seed=1, **FAST)
        rep = time_averaged_force(polynomial(c1=1.0), 1e-6, sample_process(spec))
        assert rep.n_samples == spec.n_samples
        assert rep.se_mean > 0
        blob = rep.to_json_dict()
        assert {"mc_mean", "analytic_mean", "mc_sigma", "analytic_sigma"} <= set(blob)


def test_plain_callable_carries_no_derivatives():
    # F' and F'' come from the evaluator alone; a bare function is not differenced
    f = lambda x: x * x
    with pytest.raises(AttributeError, match="curvature"):
        cf.apparent_force(f, 1e-6, 1e-8)
    with pytest.raises(AttributeError, match="gradient"):
        time_averaged_force(f, 1e-6, np.array([1e-8, -1e-8]))


class TestFourthOrderAllowance:
    def test_inverse_distance_value(self):
        # F'''' = 24 beta / d^5 -> allowance = 3 beta delta^4 / d^5
        bg = cf.ElectrostaticBackground(beta=215.0)
        got = fourth_order_allowance(bg, 1.0, 0.1)
        assert got == pytest.approx(3.0 * 215.0 * 0.1**4, rel=0.03)

    def test_quadratic_is_zero(self):
        got = fourth_order_allowance(lambda x: x * x, 1.0, 0.3)
        assert got == pytest.approx(0.0, abs=1e-9)


class TestVerifySecondOrder:
    def test_quadratic_all_pass(self, polynomial):
        spec = ProcessSpec(target_rms=2e-8, seed=100, **FAST)
        record = verify_second_order(polynomial(c2=1.0), 1e-6, spec, trials=10)
        assert record.n_mean_pass == 10
        assert record.n_scatter_applicable == 10
        assert record.n_scatter_pass == 10
        # discrepancy is float rounding only: ~1e-13 relative to F(d) = 1e-12
        assert max(v.mean_discrepancy for v in record.verdicts) < 1e-24

    def test_inverse_distance_moderate_fluctuation_passes(self):
        bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM)
        spec = ProcessSpec(target_rms=0.05 * UM, seed=200, **FAST)
        record = verify_second_order(bg, 1e-6, spec, trials=10)
        assert record.n_mean_pass >= 9
        assert record.n_scatter_pass >= 9

    def test_large_fluctuation_flags_breakdown(self):
        bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM)
        spec = ProcessSpec(target_rms=0.5 * UM, seed=300, **FAST)
        record = verify_second_order(bg, 1e-6, spec, trials=10)
        assert any(v.expansion_breakdown for v in record.verdicts)
        assert record.n_mean_pass < record.trials

    def test_sample_outside_evaluator_range_is_breakdown(self):
        knots = np.linspace(0.9, 1.1, 12) * UM
        spline = cf.TabulatedForceCurve(knots, 1.0 / knots)
        spec = ProcessSpec(target_rms=0.1 * UM, seed=300, **FAST)
        record = verify_second_order(spline, 1e-6, spec, trials=10)
        assert all(v.expansion_breakdown and v.report is None for v in record.verdicts)

    def test_other_evaluator_failures_propagate(self):
        def force(x):
            raise ZeroDivisionError("not a domain problem")

        spec = ProcessSpec(target_rms=1e-8, seed=1, **FAST)
        with pytest.raises(ZeroDivisionError, match="not a domain problem"):
            verify_second_order(force, 1e-6, spec, trials=10)

    @pytest.mark.parametrize("kind", ["white", "one-over-f"])
    def test_reused_buffers_match_one_shot_functions(self, kind, monkeypatch):
        # 2e5 samples: several force-evaluation blocks per trial
        knots = np.linspace(0.7, 1.3, 40) * UM
        force = cf.TotalForceEvaluator(
            cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM),
            cf.TabulatedForceCurve(knots, -1e-9 / knots**3),
        )
        spec = ProcessSpec(target_rms=0.05 * UM, seed=40, kind=kind, duration=10000.0)
        record = verify_second_order(force, 1e-6, spec, trials=10)

        seeds = []

        def one_shot_sample(trial_spec, **_):
            seeds.append(trial_spec.seed)
            return sample_process(trial_spec)

        monkeypatch.setattr(oracle, "sample_process", one_shot_sample)
        monkeypatch.setattr(oracle, "time_averaged_force",
                            lambda f, d, s, **_: time_averaged_force(f, d, s))
        expected = verify_second_order(force, 1e-6, spec, trials=10)
        assert seeds == list(range(40, 50))
        assert all(v.report is not None for v in record.verdicts)
        assert record == expected  # every verdict and report, field by field

    def test_peak_memory_per_sample(self):
        bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM)
        spec = ProcessSpec(target_rms=0.05 * UM, seed=1, duration=10000.0)
        verify_second_order(bg, 1e-6, spec, trials=10)  # first-use allocations are not per sample
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            verify_second_order(bg, 1e-6, spec, trials=10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        # the reused buffers themselves are 16 B/sample; blocks of 2^13 add ~1 B/sample at 2e5
        assert peak / spec.n_samples <= 22.0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            verify_second_order(lambda x: x, 1e-6, ProcessSpec(**FAST), trials=5)

    def test_verdict_json(self, polynomial):
        spec = ProcessSpec(target_rms=1e-8, seed=7, **FAST)
        record = verify_second_order(polynomial(c2=1.0), 1e-6, spec, trials=10)
        blob = record.verdicts[0].to_json_dict()
        assert {"seed", "mean_ok", "scatter_ok", "mean_discrepancy"} <= set(blob)
