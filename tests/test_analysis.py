import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import casfluct as cf
from casfluct import analysis
from casfluct.analysis import (
    chi2_sf,
    chi_squared,
    scan_delta,
)

UM = 1e-6
UDYNE = 1e-11


_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def _poisson_sf(x: float, k: int) -> float:
    """P(X >= x) for even k as the Poisson sum e^-m sum_{j<k/2} m^j/j!, m = x/2, in 40 digits.

    The sum runs down from j = k/2 - 1, whose term comes from Stirling's
    series for lgamma(k/2) (to 1/(1260 a^5), exact to ~1e-40 for k >= 1e6),
    and stops once a term is below 1e-25 of the sum.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        a, m = Decimal(k // 2), Decimal(x) / 2
        lgamma_a = ((a - Decimal("0.5")) * a.ln() - a + (2 * _PI).ln() / 2
                    + 1 / (12 * a) - 1 / (360 * a**3) + 1 / (1260 * a**5))
        term = (-m + (a - 1) * m.ln() - lgamma_a).exp()
        total, j = Decimal(0), k // 2 - 1
        while j >= 0 and term > total * Decimal("1e-25"):
            total += term
            term = term * j / m
            j -= 1
        return float(total)


class TestChi2Sf:
    def test_reference_ten_percent_tail(self):
        # reduced 1.75 at 6 d.o.f.
        assert chi2_sf(10.5, 6) == pytest.approx(0.1051143529336021, abs=1e-12)

    def test_reference_rejection_tail(self):
        # reduced 6.17 at 6 d.o.f.
        val = chi2_sf(6 * 6.17, 6)
        assert val == pytest.approx(1.7451515417875567e-06, rel=1e-9)
        assert val < 1e-5

    def test_at_zero(self):
        for k in (1, 2, 5, 10):
            assert chi2_sf(0.0, k) == 1.0

    @pytest.mark.parametrize("k", range(1, 11))
    def test_against_scipy(self, k):
        for x in (0.5, 1.0, 3.7, 10.0, 25.0, 40.0):
            assert chi2_sf(x, k) == pytest.approx(
                float(scipy.special.chdtrc(k, x)), abs=1e-9
            )

    @pytest.mark.parametrize("k", range(1, 11))
    def test_against_density_quadrature(self, k):
        # independent oracle: integrate the chi-squared density directly
        def density(t):
            return (
                t ** (k / 2.0 - 1.0)
                * math.exp(-t / 2.0)
                / (2.0 ** (k / 2.0) * math.gamma(k / 2.0))
            )

        for x in (0.5, 2.0, 8.0, 16.0, 40.0):
            oracle, _ = scipy.integrate.quad(density, x, np.inf, limit=200)
            assert chi2_sf(x, k) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("x, k", [(1480.0, 1480), (2000.0, 2000), (2100.0, 2000), (1600.0, 200)])
    def test_large_even_dof_against_scipy(self, x, k):
        # exp(-x/2) is subnormal or zero here, so the finite Poisson sum would lose every digit
        assert chi2_sf(x, k) == pytest.approx(float(scipy.special.chdtrc(k, x)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [20_001, 100_001])
    def test_large_dof_at_the_median_against_scipy(self, k):
        # the series needs ~8 sqrt(k/2) terms here, more than a fixed 600-step cap allows
        assert chi2_sf(float(k), k) == pytest.approx(float(scipy.special.chdtrc(k, k)), abs=1e-10)

    @pytest.mark.parametrize("k", [4_000_000, 10_000_000])
    def test_huge_dof_near_the_median_against_the_exact_poisson_sum(self, k):
        # exp(-x + a log x - lgamma(a)) cancels terms of size ~a log a here (~3e-9 off at
        # k = 1e7); scipy's chdtrc is itself 7e-11 off at 4e6 and 2e-9 at 1e7 below x = k
        for z in np.linspace(-8.0, 8.0, 9):
            x = float(k + z * math.sqrt(2.0 * k))
            assert chi2_sf(x, k) == pytest.approx(_poisson_sf(x, k), abs=1e-12)

    def test_exhausted_incomplete_gamma_raises(self, monkeypatch):
        # a cap of 5 terms at a = 1000.5 (the sqrt(a) allowance taken back out of _MAX_ITER):
        # the series runs out at x < a + 1, the continued fraction above
        monkeypatch.setattr(analysis, "_MAX_ITER", 5 - int(10.0 * math.sqrt(1000.5)))
        for x, method in ((2001.0, "series"), (2100.0, "continued fraction")):
            with pytest.raises(cf.ConvergenceError, match=method) as err:
                chi2_sf(x, 2001)
            assert err.value.terms == 5

    def test_strictly_decreasing_to_zero(self):
        for k in (1, 4, 7):
            xs = np.linspace(0.0, 60.0, 40)
            vals = [chi2_sf(float(x), k) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        assert chi2_sf(1e4, 6) == 0.0

    def test_domain(self):
        with pytest.raises(cf.DomainError):
            chi2_sf(-1.0, 6)
        with pytest.raises(cf.DomainError):
            chi2_sf(1.0, 0)


class TestChiSquared:
    def test_perfect_theory(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0, 4.0])
        theory = lambda d_m: 215.0 / (d_m / UM) * UDYNE
        report = chi_squared(ds, theory)
        assert report.chi2 == pytest.approx(0.0, abs=1e-18)
        assert report.p_value == 1.0
        assert report.dof == 4
        assert len(report.residuals) == 4

    def test_single_one_sigma_point(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0], sigma=2.0)

        def theory(d_m):
            d_um = d_m / UM
            off = np.where(abs(d_um - 2.0) < 1e-9, 2.0, 0.0)
            return (215.0 / d_um + off) * UDYNE

        report = chi_squared(ds, theory)
        assert report.chi2 == pytest.approx(1.0, rel=1e-12)
        assert report.reduced == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_reconstructed_ten_percent_point(self, synthetic_dataset):
        # seven points, one fitted parameter -> 6 d.o.f.; residuals chosen so
        # the reduced statistic is 1.75
        d_um = np.array([0.62, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0])
        resid = math.sqrt(10.5 / 7.0)
        sigma = np.full(7, 3.0)
        truth = 215.0 / d_um
        ds = cf.ForceDataset(
            d_um=d_um,
            force_udyne=truth + resid * sigma,
            sigma_udyne=sigma,
            n_samples=np.full(7, 10, dtype=int),
            bin_width_um=np.full(7, 0.1),
        )
        report = chi_squared(ds, lambda d_m: 215.0 / (d_m / UM) * UDYNE, fitted_params=1)
        assert report.dof == 6
        assert report.reduced == pytest.approx(1.75, rel=1e-12)
        assert report.p_value == pytest.approx(0.105, abs=1e-3)

    def test_dof_override(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        report = chi_squared(ds, np.zeros_like, dof_override=6)
        assert report.dof == 6

    @pytest.mark.parametrize("dof_override", [None, 2])
    def test_negative_fitted_params_rejected(self, synthetic_dataset, dof_override):
        # n - fitted_params would count more degrees of freedom than data points
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="fitted_params must be >= 0, got -3"):
            chi_squared(ds, lambda d: 0.0, fitted_params=-3, dof_override=dof_override)

    def test_one_row_has_no_degrees_of_freedom(self, synthetic_dataset):
        with pytest.raises(ValueError, match="degrees of freedom must be >= 1, got 0"):
            chi_squared(synthetic_dataset([1.0]), np.zeros_like, fitted_params=1)

    def test_theory_failure_names_point(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])

        def theory(d_m):
            if np.any(d_m > 1.5e-6):
                raise FloatingPointError(f"laboratory accident at d = {d_m[d_m > 1.5e-6][0] / UM:g} um")
            return np.zeros_like(d_m)

        with pytest.raises(FloatingPointError, match="^laboratory accident at d = 2 um$") as info:
            chi_squared(ds, theory)
        assert info.value.__cause__ is None  # the evaluator's own error, not a wrapper

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_rescaling_invariance(self, scale):
        d_um = np.array([1.0, 2.0, 3.0])
        force = np.array([10.0, 5.0, 2.0])
        sigma = np.array([1.0, 0.5, 0.4])
        base = cf.ForceDataset(
            d_um=d_um, force_udyne=force, sigma_udyne=sigma,
            n_samples=np.ones(3, dtype=int), bin_width_um=np.full(3, 0.1),
        )
        scaled = cf.ForceDataset(
            d_um=d_um, force_udyne=force * scale, sigma_udyne=sigma * scale,
            n_samples=np.ones(3, dtype=int), bin_width_um=np.full(3, 0.1),
        )
        theory = lambda d_m: 8.0 * UDYNE / (d_m / UM)
        scaled_theory = lambda d_m: scale * 8.0 * UDYNE / (d_m / UM)
        a = chi_squared(base, theory).chi2
        b = chi_squared(scaled, scaled_theory).chi2
        assert b == pytest.approx(a, rel=1e-9)

    def test_json_shape(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        blob = chi_squared(ds, np.zeros_like).to_json_dict()
        assert set(blob) == {"chi2", "dof", "reduced", "p_value", "residuals"}
        assert set(blob["residuals"][0]) == {"d_um", "resid_sigma"}


class TestArrayEvaluation:
    @pytest.fixture
    def dataset(self, synthetic_dataset):
        d_um = np.linspace(0.6, 6.0, 200)
        return synthetic_dataset(d_um, extra=lambda x: 33.76 / x**3, rng=np.random.default_rng(4))

    @staticmethod
    def _total():
        knots = np.geomspace(0.4, 8.0, 120) * UM
        casimir = cf.TabulatedForceCurve(knots, 33.76 * UDYNE * UM**3 / knots**3)
        return cf.TotalForceEvaluator(cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM), casimir)

    def test_array_theory_called_once(self, dataset):
        shapes = []

        def theory(d_m):
            shapes.append(np.shape(d_m))
            return 215.0 / (d_m / UM) * UDYNE

        chi_squared(dataset, theory)
        assert shapes == [(200,)]

    def test_failing_theory_called_once(self, dataset):
        calls = []
        error = ValueError("this evaluator's own failure")

        def theory(d_m):
            calls.append(np.shape(d_m))
            raise error

        with pytest.raises(ValueError) as info:
            chi_squared(dataset, theory)
        assert info.value is error
        assert calls == [(200,)]  # one call, no per-point retry

    @staticmethod
    def _per_point(theory):
        return lambda d_m: np.array([theory(float(d)) for d in d_m])

    def test_spline_equals_per_point(self, dataset):
        spline = self._total().casimir
        assert chi_squared(dataset, spline) == chi_squared(dataset, self._per_point(spline))

    def test_apparent_force_equals_per_point(self, dataset):
        total = self._total()

        def theory(d):
            return cf.apparent_force(total, d, 0.1 * UM)

        got = chi_squared(dataset, theory, fitted_params=1)
        want = chi_squared(dataset, self._per_point(theory), fitted_params=1)
        assert got.chi2 == pytest.approx(want.chi2, rel=1e-15, abs=0.0)
        assert got.p_value == pytest.approx(want.p_value, rel=1e-12, abs=0.0)
        assert got.dof == want.dof

    def test_wrong_shape_rejected(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        # np.sum returns one number for the whole array: not a per-point result
        with pytest.raises(TypeError, match=r"one float per separation, shape \(3,\); got float64 of shape \(\)"):
            chi_squared(ds, lambda d: np.sum(215.0 / (d / UM) * UDYNE))
        with pytest.raises(TypeError, match=r"got float64 of shape \(1, 3\)"):
            chi_squared(ds, np.atleast_2d)
        with pytest.raises(TypeError, match=r"got int64 of shape \(3,\)"):
            chi_squared(ds, lambda d: np.ones(len(d), dtype=np.int64))

    def test_spline_out_of_range_names_point(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        knots = np.linspace(0.5, 2.5, 10) * UM
        spline = cf.TabulatedForceCurve(knots, 215.0 * UDYNE * UM / knots)
        # out of the spline's domain is bad input: a DomainError, not a numerical failure
        with pytest.raises(cf.DomainError, match=r"separation 3e-06 outside tabulated range") as info:
            chi_squared(ds, spline)
        assert info.value.__cause__ is None

    def test_scalar_only_theory_error_propagates(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        calls = []

        def theory(d_m):
            calls.append(d_m)
            return math.exp(-d_m)  # math takes no array

        with pytest.raises(TypeError, match="only .*arrays can be converted"):
            chi_squared(ds, theory)
        assert len(calls) == 1


def _assert_steps_are_chi_squared(data, force, result):
    """Each step of a scan scores what chi_squared gives apparent_force at its delta, bit for bit."""
    for i, delta in enumerate(result.deltas):
        want = chi_squared(data, lambda d: cf.apparent_force(force, d, delta), fitted_params=1)
        got = (result.chi2[i], result.reduced[i], result.p_value[i], result.dof)
        assert got == (want.chi2, want.reduced, want.p_value, want.dof)


class TestScanDelta:
    @staticmethod
    def _force():
        return cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM)

    def _data(self, delta_true_um, noise=0.02, seed=3):
        bg = self._force()
        d_um = np.linspace(0.6, 3.0, 9)
        rng = np.random.default_rng(seed)
        force = np.array([cf.apparent_force(bg, d * UM, delta_true_um * UM) for d in d_um]) / UDYNE
        force = force + rng.standard_normal(len(d_um)) * noise
        return cf.ForceDataset(
            d_um=d_um,
            force_udyne=force,
            sigma_udyne=np.full(len(d_um), noise),
            n_samples=np.full(len(d_um), 10, dtype=int),
            bin_width_um=np.full(len(d_um), 0.1),
        )

    def test_recovers_true_amplitude(self):
        ds = self._data(0.1)
        grid = np.arange(0.02, 0.21, 0.02) * UM
        result = scan_delta(ds, self._force(), grid)
        assert abs(result.argmin_delta - 0.1 * UM) <= 0.02 * UM + 1e-15

    def test_zero_truth_prefers_smallest(self):
        ds = self._data(0.0, noise=1e-6)
        grid = np.arange(0.0, 0.2, 0.02) * UM
        result = scan_delta(ds, self._force(), grid)
        assert result.argmin_delta == grid[0]
        _assert_steps_are_chi_squared(ds, self._force(), result)
        assert all(a <= b + 1e-9 for a, b in zip(result.chi2, result.chi2[1:]))

    def test_totality_and_dof(self):
        ds = self._data(0.1)
        grid = np.linspace(0.01, 0.3, 7) * UM
        result = scan_delta(ds, self._force(), grid)
        assert len(result.chi2) == len(result.reduced) == len(result.p_value) == 7
        assert all(np.isfinite(result.chi2)) and all(0.0 <= p <= 1.0 for p in result.p_value)
        assert result.dof == len(ds) - 1
        _assert_steps_are_chi_squared(ds, self._force(), result)

    def test_grid_validation(self):
        ds = self._data(0.1)
        with pytest.raises(ValueError):
            scan_delta(ds, self._force(), [])
        with pytest.raises(ValueError):
            scan_delta(ds, self._force(), [2e-7, 1e-7])
        with pytest.raises(cf.DomainError, match="delta_rms"):
            scan_delta(ds, self._force(), [-1e-7, 1e-7])

    def test_one_row_has_no_degrees_of_freedom(self, synthetic_dataset):
        with pytest.raises(ValueError, match="degrees of freedom must be >= 1, got 0"):
            scan_delta(synthetic_dataset([1.0]), self._force(), [1e-7, 2e-7])

    def test_equals_apparent_force_per_step_bit_for_bit(self, synthetic_dataset):
        data = synthetic_dataset(np.linspace(0.6, 6.0, 200), extra=lambda x: 33.76 / x**3,
                                 rng=np.random.default_rng(4))
        force = TestArrayEvaluation._total()
        grid = np.linspace(0.0, 0.3, 31) * UM
        result = scan_delta(data, force, grid)
        assert result.deltas == tuple(grid.tolist())
        assert result.dof == len(data) - 1
        _assert_steps_are_chi_squared(data, force, result)
        at_zero = chi_squared(data, force, fitted_params=1)
        assert (result.chi2[0], result.reduced[0], result.p_value[0]) == (
            at_zero.chi2, at_zero.reduced, at_zero.p_value)
        assert result.argmin_delta == result.deltas[int(np.argmin(result.chi2))]

    @pytest.mark.parametrize("block", [1, 450])
    def test_blocks_of_steps_do_not_move_a_bit(self, block, synthetic_dataset, monkeypatch):
        """Steps scored a row at a time, or two rows at a time and a last one, give the bits of one block."""
        data = synthetic_dataset(np.linspace(0.6, 6.0, 200), extra=lambda x: 33.76 / x**3,
                                 rng=np.random.default_rng(4))
        force = TestArrayEvaluation._total()
        grid = np.linspace(0.0, 0.3, 31) * UM
        whole = scan_delta(data, force, grid)
        monkeypatch.setattr(analysis, "_SCAN_BLOCK", block)
        assert scan_delta(data, force, grid) == whole

    @pytest.mark.parametrize("steps", [1, 5, 101])
    def test_one_evaluation_of_f_and_f2_per_scan(self, steps):
        ds = self._data(0.1)
        bg = self._force()
        calls = []

        class Counting:
            def __call__(self, d):
                calls.append(("F", np.shape(d)))
                return bg(d)

            def curvature(self, d):
                calls.append(("F''", np.shape(d)))
                return bg.curvature(d)

        scan_delta(ds, Counting(), np.linspace(0.01, 0.3, steps) * UM)
        assert calls == [("F", (len(ds),)), ("F''", (len(ds),))]

    def test_zero_alone_asks_no_curvature(self):
        ds = self._data(0.0)
        result = scan_delta(ds, lambda d: 215.0 * UDYNE * UM / d, [0.0])
        assert result.argmin_delta == 0.0
