import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import casfluct as cf
from casfluct.analysis import (
    TheoryEvaluationError,
    binning_consistency,
    chi2_sf,
    chi_squared,
    scan_delta,
)

UM = 1e-6
UDYNE = 1e-11


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
            off = 2.0 if abs(d_um - 2.0) < 1e-9 else 0.0
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
        report = chi_squared(ds, lambda d: 0.0, dof_override=6)
        assert report.dof == 6

    def test_theory_failure_names_point(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])

        def theory(d_m):
            if d_m > 1.5e-6:
                raise FloatingPointError("laboratory accident")
            return 0.0

        with pytest.raises(TheoryEvaluationError, match="d = 2"):
            chi_squared(ds, theory)

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
        blob = chi_squared(ds, lambda d: 0.0).to_json_dict()
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

    def test_spline_equals_per_point(self, dataset):
        spline = self._total().casimir
        assert chi_squared(dataset, spline) == chi_squared(dataset, lambda d: spline(float(d)))

    def test_apparent_force_equals_per_point(self, dataset):
        total = self._total()

        def theory(d):
            return cf.apparent_force(total, d, 0.1 * UM)

        got = chi_squared(dataset, theory, fitted_params=1)
        want = chi_squared(dataset, lambda d: theory(float(d)), fitted_params=1)
        assert got.chi2 == pytest.approx(want.chi2, rel=1e-15, abs=0.0)
        assert got.p_value == pytest.approx(want.p_value, rel=1e-12, abs=0.0)
        assert got.dof == want.dof

    def test_wrong_shape_falls_back_to_points(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        per_point = chi_squared(ds, lambda d: 215.0 / (d / UM) * UDYNE)
        # np.sum returns one number for the whole array: not a per-point result
        summed = chi_squared(ds, lambda d: np.sum(215.0 / (d / UM) * UDYNE))
        assert summed == per_point

    def test_spline_out_of_range_names_point(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])
        knots = np.linspace(0.5, 2.5, 10) * UM
        spline = cf.TabulatedForceCurve(knots, 215.0 * UDYNE * UM / knots)
        with pytest.raises(TheoryEvaluationError, match="d = 3 um") as info:
            chi_squared(ds, spline)
        assert isinstance(info.value.__cause__, cf.DomainError)

    def test_scalar_only_theory_names_point(self, synthetic_dataset):
        ds = synthetic_dataset([1.0, 2.0, 3.0])

        def theory(d_m):
            d_m = float(d_m)  # TypeError on an array
            if d_m > 1.5e-6:
                raise FloatingPointError("laboratory accident")
            return 0.0

        with pytest.raises(TheoryEvaluationError, match="d = 2 um: laboratory accident"):
            chi_squared(ds, theory)


class TestScanDelta:
    def _family(self):
        bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * UM)
        return bg, lambda delta: (lambda d_m: cf.apparent_force(bg, d_m, delta))

    def _data(self, delta_true_um, noise=0.02, seed=3):
        bg, family = self._family()
        d_um = np.linspace(0.6, 3.0, 9)
        theory = family(delta_true_um * UM)
        rng = np.random.default_rng(seed)
        force = np.array([theory(d * UM) for d in d_um]) / UDYNE
        force = force + rng.standard_normal(len(d_um)) * noise
        return cf.ForceDataset(
            d_um=d_um,
            force_udyne=force,
            sigma_udyne=np.full(len(d_um), noise),
            n_samples=np.full(len(d_um), 10, dtype=int),
            bin_width_um=np.full(len(d_um), 0.1),
        )

    def test_recovers_true_amplitude(self):
        _, family = self._family()
        ds = self._data(0.1)
        grid = np.arange(0.02, 0.21, 0.02) * UM
        result = scan_delta(ds, family, grid)
        assert abs(result.argmin_delta - 0.1 * UM) <= 0.02 * UM + 1e-15

    def test_zero_truth_prefers_smallest(self):
        _, family = self._family()
        ds = self._data(0.0, noise=1e-6)
        grid = np.arange(0.0, 0.2, 0.02) * UM
        result = scan_delta(ds, family, grid)
        assert result.argmin_delta == grid[0]
        chi2s = [r.chi2 for r in result.reports]
        assert all(a <= b + 1e-9 for a, b in zip(chi2s, chi2s[1:]))

    def test_totality_and_dof(self):
        _, family = self._family()
        ds = self._data(0.1)
        grid = np.linspace(0.01, 0.3, 7) * UM
        result = scan_delta(ds, family, grid)
        assert len(result.reports) == 7
        assert all(np.isfinite(r.chi2) for r in result.reports)
        assert all(r.dof == len(ds) - 1 for r in result.reports)

    def test_grid_validation(self):
        _, family = self._family()
        ds = self._data(0.1)
        with pytest.raises(ValueError):
            scan_delta(ds, family, [])
        with pytest.raises(ValueError):
            scan_delta(ds, family, [2e-7, 1e-7])


class TestBinningConsistency:
    def test_pythagorean(self):
        assert binning_consistency(5.0, 3.0).excess == pytest.approx(4.0, rel=0)

    def test_equal_sigmas(self):
        assert binning_consistency(2.5, 2.5).excess == 0.0

    def test_coarse_bin_anchor(self):
        # observed 1.32*sqrt(10) vs expected sqrt(10)
        out = binning_consistency(1.32 * math.sqrt(10.0), math.sqrt(10.0))
        assert out.excess == pytest.approx(2.724701818548225, rel=1e-12)
        assert not out.inverted

    def test_inverted_inputs_warn(self):
        with pytest.warns(UserWarning):
            out = binning_consistency(1.0, 2.0)
        assert out.excess == 0.0
        assert out.inverted

    @given(
        a=st.floats(min_value=0, max_value=1e6),
        b=st.floats(min_value=0, max_value=1e6),
    )
    def test_recovers_quadrature_component(self, a, b):
        out = binning_consistency(math.hypot(a, b), a)
        # the subtraction is ill-conditioned for b << a; tolerance tracks that
        assert out.excess == pytest.approx(b, abs=2e-7 * (a + b + 1.0))

    def test_domain(self):
        with pytest.raises(cf.DomainError):
            binning_consistency(-1.0, 0.0)
