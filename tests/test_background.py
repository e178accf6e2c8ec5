import math

import numpy as np
import pytest

import casfluct as cf
from casfluct import background
from casfluct.background import (
    ElectrostaticBackground,
    FitConvergenceError,
    FitError,
    TotalForceEvaluator,
    fit_background,
)

UDYNE_UM = 1e-17
UM = 1e-6


class TestElectrostaticForce:
    def test_reference_values(self):
        bg = ElectrostaticBackground(beta=215.0)
        assert bg.force(1.0) == pytest.approx(215.0, rel=0)
        assert bg.force(2.0) == pytest.approx(107.5, rel=0)

    def test_offset_shift(self):
        bg = ElectrostaticBackground(beta=215.0, d0=0.1)
        assert bg.force(1.1) == pytest.approx(215.0, rel=1e-12)

    def test_domain(self):
        bg = ElectrostaticBackground(beta=215.0, d0=0.5)
        with pytest.raises(cf.DomainError):
            bg.force(0.5)
        with pytest.raises(cf.DomainError):
            bg.force(0.2)

    def test_domain_error_names_worst_point(self):
        bg = ElectrostaticBackground(beta=215.0, d0=0.5e-6)
        d = np.linspace(0.1e-6, 8e-6, 200)
        with pytest.raises(cf.DomainError) as err:
            bg.force(d)
        message = str(err.value)
        assert len(message) < 80
        assert message.endswith(f"got d = {d[0]:g}")

    def test_force_times_gap_constant(self):
        bg = ElectrostaticBackground(beta=215.0, d0=0.07)
        vals = [bg.force(d) * (d - 0.07) for d in (0.5, 1.0, 2.7, 6.0)]
        assert all(v == pytest.approx(215.0, rel=1e-14) for v in vals)

    def test_analytic_derivatives(self):
        bg = ElectrostaticBackground(beta=215.0)
        assert bg.gradient(2.0) == pytest.approx(-215.0 / 4.0, rel=0)
        assert bg.curvature(1.0) == pytest.approx(430.0, rel=0)

    def test_nan_separation_is_a_domain_error(self):
        bg = ElectrostaticBackground(beta=215e-17, d0=0.0)
        for method in (bg, bg.gradient, bg.curvature):
            for bad in (math.nan, np.array([1e-6, math.nan, 2e-6])):
                with pytest.raises(cf.DomainError, match="got d = nan"):
                    method(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            ElectrostaticBackground(beta=0.0)


class TestFit:
    def test_noiseless_exact_recovery(self, synthetic_dataset):
        ds = synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0])
        fit = fit_background(ds)
        assert fit.background.beta == pytest.approx(215.0 * UDYNE_UM, rel=1e-10)
        assert abs(fit.background.d0) < 1e-12
        assert fit.chi2 < 1e-18
        assert fit.points_used == 5
        assert fit.dof == 3
        assert not fit.d0_at_bounds

    @pytest.mark.parametrize("d0_um, at_bounds", [(-5.0, True), (-1.2, True), (1.5, True),
                                                   (0.0, False), (0.999, False)])
    def test_d0_at_bounds(self, synthetic_dataset, d0_um, at_bounds):
        # a true d0 outside (-1, 1) um ends the search within its stopping distance of a bound
        fit = fit_background(synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0], d0_um=d0_um))
        assert fit.d0_at_bounds is at_bounds

    def test_d_min_selects_points(self, synthetic_dataset):
        ds = synthetic_dataset([0.8, 1.2, 2.2, 3.0, 4.0, 5.0, 6.0])
        fit = fit_background(ds, d_min=2e-6)
        assert fit.points_used == 5

    def test_too_few_points(self, synthetic_dataset):
        ds = synthetic_dataset([2.5, 3.0])
        with pytest.raises(FitError, match=">= 3"):
            fit_background(ds)

    def test_zero_forces_give_singular_normal_equations(self, synthetic_dataset):
        # beta = 0 zeroes the d0 column of the Jacobian, so J^T W J cannot be inverted
        ds = synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0], beta=0.0)
        with pytest.raises(FitError, match="^singular normal equations"):
            fit_background(ds)

    def test_offset_recovery(self, synthetic_dataset):
        ds = synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0], d0_um=0.15)
        fit = fit_background(ds)
        assert fit.background.d0 == pytest.approx(0.15 * UM, rel=1e-6)
        assert fit.background.beta == pytest.approx(215.0 * UDYNE_UM, rel=1e-8)

    def test_scale_equivariance(self, synthetic_dataset):
        rng = np.random.default_rng(7)
        base = synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0], d0_um=0.1, rng=rng)
        scale = 3.7
        scaled = cf.ForceDataset(
            d_um=base.d_um,
            force_udyne=base.force_udyne * scale,
            sigma_udyne=base.sigma_udyne * scale,
            n_samples=base.n_samples,
            bin_width_um=base.bin_width_um,
        )
        f1 = fit_background(base)
        f2 = fit_background(scaled)
        assert f2.background.beta == pytest.approx(scale * f1.background.beta, rel=1e-9)
        assert f2.background.d0 == pytest.approx(f1.background.d0, abs=1e-14)
        assert f2.chi2 == pytest.approx(f1.chi2, rel=1e-9)

    def test_subtractor_hook(self, synthetic_dataset):
        extra = lambda d_um: 10.0 / d_um**3  # dispersion-like contaminant, udyne
        ds = synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0], extra=extra)
        biased = fit_background(ds)
        clean = fit_background(
            ds, casimir_subtractor=lambda d_m: (10.0 / (d_m / UM) ** 3) * 1e-11
        )
        assert clean.background.beta == pytest.approx(215.0 * UDYNE_UM, rel=1e-9)
        assert abs(biased.background.beta - 215.0 * UDYNE_UM) > abs(
            clean.background.beta - 215.0 * UDYNE_UM
        )

    def test_uncertainty_calibration_small(self, synthetic_dataset):
        d_um = [2.2, 3.0, 4.0, 5.0, 6.0]
        inside = 0
        n_trials = 60
        for trial in range(n_trials):
            rng = np.random.default_rng(5000 + trial)
            sigma = 7.0 / np.asarray(d_um)
            ds = synthetic_dataset(d_um, sigma=sigma, rng=rng)
            fit = fit_background(ds)
            pull = abs(fit.background.beta - 215.0 * UDYNE_UM) / fit.beta_sigma
            if pull <= 3.0:
                inside += 1
        assert inside >= math.ceil(0.95 * n_trials)

    def test_json_report_shape(self, synthetic_dataset):
        fit = fit_background(synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0]))
        report = fit.to_json_dict()
        assert set(report) == {
            "beta_udyne_um",
            "beta_sigma",
            "d0_um",
            "d0_sigma",
            "chi2",
            "dof",
            "points_used",
            "d0_at_bounds",
        }
        assert report["beta_udyne_um"] == pytest.approx(215.0, rel=1e-10)


def _random_fits(count, seed=2010):
    """Seeded datasets; a true d0 beyond (-1, 1) um pins the optimum at a bound."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 30))
        d_um = np.sort(rng.uniform(2.05, 8.0, n))
        d0_um = rng.uniform(-1.6, 1.6)
        sigma = rng.uniform(0.5, 3.0, n)
        force = 215.0 / (d_um - d0_um) + rng.normal(0.0, 10.0 ** rng.uniform(-6, 0.5), n) * sigma
        yield cf.ForceDataset(d_um=d_um, force_udyne=force, sigma_udyne=sigma,
                              n_samples=np.full(n, 100), bin_width_um=np.full(n, 0.2))


def test_d0_search_equals_scipy_bounded_bit_for_bit():
    """d0, beta and chi^2 equal those of scipy's bounded minimize_scalar on the
    same profile, bit for bit, at interior optima and at optima on a bound."""
    from scipy.optimize import minimize_scalar

    near_bound = 0
    for data in _random_fits(240):
        fit = fit_background(data)
        sel = data.d_m > 2e-6
        d, f, w = data.d_m[sel], data.force_N[sel], 1.0 / data.sigma_N[sel] ** 2
        lo, hi = -1e-6, min(1e-6, float(d.min()) * (1.0 - 1e-9))
        res = minimize_scalar(lambda d0: background._beta_profile(d0, d, f, w)[1],
                              bounds=(lo, hi), method="bounded", options={"xatol": 1e-15})
        assert res.status == 0
        beta, chi2 = background._beta_profile(float(res.x), d, f, w)
        assert (fit.background.d0, fit.background.beta, fit.chi2) == (float(res.x), beta, chi2)
        assert math.copysign(1.0, fit.background.d0) == math.copysign(1.0, float(res.x))
        near_bound += min(fit.background.d0 - lo, hi - fit.background.d0) < 1e-13
    assert near_bound >= 20


class TestUnconvergedSearch:
    def test_nan_profile_raises(self, synthetic_dataset):
        ds = synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(FitError, match="NaN"):  # a FitConvergenceError, caught as a FitError
            fit_background(ds, casimir_subtractor=lambda d: np.where(d > 5e-6, math.nan, 0.0))

    def test_evaluation_budget_raises_where_scipy_reports_status_1(self, synthetic_dataset):
        from scipy.optimize import minimize_scalar

        ds = synthetic_dataset([2.2, 3.0, 4.0, 5.0, 6.0], d0_um=0.15, rng=np.random.default_rng(4))
        d, f, w = ds.d_m, ds.force_N, 1.0 / ds.sigma_N**2
        profile = lambda d0: background._beta_profile(d0, d, f, w)[1]
        assert minimize_scalar(profile, bounds=(-1e-6, 1e-6), method="bounded",
                               options={"xatol": 1e-15}).nfev > 10
        res = minimize_scalar(profile, bounds=(-1e-6, 1e-6), method="bounded",
                              options={"xatol": 1e-15, "maxiter": 10})
        assert res.status == 1
        with pytest.raises(FitConvergenceError, match="did not converge in 10 evaluations"):
            background._fminbound(profile, -1e-6, 1e-6, 1e-15, 10)


class TestTotalForce:
    def test_zero_casimir(self):
        bg = ElectrostaticBackground(beta=215.0)
        assert TotalForceEvaluator(bg, lambda d: 0.0)(1.3) == bg.force(1.3)

    def test_zero_background_limit(self):
        # beta must stay positive; a vanishingly small one recovers Casimir-only
        bg = ElectrostaticBackground(beta=1e-300)
        assert TotalForceEvaluator(bg, lambda d: 42.0)(1.0) == pytest.approx(42.0, rel=0)

    def test_additivity_bitwise(self):
        bg = ElectrostaticBackground(beta=215.0)
        cas = lambda d: 33.76 / d**3
        for d in (0.7, 1.0, 2.5):
            assert TotalForceEvaluator(bg, cas)(d) == bg.force(d) + cas(d)

    def test_reference_sum(self, geometry_t0):
        bg = ElectrostaticBackground(beta=215.0 * UDYNE_UM)
        f_c = cf.sphere_plate_force(cf.PerfectConductor(), 1e-6, geometry_t0)
        got = TotalForceEvaluator(bg, lambda d: f_c)(1e-6) / 1e-11
        assert got == pytest.approx(215.0 + 33.76, rel=1e-3)

    def test_evaluator_on_array_equals_points(self):
        bg = ElectrostaticBackground(beta=215.0 * UDYNE_UM, d0=0.03 * UM)
        knots = np.geomspace(0.4, 8.0, 120) * UM
        total = TotalForceEvaluator(bg, cf.TabulatedForceCurve(knots, 3.4e-28 / knots**3))
        d = np.linspace(0.5, 7.5, 200) * UM
        for method in (total, total.gradient, total.curvature):
            got = method(d)
            assert got.shape == d.shape
            # array powers of the background gap may differ from scalar ones in the last bit
            np.testing.assert_allclose(got, [method(x) for x in d], rtol=1e-15, atol=0.0)

    def test_evaluator_derivatives(self, polynomial):
        bg = ElectrostaticBackground(beta=215.0)
        total = TotalForceEvaluator(bg, polynomial(c2=0.5))
        assert total(2.0) == pytest.approx(215.0 / 2.0 + 2.0, rel=1e-12)
        assert total.gradient(2.0) == pytest.approx(-215.0 / 4.0 + 2.0, rel=1e-7)
        assert total.curvature(2.0) == pytest.approx(2.0 * 215.0 / 8.0 + 1.0, rel=1e-7)
