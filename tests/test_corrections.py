import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import casfluct as cf
from casfluct.corrections import (
    ConstantProfile,
    SqrtLawProfile,
    TableProfile,
    apparent_force,
    apparent_from_values,
    inflated_sigma,
    tilt_noise_estimate,
)


class TestApparentForce:
    def test_zero_delta_is_identity(self):
        f = lambda x: 7.0 / x + 3.0
        assert apparent_force(f, 1.3, 0.0) == f(1.3)

    def test_quadratic_exact(self, polynomial):
        f = polynomial(c2=1.0)  # F'' = 2 exactly
        for d in (0.5, 1.0, 4.0):
            shift = apparent_force(f, d, 0.37) - f(d)
            assert shift == pytest.approx(0.37**2, rel=1e-9)

    def test_inverse_distance_reference(self):
        bg = cf.ElectrostaticBackground(beta=215.0)  # analytic curvature path
        shift = apparent_force(bg, 1.0, 0.1) - bg.force(1.0)
        assert shift == pytest.approx(2.15, rel=1e-12)

    def test_offset_times_d_cubed_constant(self):
        bg = cf.ElectrostaticBackground(beta=215.0)
        vals = [
            (apparent_force(bg, d, 0.1) - bg.force(d)) * d**3
            for d in np.linspace(0.6, 6.0, 25)
        ]
        assert np.ptp(vals) / np.mean(vals) < 1e-6
        assert np.mean(vals) == pytest.approx(2.15, rel=1e-9)

    def test_curvature_from_values(self):
        # F'' given as a value, as fig1 gives the total's curvature with the Casimir force
        assert apparent_from_values(0.0, 10.0, 2.0) == 20.0
        assert apparent_from_values(0.0, 5.0, 2.0) == 10.0
        bg = cf.ElectrostaticBackground(beta=215.0)
        assert apparent_force(bg, 1.5, 0.1) == apparent_from_values(bg(1.5), bg.curvature(1.5), 0.1)

    def test_domain_errors(self):
        with pytest.raises(cf.DomainError):
            apparent_force(lambda x: x, 0.0, 0.1)
        with pytest.raises(cf.DomainError):
            apparent_force(lambda x: x, 1.0, -0.1)

    def test_correction_positive_for_metals(self, geometry):
        casimir = cf.SpherePlateForce(cf.GOLD_DRUDE, geometry)
        bg = cf.ElectrostaticBackground(beta=215.0 * 1e-17)
        total = cf.TotalForceEvaluator(bg, casimir)
        for d_um in (0.5, 1.5, 6.0):
            d = d_um * 1e-6
            assert apparent_force(total, d, 0.1e-6) >= total(d)


class TestApparentForceOnArrays:
    def _spline(self):
        knots = np.geomspace(0.4e-6, 8e-6, 120)
        return cf.TabulatedForceCurve(knots, 3.4e-28 / knots**3)

    def test_spline_equals_points(self):
        cas = self._spline()
        d = np.linspace(0.5e-6, 7.5e-6, 200)
        got = apparent_force(cas, d, 0.1e-6)
        assert got.shape == d.shape
        assert np.array_equal(got, [apparent_force(cas, x, 0.1e-6) for x in d])
        assert np.array_equal(apparent_force(cas, d, 0.0), cas(d))

    def test_total_force_equals_points(self):
        total = cf.TotalForceEvaluator(cf.ElectrostaticBackground(beta=215e-17), self._spline())
        d = np.linspace(0.5e-6, 7.5e-6, 200)
        got = apparent_force(total, d, 0.1e-6)
        want = [apparent_force(total, x, 0.1e-6) for x in d]
        # array powers of the background gap may differ from scalar ones in the last bit
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_curvature_value_array(self):
        got = apparent_from_values(np.zeros(2), np.array([10.0, 4.0]), 2.0)
        assert np.array_equal(got, [20.0, 8.0])
        assert np.array_equal(apparent_from_values(np.zeros(2), 10.0, np.array([2.0, 1.0])), [20.0, 5.0])
        cas, d = self._spline(), np.linspace(0.5e-6, 7.5e-6, 200)
        want = apparent_from_values(cas(d), cas.curvature(d), 0.1e-6)
        assert np.array_equal(apparent_force(cas, d, 0.1e-6), want)

    def test_domain_checks_every_point(self):
        with pytest.raises(cf.DomainError, match="distance must be finite and > 0, got 0$"):
            apparent_force(lambda x: x, np.array([1.0, 0.0, 2.0]), 0.1)


class TestInflatedSigma:
    def test_reference_excess(self):
        # F' = 1000 udyne/um, delta = 4 nm -> 4 udyne
        assert inflated_sigma(0.0, 1000.0, 0.004) == pytest.approx(4.0, rel=1e-12)

    def test_zero_delta_unchanged(self):
        assert inflated_sigma(3.25, 1000.0, 0.0) == 3.25

    def test_pythagorean_triple(self):
        assert inflated_sigma(3.0, 4.0, 1.0) == pytest.approx(5.0, rel=0)

    @given(
        sigma=st.floats(min_value=0, max_value=1e3),
        fp=st.floats(min_value=-1e3, max_value=1e3),
        delta=st.floats(min_value=0, max_value=10.0),
    )
    def test_monotone_and_floor(self, sigma, fp, delta):
        out = inflated_sigma(sigma, fp, delta)
        assert out >= sigma
        assert out >= abs(fp) * delta
        assert inflated_sigma(sigma, fp, 0.0) == sigma

    def test_domain(self):
        with pytest.raises(cf.DomainError):
            inflated_sigma(-1.0, 1.0, 1.0)
        with pytest.raises(cf.DomainError):
            inflated_sigma(1.0, 1.0, -1.0)


class TestProfiles:
    def test_sqrt_law_reference_points(self):
        p = SqrtLawProfile()  # amplitude 1 um, scale 3 um
        assert p(3e-6) == pytest.approx(1e-6, rel=1e-12)
        assert p(0.75e-6) == pytest.approx(0.5e-6, rel=1e-12)

    def test_constant_profile(self):
        p = ConstantProfile(100e-9)
        for d in (0.6e-6, 3e-6, 42e-6):
            assert p(d) == 100e-9

    def test_table_profile_interpolates(self):
        p = TableProfile(d=np.array([1e-6, 3e-6]), delta=np.array([0.1e-6, 0.3e-6]))
        assert p(2e-6) == pytest.approx(0.2e-6, rel=1e-12)

    @pytest.mark.parametrize("d", [0.6e-6, 6e-6, 0.999e-6, 3.001e-6])
    def test_table_profile_never_extrapolates(self, d):
        p = TableProfile(d=np.array([1e-6, 3e-6]), delta=np.array([0.1e-6, 0.3e-6]))
        assert p(1e-6) == 0.1e-6 and p(3e-6) == 0.3e-6  # the ends are inside
        with pytest.raises(cf.DomainError, match=rf"distance {d:g} outside tabulated range \[1e-06, 3e-06\]"):
            p(d)

    def test_domain(self):
        p = ConstantProfile(1e-7)
        with pytest.raises(cf.DomainError):
            p(0.0)
        with pytest.raises(ValueError):
            SqrtLawProfile(scale=0.0)
        with pytest.raises(ValueError):
            TableProfile(d=np.array([2e-6, 1e-6]), delta=np.array([1e-7, 1e-7]))


class TestTiltNoise:
    def test_identity(self):
        # equal lengths: default mode-frequency ratio is 1, so the estimate
        # is the reference noise unchanged
        assert tilt_noise_estimate(20e-9, 0.04, 0.04) == pytest.approx(20e-9, rel=1e-12)
        assert tilt_noise_estimate(20e-9, 0.04, 0.04, mode_freq_ratio=1.0) == pytest.approx(
            20e-9, rel=1e-12
        )

    def test_long_pendulum_with_stated_bandwidth_factor(self):
        # 20 nm at 4 cm scaled to 80 cm with a 6.3x lower swing frequency
        got = tilt_noise_estimate(20e-9, 0.04, 0.80, mode_freq_ratio=6.3)
        assert got == pytest.approx(400e-9 / math.sqrt(6.3), rel=1e-12)
        assert got == pytest.approx(160e-9, rel=0.01)

    def test_default_fourth_root_law(self):
        got = tilt_noise_estimate(20e-9, 0.04, 0.80)
        assert got == pytest.approx(400e-9 / 20.0**0.25, rel=1e-12)
        assert got == pytest.approx(189e-9, rel=0.01)

    def test_domain(self):
        with pytest.raises(cf.DomainError):
            tilt_noise_estimate(-1e-9, 0.04, 0.8)
        with pytest.raises(cf.DomainError):
            tilt_noise_estimate(1e-9, 0.0, 0.8)
        with pytest.raises(cf.DomainError):
            tilt_noise_estimate(1e-9, 0.04, 0.8, mode_freq_ratio=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_lengths_and_ratio_finite_and_positive(self, bad):
        for name, call in (("ref_length", lambda: tilt_noise_estimate(1e-9, bad, 0.8)),
                           ("length", lambda: tilt_noise_estimate(1e-9, 0.04, bad)),
                           ("mode_freq_ratio",
                            lambda: tilt_noise_estimate(1e-9, 0.04, 0.8, mode_freq_ratio=bad))):
            with pytest.raises(cf.DomainError, match=f"^{name} must be finite and > 0, got {bad:g}"):
                call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
def test_amplitudes_must_be_finite_and_non_negative(bad):
    calls = (
        lambda: ConstantProfile(bad),
        lambda: SqrtLawProfile(amplitude=bad),
        lambda: TableProfile(d=np.array([1e-6, 2e-6]), delta=np.array([1e-7, bad])),
        lambda: cf.ProcessSpec(target_rms=bad),
        lambda: apparent_force(lambda x: x, 1e-6, bad),
        lambda: inflated_sigma(1.0, 1.0, bad),
        lambda: tilt_noise_estimate(bad, 0.04, 0.8),
    )
    for call in calls:
        with pytest.raises(cf.DomainError, match=f"finite and >= 0, got {bad:g}"):
            call()
