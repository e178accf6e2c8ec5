import numpy as np
import pytest

import casfluct as cf
from casfluct import lifshitz, permittivity, units
from casfluct.permittivity import (
    Drude,
    OpticalAbsorptionTable,
    PerfectConductor,
    Plasma,
    Tabulated,
    drude_loss_spectrum,
    eps_imag_axis,
    kk_transform,
    load_eps_table,
    load_optical_table,
)


def test_plasma_at_plasma_frequency_is_two():
    assert eps_imag_axis(Plasma(9.0), 9.0) == pytest.approx(2.0, rel=1e-15)


def test_drude_closed_form_at_gamma():
    # 1 + 81 / (0.035 * 0.070)
    got = eps_imag_axis(Drude(9.0, 0.035), 0.035)
    assert got == pytest.approx(33062.22448979592, rel=1e-12)


def test_drude_high_frequency_limit():
    assert eps_imag_axis(cf.GOLD_DRUDE, 1e6) - 1.0 == pytest.approx(0.0, abs=1e-10)


def test_perfect_conductor_rejected_towards_reflection_path():
    with pytest.raises(cf.UnsupportedModelError, match="reflection"):
        eps_imag_axis(PerfectConductor(), 1.0)


def test_nonpositive_xi_rejected():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            eps_imag_axis(cf.GOLD_DRUDE, bad)


@pytest.mark.parametrize("model", [Plasma(9.0), Drude(9.0, 0.035)])
def test_eps_at_least_one_and_non_increasing(model):
    xi = np.geomspace(1e-3, 1e3, 200)
    eps = eps_imag_axis(model, xi)
    assert np.all(eps >= 1.0)
    assert np.all(np.diff(eps) <= 0)


def test_drude_to_plasma_limit():
    xi = np.geomspace(0.1, 100.0, 50)
    drude = eps_imag_axis(Drude(9.0, 1e-6), xi)
    plasma = eps_imag_axis(Plasma(9.0), xi)
    assert np.max(np.abs(drude / plasma - 1.0)) < 1e-4


class TestTabulated:
    def make(self, n=60):
        xi = np.geomspace(0.01, 100.0, n)
        return Tabulated(xi_ev=xi, eps=eps_imag_axis(cf.GOLD_DRUDE, xi), low_freq=cf.GOLD_DRUDE)

    def test_interpolation_matches_generator(self):
        tab = self.make()
        xi = np.geomspace(0.02, 80.0, 40)
        got = eps_imag_axis(tab, xi)
        want = eps_imag_axis(cf.GOLD_DRUDE, xi)
        assert np.max(np.abs(got / want - 1.0)) < 5e-3

    def test_below_table_uses_drude_extension(self):
        tab = self.make()
        assert eps_imag_axis(tab, 1e-3) == pytest.approx(
            eps_imag_axis(cf.GOLD_DRUDE, 1e-3), rel=1e-12
        )

    def test_above_table_uses_plasma_asymptote(self):
        tab = self.make()
        assert eps_imag_axis(tab, 1e4) == pytest.approx(1.0 + (9.0 / 1e4) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        "xi",
        [
            pytest.param(np.array([1e-4, 0.01, 0.5, 3.0, 100.0, 2e3]), id="below-inside-above"),
            pytest.param(np.geomspace(0.02, 80.0, 9), id="inside"),
            pytest.param(np.array([1e-5, 1e-3, 2e2, 1e4]), id="outside"),
        ],
    )
    def test_grid_equals_per_xi_calls(self, xi):
        tab = self.make()
        got = eps_imag_axis(tab, xi)
        assert got.tobytes() == np.array([eps_imag_axis(tab, x) for x in xi]).tobytes()

    def test_monotonic_non_increasing(self):
        tab = self.make()
        xi = np.geomspace(1e-3, 1e4, 300)
        eps = eps_imag_axis(tab, xi)
        assert np.all(eps >= 1.0)
        assert np.all(np.diff(eps) <= 1e-12 * eps[:-1])

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            Tabulated(xi_ev=np.array([1.0, 0.5]), eps=np.array([2.0, 3.0]))
        with pytest.raises(ValueError):
            Tabulated(xi_ev=np.array([1.0, 2.0]), eps=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            Tabulated(xi_ev=np.array([1.0, 2.0]), eps=np.array([2.0, 3.0]))


class TestDispersionIntegral:
    @staticmethod
    def drude_table(n=400, lo=0.01, hi=100.0):
        om = np.geomspace(lo, hi, n)
        return OpticalAbsorptionTable(om, drude_loss_spectrum(cf.GOLD_DRUDE, om))

    def test_reproduces_drude_within_half_percent(self):
        table = self.drude_table()
        for xi in np.geomspace(0.05, 10.0, 25):
            got = kk_transform(table, xi)
            want = eps_imag_axis(cf.GOLD_DRUDE, xi)
            assert got == pytest.approx(want, rel=5e-3)

    def test_example_value_at_one_ev(self):
        # closed form: 1 + 81 / (1 * 1.035)
        got = kk_transform(self.drude_table(), 1.0)
        assert got == pytest.approx(1.0 + 81.0 / 1.035, rel=5e-3)

    def test_vacuum_limit(self):
        om = np.geomspace(0.01, 100.0, 50)
        table = OpticalAbsorptionTable(om, np.full_like(om, 1e-30))
        assert kk_transform(table, 1.0) - 1.0 == pytest.approx(0.0, abs=1e-12)

    def test_monotone_non_increasing(self):
        table = self.drude_table(n=120)
        vals = [kk_transform(table, xi) for xi in np.geomspace(0.05, 10.0, 15)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_result_at_least_one(self):
        table = self.drude_table(n=80)
        assert kk_transform(table, 50.0) >= 1.0

    def test_domain_checks(self):
        table = self.drude_table(n=20)
        with pytest.raises(ValueError):
            kk_transform(table, 0.0)
        with pytest.raises(ValueError):
            OpticalAbsorptionTable(np.array([]), np.array([]))

    def test_xi_equal_to_relaxation_rate(self):
        # removable singularity in the closed-form extension term
        table = self.drude_table()
        got = kk_transform(table, 0.035)
        assert got == pytest.approx(eps_imag_axis(cf.GOLD_DRUDE, 0.035), rel=5e-3)

    def test_unconverged_integral_raises(self):
        # eps'' rising 600 decades across one segment: Gauss-Legendre orders
        # 64 and 128 still differ by ~7e-5, so no value is returned
        table = OpticalAbsorptionTable(np.array([1.0, 2.0]), np.array([1e-300, 1e300]))
        with pytest.raises(units.ConvergenceError, match="orders 64 and 128") as err:
            kk_transform(table, 10.0)
        assert err.value.terms == 128
        assert np.isfinite(err.value.partial_sum) and err.value.partial_sum > 1.0


class TestDispersionGrid:
    """kk_transform on an array equals the per-xi calls bit for bit."""

    table = TestDispersionIntegral.drude_table(n=120, lo=0.02, hi=50.0)

    @pytest.mark.parametrize(
        "xi",
        [
            pytest.param(np.geomspace(0.05, 10.0, 17), id="inside"),
            pytest.param(table.omega_ev[1:-1:9], id="table-nodes"),
            pytest.param(np.array([1e-5, 1e-3, 0.0199]), id="below-table"),
            pytest.param(np.array([50.0, 51.0, 2e3]), id="above-table"),
            pytest.param(np.concatenate((table.omega_ev[::-13], [0.01, 0.3, 70.0])), id="mixed"),
        ],
    )
    def test_grid_equals_per_xi_calls(self, xi):
        got = kk_transform(self.table, xi)
        want = np.array([kk_transform(self.table, x) for x in xi])
        assert got.shape == xi.shape
        assert got.tobytes() == want.tobytes()

    def test_keeps_shape_and_scalar_gives_float(self):
        xi = np.geomspace(0.1, 5.0, 6)
        assert kk_transform(self.table, xi.reshape(2, 3)).tobytes() == kk_transform(
            self.table, xi).tobytes()
        for scalar in (1.0, np.float64(1.0), np.array(1.0)):
            assert type(kk_transform(self.table, scalar)) is float
        assert kk_transform(self.table, np.array(1.0)) == kk_transform(self.table, [1.0])[0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_whole_grid_checked_before_any_integral(self, bad, monkeypatch):
        def no_integral(*args):
            raise AssertionError("the grid must be checked before the first integral")

        monkeypatch.setattr(permittivity, "_kk_table_integral", no_integral)
        with pytest.raises(cf.DomainError, match="xi_ev must be finite and > 0"):
            kk_transform(self.table, np.array([1.0, 2.0, bad, 3.0]))

    @pytest.mark.parametrize("grid, failing", [([1.5, 10.0, 100.0], 10.0),
                                               ([1.5, 100.0, 10.0], 100.0)])
    def test_first_unconverged_xi_raises_its_own_error(self, grid, failing):
        # on this table only xi = 1.5 converges (see test_unconverged_integral_raises)
        table = OpticalAbsorptionTable(np.array([1.0, 2.0]), np.array([1e-300, 1e300]))
        assert kk_transform(table, 1.5) > 1.0
        with pytest.raises(units.ConvergenceError) as want:
            kk_transform(table, failing)
        with pytest.raises(units.ConvergenceError) as got:
            kk_transform(table, np.array(grid))
        assert str(got.value) == str(want.value)
        assert got.value.partial_sum == want.value.partial_sum
        assert got.value.terms == want.value.terms == 128


def test_one_convergence_error_class():
    assert cf.ConvergenceError is lifshitz.ConvergenceError is units.ConvergenceError


def test_csv_loaders(tmp_path):
    om = np.geomspace(0.05, 50.0, 30)
    loss = drude_loss_spectrum(cf.GOLD_DRUDE, om)
    optical = tmp_path / "optical.csv"
    optical.write_text(
        "# synthetic\nomega_ev, eps_imag\n"
        + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(om, loss))
        + "\n"
    )
    table = load_optical_table(optical)
    assert np.array_equal(table.omega_ev, om)

    xi = np.geomspace(0.05, 50.0, 30)
    eps = eps_imag_axis(cf.GOLD_DRUDE, xi)
    eps_csv = tmp_path / "eps.csv"
    eps_csv.write_text(
        "xi_ev, eps\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(xi, eps)) + "\n"
    )
    tab = load_eps_table(eps_csv)
    assert isinstance(tab, Tabulated)
    assert len(tab.xi_ev) == 30

    bad = tmp_path / "bad.csv"
    bad.write_text("wrong, header\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_optical_table(bad)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        Plasma(omega_p_ev=0.0)
    with pytest.raises(ValueError):
        Drude(omega_p_ev=9.0, gamma_ev=0.0)
