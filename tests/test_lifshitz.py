import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_laguerre, zeta

import casfluct as cf
from casfluct import lifshitz
from casfluct.lifshitz import (
    ConvergenceError,
    LifshitzSettings,
    PFAValidityError,
    SpherePlateForce,
    TabulatedForceCurve,
    derivative,
    force_curve,
    plate_energy,
    plate_pressure,
    plate_tower,
    sphere_plate_force,
)

HBAR = 1.054571817e-34
C = 299792458.0
KB = 1.380649e-23
ZETA3 = 1.2020569031595942
EV = 1.602176634e-19
UDYNE = 1e-11

# Frozen closed forms (independent of the Matsubara machinery):
IDEAL_T0_PRESSURE_1UM = math.pi**2 * HBAR * C / (240.0 * (1e-6) ** 4)  # 1.30013e-3 Pa
PFA_FD3 = math.pi**3 * HBAR * C * 0.124 / 360.0  # 3.37649e-28 N m^3


class TestSettings:
    def test_defaults(self):
        s = LifshitzSettings()
        assert s.matsubara_rel_tol == 1e-9
        assert s.matsubara_max_terms == 5000
        assert not s.zero_temperature_mode

    def test_validation(self):
        with pytest.raises(ValueError):
            LifshitzSettings(matsubara_rel_tol=0.0)
        with pytest.raises(ValueError):
            LifshitzSettings(quad_rel_tol=0.5)
        with pytest.raises(ValueError):
            LifshitzSettings(matsubara_max_terms=0)


class TestClosedFormLimits:
    def test_ideal_zero_temperature_pressure(self, zero_t_settings):
        p = plate_pressure(cf.PerfectConductor(), 1e-6, 0.0, zero_t_settings)
        assert p == pytest.approx(IDEAL_T0_PRESSURE_1UM, rel=1e-6)

    def test_ideal_zero_temperature_energy(self, zero_t_settings):
        e = plate_energy(cf.PerfectConductor(), 1e-6, 0.0, zero_t_settings)
        want = -math.pi**2 * HBAR * C / (720.0 * (1e-6) ** 3)
        assert e == pytest.approx(want, rel=1e-6)

    def test_power_law_exact(self, zero_t_settings):
        vals = [
            plate_pressure(cf.PerfectConductor(), d, 0.0, zero_t_settings) * d**4
            for d in (0.5e-6, 1e-6, 2e-6)
        ]
        assert max(vals) / min(vals) - 1 < 1e-3  # < 0.1%

    def test_classical_limit_ideal(self):
        d = 50e-6
        p = plate_pressure(cf.PerfectConductor(), d, 300.0)
        assert p == pytest.approx(ZETA3 * KB * 300.0 / (4.0 * math.pi * d**3), rel=1e-9)

    def test_zero_temperature_integral_near_perfect_plasma(self, zero_t_settings):
        # The perfect mirror's T = 0 values are closed forms, so anchor the
        # T = 0 integral with a plasma metal of skin depth delta << d: E, P and
        # dP/dd approach the mirror's closed forms as 1 - c*delta/d with
        # c = 4, 16/3 and 20/3 (E ~ d^-3 (1 - 4 delta/d), differentiated).
        d, omega_p_ev = 1e-6, 1e4
        delta = HBAR * C / (omega_p_ev * 1.602176634e-19)
        plasma = plate_tower(cf.Plasma(omega_p_ev), d, 0.0, zero_t_settings)
        mirror = plate_tower(cf.PerfectConductor(), d, 0.0, zero_t_settings)
        for got, ideal, c in zip(plasma, mirror, (4.0, 16.0 / 3.0, 20.0 / 3.0)):
            assert got / ideal == pytest.approx(1.0 - c * delta / d, abs=1e-7)

    def test_classical_limit_ideal_slope(self):
        d = 50e-6
        slope = plate_tower(cf.PerfectConductor(), d, 300.0).pressure_slope
        assert slope == pytest.approx(-3.0 * ZETA3 * KB * 300.0 / (4.0 * math.pi * d**4), rel=1e-9)

    def test_classical_limit_drude_is_half(self):
        d = 50e-6
        p = plate_pressure(cf.GOLD_DRUDE, d, 300.0)
        assert p == pytest.approx(ZETA3 * KB * 300.0 / (8.0 * math.pi * d**3), rel=0.01)

    def test_drude_to_plasma_classical_ratio(self):
        d = 50e-6
        ratio = plate_pressure(cf.GOLD_DRUDE, d, 300.0) / plate_pressure(
            cf.GOLD_PLASMA, d, 300.0
        )
        assert ratio == pytest.approx(0.5, rel=0.02)


class TestSpherePlate:
    def test_pfa_constant(self, geometry_t0, zero_t_settings):
        for d in (0.5e-6, 1e-6, 3e-6):
            f = sphere_plate_force(cf.PerfectConductor(), d, geometry_t0, zero_t_settings)
            assert f * d**3 == pytest.approx(PFA_FD3, rel=5e-3)

    def test_pfa_example_value(self, geometry_t0, zero_t_settings):
        f = sphere_plate_force(cf.PerfectConductor(), 1e-6, geometry_t0, zero_t_settings)
        assert f / UDYNE == pytest.approx(33.76, rel=5e-3)

    def test_linear_in_radius(self, zero_t_settings):
        g1 = cf.ExperimentGeometry(sphere_radius=0.124, temperature=0.0)
        g2 = cf.ExperimentGeometry(sphere_radius=0.248, temperature=0.0)
        f1 = sphere_plate_force(cf.PerfectConductor(), 1e-6, g1, zero_t_settings)
        f2 = sphere_plate_force(cf.PerfectConductor(), 1e-6, g2, zero_t_settings)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    def test_model_ordering(self, geometry):
        for d_um in (0.5, 1.0, 3.0, 10.0):
            d = d_um * 1e-6
            f_d = sphere_plate_force(cf.GOLD_DRUDE, d, geometry)
            f_p = sphere_plate_force(cf.GOLD_PLASMA, d, geometry)
            f_pc = sphere_plate_force(cf.PerfectConductor(), d, geometry)
            assert f_d <= f_p <= f_pc

    def test_monotone_decreasing(self, geometry):
        grid = np.geomspace(0.3e-6, 10e-6, 12)
        f = [sphere_plate_force(cf.GOLD_DRUDE, d, geometry) for d in grid]
        assert all(a > b for a, b in zip(f, f[1:]))

    def test_pfa_hard_error(self):
        g = cf.ExperimentGeometry(sphere_radius=1e-4, temperature=300.0)
        with pytest.raises(PFAValidityError):
            sphere_plate_force(cf.PerfectConductor(), 2e-5, g)

    def test_pfa_warning(self):
        g = cf.ExperimentGeometry(sphere_radius=1e-3, temperature=300.0)
        with pytest.warns(UserWarning, match="proximity"):
            sphere_plate_force(cf.PerfectConductor(), 2e-6, g)

    def test_domain_errors(self, geometry):
        with pytest.raises(cf.DomainError):
            sphere_plate_force(cf.GOLD_DRUDE, 0.0, geometry)
        with pytest.raises(cf.DomainError):
            plate_pressure(cf.GOLD_DRUDE, 1e-6, -1.0)


def test_zeta3_literal_is_scipy_zeta3():
    # lifshitz spells zeta(3) out so that the engine needs no scipy
    assert lifshitz._ZETA3 == float(zeta(3))


@pytest.mark.parametrize("order", lifshitz._LAG_ORDERS)
def test_committed_laguerre_nodes_are_scipy_bit_for_bit(order):
    nodes, weights = roots_laguerre(order)
    lifshitz._LAG_CACHE.clear()
    got_nodes, got_weights = lifshitz._lag_nodes(order)
    assert got_nodes.dtype == got_weights.dtype == np.float64
    assert got_nodes.tobytes() == nodes.tobytes()
    assert got_weights.tobytes() == weights.tobytes()


def _quad_n0_te_energy(b):
    """The plasma n = 0 TE energy integral by adaptive quadrature: the reference for the fixed rule."""

    def energy(y):
        s = math.sqrt(y * y + b * b)
        r = (y - s) / (y + s)
        return y * math.log1p(-r * r * math.exp(-y))

    return quad(energy, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)[0]


@pytest.mark.parametrize("omega_p_ev", [1.0, 9.0, 30.0])
def test_n0_te_energy_matches_quad(omega_p_ev):
    omega_p = omega_p_ev * EV / HBAR
    for d in np.geomspace(0.05e-6, 50e-6, 13):
        b = 2.0 * d * omega_p / C
        got = lifshitz._n0_te_energy(b)
        assert type(got) is float
        assert got == pytest.approx(_quad_n0_te_energy(b), rel=1e-13, abs=0.0)


def test_n0_te_rule_that_misses_its_check_raises(monkeypatch):
    # a step of 1/2 (1 against the nested rule) is far too coarse for 1e-11
    monkeypatch.setattr(lifshitz, "_N0_TE_T", np.linspace(-3.5, 2.5, 13))
    b = 2.0 * 1e-6 * (9.0 * EV / HBAR) / C
    with pytest.raises(ConvergenceError, match="n = 0 TE energy") as err:
        lifshitz._n0_te_energy(b)
    assert err.value.terms == 13
    with pytest.raises(ConvergenceError, match="n = 0 TE energy"):
        plate_energy(cf.GOLD_PLASMA, 1e-6, 300.0)
    plate_pressure(cf.GOLD_PLASMA, 1e-6, 300.0)  # its n = 0 TE term is a Laguerre sum
    plate_energy(cf.GOLD_DRUDE, 1e-6, 300.0)  # no TE term at zero frequency


def test_matsubara_non_convergence_carries_partial_sum():
    settings = LifshitzSettings(matsubara_max_terms=3)
    with pytest.raises(ConvergenceError) as err:
        plate_pressure(cf.GOLD_DRUDE, 0.5e-6, 300.0, settings)
    assert err.value.terms == 3
    assert err.value.partial_sum > 0


def test_tabulated_material_force_close_to_drude(geometry):
    xi = np.geomspace(1e-3, 1e3, 160)
    tab = cf.Tabulated(xi_ev=xi, eps=cf.eps_imag_axis(cf.GOLD_DRUDE, xi), low_freq=cf.GOLD_DRUDE)
    d = 1e-6
    f_tab = sphere_plate_force(tab, d, geometry)
    f_drude = sphere_plate_force(cf.GOLD_DRUDE, d, geometry)
    assert f_tab == pytest.approx(f_drude, rel=2e-3)


class TestForceCurve:
    def test_build_and_spline(self, geometry):
        grid = np.geomspace(0.5e-6, 3e-6, 24)
        curve = force_curve(cf.GOLD_DRUDE, geometry, grid)
        ev = curve.as_evaluator()
        mid = 1.1e-6
        assert ev(mid) == pytest.approx(sphere_plate_force(cf.GOLD_DRUDE, mid, geometry), rel=1e-6)

    def test_invariants_enforced(self, geometry):
        with pytest.raises(ValueError):
            cf.ForceCurve(cf.GOLD_DRUDE, geometry, np.array([2e-6, 1e-6]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            cf.ForceCurve(cf.GOLD_DRUDE, geometry, np.array([1e-6, 2e-6]), np.array([1.0, 2.0]))

    def test_tabulated_evaluator_domain(self):
        d = np.linspace(1.0, 2.0, 8)
        ev = TabulatedForceCurve(d, 1.0 / d)
        with pytest.raises(cf.DomainError):
            ev(0.5)
        with pytest.raises(cf.DomainError):
            ev(np.array([1.2, 2.5]))

    def test_tabulated_derivatives(self):
        d = np.linspace(0.5, 3.0, 200)
        ev = TabulatedForceCurve(d, 215.0 / d)
        assert ev.gradient(1.0) == pytest.approx(-215.0, rel=1e-6)
        assert ev.curvature(1.0) == pytest.approx(430.0, rel=1e-3)

    def test_tabulated_array_equals_points(self):
        knots = np.geomspace(0.4e-6, 8e-6, 120)
        ev = TabulatedForceCurve(knots, PFA_FD3 / knots**3)
        x = np.linspace(0.5e-6, 7.5e-6, 200)
        for method in (ev, ev.gradient, ev.curvature):
            got = method(x)
            assert got.shape == x.shape
            assert np.array_equal(got, [method(v) for v in x])


def _evaluator(name, geometry):
    if name == "sphere-plate":
        return SpherePlateForce(cf.PerfectConductor(), geometry)
    knots = np.geomspace(0.4e-6, 8e-6, 120)
    curve = TabulatedForceCurve(knots, PFA_FD3 / knots**3)
    bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * 1e-6, d0=0.1e-6)
    return {"tabulated": curve, "background": bg, "total": cf.TotalForceEvaluator(bg, curve)}[name]


@pytest.mark.parametrize("name", ["sphere-plate", "tabulated", "background", "total"])
def test_evaluator_protocol(name, geometry):
    """Every evaluator the CLI builds carries F' and F''; all but the
    sphere-plate force (one d at a time) take an array of d too."""
    ev = _evaluator(name, geometry)
    for method in (ev.gradient, ev.curvature):
        assert type(method(1e-6)) is float
        if name == "sphere-plate":
            continue
        x = np.linspace(0.5e-6, 7.5e-6, 200)
        got = method(x)
        assert got.shape == x.shape
        # array powers of the background gap may differ from scalar ones in the last bit
        np.testing.assert_allclose(got, [method(v) for v in x], rtol=1e-15, atol=0.0)


class TestDerivative:
    def test_inverse_distance_curvature(self):
        res = derivative(lambda x: 215.0 / x, 1.0, order=2)
        assert res.value == pytest.approx(430.0, rel=1e-6)
        assert not res.flagged

    def test_constant_is_zero(self):
        for order in (1, 2):
            res = derivative(lambda x: 3.5, 2.0, order=order)
            assert res.value == 0.0
            assert not res.flagged

    def test_power_law_within_error_estimate(self):
        for order, exact in ((1, 3.0 * 2.0**2), (2, 6.0 * 2.0)):
            res = derivative(lambda x: x**3, 2.0, order=order)
            assert abs(res.value - exact) <= res.error + 1e-9 * abs(exact)

    def test_kinked_function_flagged(self):
        f = lambda x: x * x if x < 1.0 else 2.0 * x * x
        assert derivative(f, 1.0, order=1).flagged

    def test_order_validation(self):
        with pytest.raises(ValueError):
            derivative(lambda x: x, 1.0, order=3)

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_x_rejected(self, x):
        def never_called(t):
            raise AssertionError("no evaluation at a non-finite x")

        with pytest.raises(ValueError, match=f"finite x, got x = {x}"):
            derivative(never_called, x, order=1)

    def test_total_slope_near_reference_point(self, geometry):
        # electrostatic 215/d plus the gold dispersion force: slope at
        # 0.62 um should be near 1000 udyne/um (loose anchor, 25%)
        bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * 1e-6)
        total = cf.TotalForceEvaluator(bg, SpherePlateForce(cf.GOLD_DRUDE, geometry))
        slope = abs(total.gradient(0.62e-6)) / (UDYNE / 1e-6)
        assert slope == pytest.approx(1000.0, rel=0.25)


_XI = np.geomspace(1e-3, 1e3, 160)
TOWER_MODELS = {
    "perfect": cf.PerfectConductor(),
    "plasma": cf.GOLD_PLASMA,
    "drude": cf.GOLD_DRUDE,
    "tabulated": cf.Tabulated(
        xi_ev=_XI, eps=cf.eps_imag_axis(cf.GOLD_DRUDE, _XI), low_freq=cf.GOLD_DRUDE
    ),
}
TOWER_D = np.geomspace(0.3e-6, 8e-6, 5)


def _tower_case(name, T, **settings):
    """(model, geometry, settings); T = 0 runs in zero-temperature mode."""
    geometry = cf.ExperimentGeometry(temperature=T)
    return TOWER_MODELS[name], geometry, LifshitzSettings(zero_temperature_mode=T == 0.0, **settings)


@pytest.mark.parametrize("T", [0.0, 77.0, 300.0])
@pytest.mark.parametrize("name", list(TOWER_MODELS))
class TestDerivativeTower:
    def test_force_is_sphere_plate_force(self, name, T):
        model, geometry, settings = _tower_case(name, T)
        force = SpherePlateForce(model, geometry, settings)
        for d in TOWER_D:
            assert force(d) == sphere_plate_force(model, d, geometry, settings)

    def test_gradient_is_pressure(self, name, T):
        model, geometry, settings = _tower_case(name, T)
        force = SpherePlateForce(model, geometry, settings)
        radius = geometry.sphere_radius
        for d in TOWER_D:
            assert force.gradient(d) == -2.0 * math.pi * radius * plate_pressure(model, d, T, settings)

    def test_curvature_matches_richardson_of_gradient(self, name, T):
        model, geometry, settings = _tower_case(name, T)
        force = SpherePlateForce(model, geometry, settings)
        # For Drude-like models the T = 0 frequency integral (128 nodes) is
        # ~2e-4 from the 64-node value for E, P and dP/dd alike, so P and
        # dP/dd are each about that far from exact and from each other.
        rel = 1e-3 if T == 0.0 and name in ("drude", "tabulated") else 1e-6
        for d in TOWER_D:
            reference = derivative(force.gradient, d, order=1).value
            assert force.curvature(d) == pytest.approx(reference, rel=rel)


@pytest.mark.parametrize("T", [77.0, 300.0])
@pytest.mark.parametrize("name", list(TOWER_MODELS))
def test_unconverged_pressure_and_slope_raise(name, T):
    model, geometry, settings = _tower_case(name, T, quad_rel_tol=1e-16)
    force = SpherePlateForce(model, geometry, settings)
    with pytest.raises(ConvergenceError):
        plate_pressure(model, 1e-6, T, settings)
    with pytest.raises(ConvergenceError):
        force.gradient(1e-6)
    with pytest.raises(ConvergenceError):
        force.curvature(1e-6)


def test_tower_shares_one_pass_per_separation(geometry, monkeypatch):
    import casfluct.lifshitz as lif

    passes = []
    real = lif._plate_kernels

    def counting(model, ds, *args):
        passes.extend(ds)
        return real(model, ds, *args)

    monkeypatch.setattr(lif, "_plate_kernels", counting)
    force = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    for d in (1e-6, 1e-6, 2e-6, 2e-6):
        force(d), force.gradient(d), force.curvature(d)
    assert passes == [1e-6, 2e-6]


def test_tower_checks_pfa(geometry):
    g = cf.ExperimentGeometry(sphere_radius=1e-4, temperature=300.0)
    force = SpherePlateForce(cf.PerfectConductor(), g)
    with pytest.raises(PFAValidityError):
        force.curvature(2e-5)
    with pytest.raises(cf.DomainError):
        SpherePlateForce(cf.GOLD_DRUDE, geometry).gradient(0.0)


# Exact E, P and dP/dd (J/m^2, Pa, Pa/m) recorded when every Matsubara term
# was its own k-integral call; batching the sum must not move a bit.  The
# plasma 300 K energies carry the n = 0 TE term of the exp-sinh rule.
PINNED_TOWERS = {
    ("perfect", 0.0, 4e-07): (-6.771488398165381e-09, 0.05078616298624037, -507861.62986240373),
    ("perfect", 0.0, 1.3e-06): (-1.9725774123012488e-10, 0.0004552101720695189, -1400.6466832908275),
    ("perfect", 0.0, 6e-06): (-2.0063669327897427e-12, 1.0031834663948712e-06, -0.6687889775965808),
    ("perfect", 300.0, 4e-07): (-6.78427211192357e-09, 0.050788205677880664, -507861.62949617393),
    ("perfect", 300.0, 1.3e-06): (-2.0820299158159913e-10, 0.00045725286227961057, -1400.6473694480458),
    ("perfect", 300.0, 6e-06): (-5.5079529666478134e-12, 1.8436230345212983e-06, -0.934390279761074),
    ("plasma", 0.0, 4e-07): (-5.537029744690154e-09, 0.03897343173956338, -366442.3627610016),
    ("plasma", 0.0, 1.3e-06): (-1.847186701808123e-10, 0.00041719018393262635, -1256.5334969733358),
    ("plasma", 0.0, 6e-06): (-1.9774218860280347e-12, 9.839496142823843e-07, -0.6528129501268014),
    ("plasma", 300.0, 4e-07): (-5.551124365579016e-09, 0.038979202252698034, -366461.0015940573),
    ("plasma", 300.0, 1.3e-06): (-1.959427770669703e-10, 0.00041958576417097275, -1257.077555592463),
    ("plasma", 300.0, 6e-06): (-5.4678139947766264e-12, 1.8231480280456827e-06, -0.9200105669890213),
    ("drude", 0.0, 4e-07): (-5.437019635502313e-09, 0.03826484842784144, -359850.4614646171),
    ("drude", 0.0, 1.3e-06): (-1.81677145066079e-10, 0.0004099585158375365, -1234.071357065892),
    ("drude", 0.0, 6e-06): (-1.953614498042731e-12, 9.710073910760675e-07, -0.6436822748406225),
    ("drude", 300.0, 4e-07): (-5.00336941194449e-09, 0.03635618860882283, -347558.08849682746),
    ("drude", 300.0, 1.3e-06): (-1.4040996259401373e-10, 0.00033581702904674545, -1067.0444147566975),
    ("drude", 300.0, 6e-06): (-2.7561368678581535e-12, 9.257607064364518e-07, -0.4744848629640833),
    ("tabulated", 0.0, 4e-07): (-5.436994275811651e-09, 0.038264690189394844, -359849.4019143753),
    ("tabulated", 0.0, 1.3e-06): (-1.8167637540100992e-10, 0.00040995658251753334, -1234.0651084907354),
    ("tabulated", 0.0, 6e-06): (-1.9536115507459827e-12, 9.710054707159176e-07, -0.6436807398025864),
    ("tabulated", 300.0, 4e-07): (-5.003343320983771e-09, 0.036356014784003056, -347556.78474609536),
    ("tabulated", 300.0, 1.3e-06): (-1.404094736322151e-10, 0.0003358155084424956, -1067.038925533839),
    ("tabulated", 300.0, 6e-06): (-2.7561368426970233e-12, 9.257606603728061e-07, -0.4744847777770834),
}


@pytest.mark.parametrize("key", list(PINNED_TOWERS), ids=lambda k: f"{k[0]}-{k[1]:g}K-{k[2]:g}m")
def test_pinned_values_are_bit_identical(key):
    name, T, d = key
    model = TOWER_MODELS[name]
    energy, pressure, slope = PINNED_TOWERS[key]
    assert plate_tower(model, d, T) == (energy, pressure, slope)
    assert plate_energy(model, d, T) == energy
    assert plate_pressure(model, d, T) == pressure


# Partial sums at d = 0.5 um, 300 K when the series is cut at 3 terms: the
# first pending kernel's (energy for the tower), scaled.
PINNED_MAX_TERMS_3 = {
    ("perfect", "plate_energy"): -4.620957862631257,
    ("perfect", "plate_pressure"): 12.264613040995654,
    ("perfect", "plate_tower"): -4.620957862631257,
    ("plasma", "plate_energy"): -4.031178345702794,
    ("plasma", "plate_pressure"): 10.341750387030311,
    ("plasma", "plate_tower"): -4.031178345702794,
    ("drude", "plate_energy"): -3.493582703821733,
    ("drude", "plate_pressure"): 9.317009126139176,
    ("drude", "plate_tower"): -3.493582703821733,
    ("tabulated", "plate_energy"): -3.493562215497278,
    ("tabulated", "plate_pressure"): 9.316947191995077,
    ("tabulated", "plate_tower"): -3.493562215497278,
}


@pytest.mark.parametrize("key", list(PINNED_MAX_TERMS_3), ids="-".join)
def test_matsubara_max_terms_still_raises(key):
    name, func = key
    settings = LifshitzSettings(matsubara_max_terms=3)
    evaluate = {"plate_energy": plate_energy, "plate_pressure": plate_pressure, "plate_tower": plate_tower}[func]
    with pytest.raises(ConvergenceError, match="within 3 terms") as err:
        evaluate(TOWER_MODELS[name], 0.5e-6, 300.0, settings)
    assert err.value.terms == 3
    assert err.value.partial_sum == PINNED_MAX_TERMS_3[key]


# The pressure k-integral of the first term the sum consumes (n = 1; the
# n = 0 TE term for plasma) at d = 0.5 um, 300 K: with quad_rel_tol = 1e-16
# no order agrees with the one before, so the sum stops there.
PINNED_FIRST_UNCONVERGED = {
    "perfect": 9.788559337691146,
    "plasma": 1.8687383851406842,
    "drude": 8.355525236729608,
    "tabulated": 8.355445069859828,
}


@pytest.mark.parametrize("name", list(PINNED_FIRST_UNCONVERGED))
def test_unconverged_k_integral_raises_at_first_consumed_term(name):
    settings = LifshitzSettings(quad_rel_tol=1e-16)
    model = TOWER_MODELS[name]
    for evaluate in (plate_pressure, plate_tower):
        with pytest.raises(ConvergenceError, match="pressure k-integral") as err:
            evaluate(model, 0.5e-6, 300.0, settings)
        assert err.value.terms == 256
        assert err.value.partial_sum == PINNED_FIRST_UNCONVERGED[name]
    plate_energy(model, 0.5e-6, 300.0, settings)  # the energy kernel never raises


def _reference_plate(model, d, T):
    """E (J/m^2) and P (Pa) by adaptive quadrature over k and a plain Matsubara loop.

    Shares nothing with the engine but the material parameters: the
    integrals run over u = k d in [0, inf) with ``quad``, the reflection
    coefficients and eps(i xi) are written out here, and the series is
    summed term by term until a term is below 1e-12 of the sum.
    """
    xi1 = 2.0 * math.pi * KB * T / HBAR

    def reflections(n, u):
        """Squared TM and TE reflection coefficients at xi_n and u = k d."""
        if isinstance(model, cf.PerfectConductor):
            return 1.0, 1.0
        omega_p = model.omega_p_ev * EV / HBAR
        if n == 0:
            if isinstance(model, cf.Drude):
                return 1.0, 0.0
            q_m = math.sqrt(u * u + (omega_p * d / C) ** 2)
            return 1.0, ((u - q_m) / (u + q_m)) ** 2
        xi = n * xi1
        gamma = model.gamma_ev * EV / HBAR if isinstance(model, cf.Drude) else 0.0
        eps = 1.0 + omega_p**2 / (xi * (xi + gamma))
        q = math.sqrt(u * u + (xi * d / C) ** 2)
        q_m = math.sqrt(u * u + eps * (xi * d / C) ** 2)
        return ((eps * q - q_m) / (eps * q + q_m)) ** 2, ((q - q_m) / (q + q_m)) ** 2

    def term(n):
        q0 = n * xi1 * d / C

        def energy(u):
            e = math.exp(-2.0 * math.sqrt(u * u + q0 * q0))
            return u * sum(math.log1p(-r2 * e) for r2 in reflections(n, u))

        def pressure(u):
            q = math.sqrt(u * u + q0 * q0)
            e = math.exp(-2.0 * q)
            return u * q * sum(r2 * e / (1.0 - r2 * e) for r2 in reflections(n, u))

        return [quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0] for f in (energy, pressure)]

    sums = [0.5 * v for v in term(0)]
    n = 0
    while True:
        n += 1
        values = term(n)
        sums = [s + v for s, v in zip(sums, values)]
        if all(abs(v) <= 1e-12 * abs(s) for v, s in zip(values, sums)):
            break
    return KB * T / (2.0 * math.pi * d * d) * sums[0], KB * T / (math.pi * d**3) * sums[1]


@pytest.mark.parametrize("T", [77.0, 300.0])
@pytest.mark.parametrize("name", ["perfect", "plasma", "drude"])
def test_engine_matches_independent_reference(name, T):
    model = TOWER_MODELS[name]
    for d in (0.5e-6, 1.5e-6, 4e-6):
        energy, pressure = _reference_plate(model, d, T)
        assert plate_energy(model, d, T) == pytest.approx(energy, rel=1e-7)
        assert plate_pressure(model, d, T) == pytest.approx(pressure, rel=1e-7)


@pytest.mark.parametrize("block_max", [1, 3])
def test_block_size_does_not_move_a_bit(block_max, monkeypatch):
    import casfluct.lifshitz as lif

    cases = [(TOWER_MODELS[name], d, T) for name in TOWER_MODELS for d in (0.4e-6, 3e-6) for T in (77.0, 300.0)]
    batched = [plate_tower(*case) for case in cases]
    monkeypatch.setattr(lif, "_BLOCK_MAX", block_max)
    assert [plate_tower(*case) for case in cases] == batched


# --------------------------------------------------------------------------
# a grid of separations in one pass


def _recording_inner_rows(monkeypatch):
    """Patch ``_inner_rows`` to record the ``a`` array of every call."""
    import casfluct.lifshitz as lif

    calls = []
    real = lif._inner_rows

    def recording(a, *args):
        calls.append(a.copy())
        return real(a, *args)

    monkeypatch.setattr(lif, "_inner_rows", recording)
    return calls


def test_curve_shares_inner_rows_calls(monkeypatch):
    """The count gate: an 80-point Drude curve takes 13 _inner_rows calls, not one per d (87)."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("force_curve must not start a thread pool")

    calls = _recording_inner_rows(monkeypatch)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", no_pool)
    geometry = cf.ExperimentGeometry(temperature=300.0)
    force_curve(cf.GOLD_DRUDE, geometry, np.geomspace(0.3e-6, 8e-6, 80))
    sizes = [a.size for a in calls]
    assert len(sizes) == 13
    assert sum(sizes) == 1414  # the rows evaluated with one call per block per d
    assert max(sizes) <= lifshitz._BLOCK_MAX


GRID_D = np.geomspace(0.3e-6, 8e-6, 30)
_SCALAR = {("energy",): plate_energy, ("pressure",): plate_pressure, lifshitz._TOWER: plate_tower}


@pytest.mark.parametrize("T", [77.0, 300.0])
@pytest.mark.parametrize("name", list(TOWER_MODELS))
def test_grid_equals_scalar_bit_for_bit(name, T, monkeypatch):
    model = TOWER_MODELS[name]
    calls = _recording_inner_rows(monkeypatch)
    for kinds, scalar in _SCALAR.items():
        for grid in (GRID_D[:1], GRID_D):
            calls.clear()
            values = lifshitz._plate_kernels(model, grid, T, kinds, None)
            want = [scalar(model, d, T) for d in grid]
            if len(kinds) == 1:
                want = [[v] for v in want]
            assert values == [list(v) for v in want]
    # the tower pass over GRID_D stacked the first blocks of several d into
    # more than one call, and some d needed a later block of its own
    assert sum(bool(np.any(np.diff(a) < 0)) for a in calls) >= 2
    assert any(a[0] > lifshitz._BLOCK_A for a in calls)


def _raised(call) -> tuple:
    with pytest.raises(ConvergenceError) as err:
        call()
    return str(err.value), err.value.partial_sum, err.value.terms


@pytest.mark.parametrize("kinds", list(_SCALAR), ids="-".join)
@pytest.mark.parametrize("name", list(TOWER_MODELS))
def test_grid_raises_first_failing_d_like_scalar(name, kinds):
    model = TOWER_MODELS[name]
    settings = LifshitzSettings(matsubara_max_terms=3)
    scalar = _SCALAR[kinds]
    scalar(model, 8e-6, 300.0, settings)  # converges within 3 terms
    grid = [8e-6, 0.5e-6, 1e-6]
    got = _raised(lambda: lifshitz._plate_kernels(model, grid, 300.0, kinds, settings))
    assert got == _raised(lambda: scalar(model, 0.5e-6, 300.0, settings))
    assert got != _raised(lambda: scalar(model, 1e-6, 300.0, settings))


def test_unconverged_pressure_inside_tower_grid():
    # plate_pressure(GOLD_DRUDE, 0.1 um, 77 K) fails its k-integral at order 256
    geometry = cf.ExperimentGeometry(temperature=77.0)
    want = _raised(lambda: plate_tower(cf.GOLD_DRUDE, 0.1e-6, 77.0))
    assert want != _raised(lambda: plate_tower(cf.GOLD_DRUDE, 0.12e-6, 77.0))
    force = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    assert _raised(lambda: force.preload([0.3e-6, 0.1e-6, 0.12e-6])) == want
    grid = GRID_D[::-1].tolist() + [0.1e-6, 0.12e-6]
    assert _raised(lambda: lifshitz._plate_kernels(cf.GOLD_DRUDE, grid, 77.0, lifshitz._TOWER, None)) == want


def _no_sums(monkeypatch):
    import casfluct.lifshitz as lif

    monkeypatch.setattr(lif, "_inner_rows", lambda *a: pytest.fail("summed before the grid was checked"))


def test_grid_checked_in_full_before_first_sum(monkeypatch):
    # 0.5 um does not converge within 3 terms, but the last d fails the PFA check
    geometry = cf.ExperimentGeometry(sphere_radius=1e-5, temperature=300.0)
    settings = LifshitzSettings(matsubara_max_terms=3)
    with pytest.raises(ConvergenceError):
        plate_energy(cf.GOLD_DRUDE, 0.5e-6, 300.0, settings)
    _no_sums(monkeypatch)
    with pytest.warns(UserWarning, match="degraded"), pytest.raises(PFAValidityError):
        sphere_plate_force(cf.GOLD_DRUDE, np.array([0.5e-6, 2e-6]), geometry, settings)


def test_tower_grid_ending_at_zero_raises_before_any_sum(monkeypatch):
    _no_sums(monkeypatch)
    with pytest.raises(cf.DomainError, match="separation must be > 0"):
        lifshitz._plate_kernels(cf.GOLD_DRUDE, [1e-6, 2e-6, 0.0], 300.0, lifshitz._TOWER, None)


def _with_warnings(call) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return value, [(w.category, str(w.message)) for w in caught]


def test_grid_warns_like_points():
    geometry = cf.ExperimentGeometry(sphere_radius=1e-3, temperature=300.0)
    grid = np.geomspace(0.5e-6, 8e-6, 6)
    points, want = _with_warnings(lambda: [sphere_plate_force(cf.GOLD_DRUDE, d, geometry) for d in grid])
    assert len(want) == 4  # one per d with d/R > 1e-3
    forces, got = _with_warnings(lambda: sphere_plate_force(cf.GOLD_DRUDE, grid, geometry))
    assert got == want and forces.tolist() == points
    curve, got = _with_warnings(lambda: force_curve(cf.GOLD_DRUDE, geometry, grid))
    assert got == want and curve.force_N.tolist() == points
    force = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    _, got = _with_warnings(lambda: force.preload(grid))
    assert got == want


def test_preloaded_towers_equal_fresh_passes(geometry, monkeypatch):
    import casfluct.lifshitz as lif

    grid = np.geomspace(0.6e-6, 6e-6, 25)
    force = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    force.preload(grid)
    monkeypatch.setattr(lif, "_plate_kernels", lambda *a: pytest.fail("preloaded d summed again"))
    got = [(force(d), force.gradient(d), force.curvature(d)) for d in grid]
    monkeypatch.undo()
    fresh = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    assert got == [(fresh(d), fresh.gradient(d), fresh.curvature(d)) for d in grid]
