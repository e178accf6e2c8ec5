import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_laguerre, zeta

import casfluct as cf
from casfluct import lifshitz
from casfluct.lifshitz import (
    ConvergenceError,
    PFAValidityError,
    SpherePlateForce,
    TabulatedForceCurve,
    derivative,
    force_curve,
    plate_energy,
    plate_pressure,
    sphere_plate_force,
)

HBAR = 1.054571817e-34
C = 299792458.0
KB = 1.380649e-23
ZETA3 = 1.2020569031595942
EV = 1.602176634e-19
UDYNE = 1e-11



def plate_tower(model, d, T) -> tuple:
    """E (J/m^2), P (Pa) and dP/dd (Pa/m) at one d, from one tower pass of the engine."""
    return tuple(lifshitz._plate_kernels(model, (d,), T, lifshitz._TOWER)[0])


# Frozen closed forms (independent of the Matsubara machinery):
IDEAL_T0_PRESSURE_1UM = math.pi**2 * HBAR * C / (240.0 * (1e-6) ** 4)  # 1.30013e-3 Pa
PFA_FD3 = math.pi**3 * HBAR * C * 0.124 / 360.0  # 3.37649e-28 N m^3


def test_numerical_controls():
    assert lifshitz._MATSUBARA_REL_TOL == 1e-9
    assert lifshitz._MATSUBARA_MAX_TERMS == 5000
    assert lifshitz._QUAD_REL_TOL == 1e-8


class TestClosedFormLimits:
    def test_ideal_zero_temperature_pressure(self):
        p = plate_pressure(cf.PerfectConductor(), 1e-6, 0.0)
        assert p == pytest.approx(IDEAL_T0_PRESSURE_1UM, rel=1e-6)

    def test_ideal_zero_temperature_energy(self):
        e = plate_energy(cf.PerfectConductor(), 1e-6, 0.0)
        want = -math.pi**2 * HBAR * C / (720.0 * (1e-6) ** 3)
        assert e == pytest.approx(want, rel=1e-6)

    def test_power_law_exact(self):
        vals = [
            plate_pressure(cf.PerfectConductor(), d, 0.0) * d**4
            for d in (0.5e-6, 1e-6, 2e-6)
        ]
        assert max(vals) / min(vals) - 1 < 1e-3  # < 0.1%

    def test_classical_limit_ideal(self):
        d = 50e-6
        p = plate_pressure(cf.PerfectConductor(), d, 300.0)
        assert p == pytest.approx(ZETA3 * KB * 300.0 / (4.0 * math.pi * d**3), rel=1e-9)

    def test_zero_temperature_integral_near_perfect_plasma(self):
        # The perfect mirror's T = 0 values are closed forms, so anchor the
        # T = 0 integral with a plasma metal of skin depth delta << d: E, P and
        # dP/dd approach the mirror's closed forms as 1 - c*delta/d with
        # c = 4, 16/3 and 20/3 (E ~ d^-3 (1 - 4 delta/d), differentiated).
        d, omega_p_ev = 1e-6, 1e4
        delta = HBAR * C / (omega_p_ev * 1.602176634e-19)
        plasma = plate_tower(cf.Plasma(omega_p_ev), d, 0.0)
        mirror = plate_tower(cf.PerfectConductor(), d, 0.0)
        for got, ideal, c in zip(plasma, mirror, (4.0, 16.0 / 3.0, 20.0 / 3.0)):
            assert got / ideal == pytest.approx(1.0 - c * delta / d, abs=1e-7)

    def test_classical_limit_ideal_slope(self):
        d = 50e-6
        slope = plate_tower(cf.PerfectConductor(), d, 300.0)[2]
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
    def test_pfa_constant(self, geometry_t0):
        for d in (0.5e-6, 1e-6, 3e-6):
            f = sphere_plate_force(cf.PerfectConductor(), d, geometry_t0)
            assert f * d**3 == pytest.approx(PFA_FD3, rel=5e-3)

    def test_pfa_example_value(self, geometry_t0):
        f = sphere_plate_force(cf.PerfectConductor(), 1e-6, geometry_t0)
        assert f / UDYNE == pytest.approx(33.76, rel=5e-3)

    def test_linear_in_radius(self):
        g1 = cf.ExperimentGeometry(sphere_radius=0.124, temperature=0.0)
        g2 = cf.ExperimentGeometry(sphere_radius=0.248, temperature=0.0)
        f1 = sphere_plate_force(cf.PerfectConductor(), 1e-6, g1)
        f2 = sphere_plate_force(cf.PerfectConductor(), 1e-6, g2)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    def test_model_ordering(self, geometry):
        for d_um in (0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 80.0):
            d = d_um * 1e-6
            f_d = sphere_plate_force(cf.GOLD_DRUDE, d, geometry)
            f_p = sphere_plate_force(cf.GOLD_PLASMA, d, geometry)
            f_pc = sphere_plate_force(cf.PerfectConductor(), d, geometry)
            assert f_d <= f_p <= f_pc

    def test_plasma_drude_gap_tends_to_the_n0_te_term(self, geometry):
        # far apart, plasma and Drude differ by the n = 0 TE term alone: zeta(3) k_B T R / (8 d^2)
        d = np.array([6e-6, 10e-6, 20e-6, 40e-6, 80e-6])
        gap = sphere_plate_force(cf.GOLD_PLASMA, d, geometry) - sphere_plate_force(cf.GOLD_DRUDE, d, geometry)
        ratio = gap * d**2 / (ZETA3 * KB * geometry.temperature * geometry.sphere_radius / 8.0)
        assert np.all(np.diff(ratio) > 0) and np.all(ratio < 1.0)
        assert np.all(np.abs(ratio[1:] - 1.0) < 0.01)  # d >= 10 um

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


MODELS_BY_STRENGTH = (cf.GOLD_DRUDE, cf.GOLD_PLASMA, cf.PerfectConductor())


# d T >= 10 um K keeps every Matsubara series within its 5,000 terms
@settings(max_examples=10, deadline=None)
@given(d_um=st.floats(0.2, 50.0), T=st.floats(50.0, 1000.0))
def test_model_ordering_over_d_and_t(d_um, T):
    geometry = cf.ExperimentGeometry(temperature=T)
    f_d, f_p, f_pc = (sphere_plate_force(model, d_um * 1e-6, geometry) for model in MODELS_BY_STRENGTH)
    assert 0.0 < f_d <= f_p <= f_pc


@settings(max_examples=10, deadline=None)
@given(d_um=st.floats(0.2, 30.0), ratio=st.floats(1.001, 3.0), T=st.floats(50.0, 1000.0))
def test_force_decays_in_d(d_um, ratio, T):
    geometry = cf.ExperimentGeometry(temperature=T)
    for model in MODELS_BY_STRENGTH:
        near, far = sphere_plate_force(model, np.array([d_um, d_um * ratio]) * 1e-6, geometry)
        assert near > far > 0.0


@settings(max_examples=15, deadline=None)
@given(d_um=st.floats(2.0, 80.0), T=st.floats(1000.0, 5000.0))
def test_plasma_is_twice_drude_at_high_temperature(d_um, T):
    # with a_1 = 4 pi k_B T d / (hbar c) >= 11 only the n = 0 terms are left: TM alike for
    # both, and the plasma TE term -zeta(3) (1 - 8/b) with b = 2 d omega_p / c, so
    # F_plasma / F_Drude = 2 - 8/b + O(1/b^2)
    geometry = cf.ExperimentGeometry(temperature=T)
    d = d_um * 1e-6
    b = 2.0 * d * (cf.GOLD_PLASMA.omega_p_ev * EV / HBAR) / C
    ratio = sphere_plate_force(cf.GOLD_PLASMA, d, geometry) / sphere_plate_force(cf.GOLD_DRUDE, d, geometry)
    assert abs((2.0 - ratio) * b - 8.0) < 60.0 / b


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


def _scalar_n0_te_energy(b: float) -> float:
    """The fine step of the n = 0 TE rule for one b, as 1-D arrays: the reference of the batched rule."""
    t = lifshitz._N0_TE_T
    y = np.exp(0.5 * math.pi * np.sinh(t))
    s = np.sqrt(y * y + b * b)
    z = 4.0 * np.log1p(-(y + y * y / (s + b)) / (y + s)) - y
    q = np.exp(z)
    log_1mq = np.where(q > 0.5, np.log(-np.expm1(z)), np.log1p(-np.minimum(q, 0.5)))
    f = y * log_1mq * (0.5 * math.pi * np.cosh(t) * y)
    return float(t[1] - t[0]) * math.fsum(f)


@pytest.mark.parametrize("omega_p_ev", [1.0, 9.0, 30.0])
def test_batched_n0_te_energy_equals_the_scalar_rule(omega_p_ev):
    b = 2.0 * np.geomspace(0.05e-6, 50e-6, 13) * (omega_p_ev * EV / HBAR) / C
    want = [_scalar_n0_te_energy(v) for v in b.tolist()]
    assert lifshitz._n0_te_energy(b) == want
    assert [lifshitz._n0_te_energy(v) for v in b.tolist()] == want


def test_plasma_n0_grid_raises_what_its_first_failing_d_raises(monkeypatch):
    """Within a d its energy rule fails before its Laguerre terms, and an earlier d before a later one."""
    ds, flagged = [1e-6, 3e-6], []
    real = lifshitz._inner_rows

    def flagging(a, *args):
        vals, bad = real(a, *args)
        bad = bad.copy()
        bad[flagged] = True  # the only call here is the n = 0 one, a row per d
        return vals, bad

    monkeypatch.setattr(lifshitz, "_inner_rows", flagging)
    # 49 nodes against 25 at 1e-5: the rule of 1 um passes (1.7e-6 apart), that of 3 um fails (1.7e-5)
    monkeypatch.setattr(lifshitz, "_N0_TE_T", np.linspace(-3.5, 2.5, 49))
    monkeypatch.setattr(lifshitz, "_N0_TE_REL_TOL", 1e-5)

    def raised(rows):
        flagged[:] = rows
        with pytest.raises(ConvergenceError) as err:
            lifshitz._n0_scaled(cf.GOLD_PLASMA, ds, lifshitz._TOWER)
        return str(err.value)

    b_far = 2.0 * ds[1] * (cf.GOLD_PLASMA.omega_p_ev * EV / HBAR) / C
    assert f"n = 0 TE energy integral did not converge (b = {b_far:g})" in raised([])
    assert raised([1]) == raised([])
    assert raised([0]).startswith("pressure k-integral did not converge")
    flagged.clear()
    lifshitz._n0_scaled(cf.GOLD_PLASMA, ds, ("pressure", "slope"))  # the energy rule alone failed


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


def test_matsubara_non_convergence_carries_partial_sum(monkeypatch):
    monkeypatch.setattr(lifshitz, "_MATSUBARA_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError) as err:
        plate_pressure(cf.GOLD_DRUDE, 0.5e-6, 300.0)
    assert err.value.terms == 3
    assert err.value.partial_sum > 0


@pytest.mark.parametrize("T", [0.0, 300.0])
@pytest.mark.parametrize("d", [1e-6, 1e-3])  # at 1 mm and 300 K only the n = 0 term survives
def test_unknown_model_one_error(d, T):
    with pytest.raises(cf.UnsupportedModelError, match="unknown material model"):
        plate_energy(object(), d, T)


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

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            cf.ForceCurve(np.array([2e-6, 1e-6]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            cf.ForceCurve(np.array([1e-6, 2e-6]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="must be attractive"):
            cf.ForceCurve(np.array([1e-6, 2e-6]), np.array([1.0, 0.0]))

    def test_tabulated_evaluator_domain(self):
        d = np.linspace(1.0, 2.0, 8)
        ev = TabulatedForceCurve(d, 1.0 / d)
        with pytest.raises(cf.DomainError):
            ev(0.5)
        with pytest.raises(cf.DomainError):
            ev(np.array([1.2, 2.5]))
        # a NaN separation is named, never evaluated
        for method in (ev, ev.gradient, ev.curvature):
            for bad in (math.nan, np.array([1.5, math.nan, 1.2])):
                with pytest.raises(cf.DomainError, match="separation nan outside"):
                    method(bad)

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


_KNOT_SETS = {
    # the span simulate builds at its defaults: d +- 10 delta, d = 1 um, delta = 0.1 um
    "simulate-geomspace": np.geomspace(0.1e-6, 2.0e-6, 80),
    "uniform": np.linspace(0.5e-6, 6.5e-6, 40),
    # widths from 1e-15 m to ~3e-7 m: the first bucket holds many knots
    "uneven": 1e-6 * (0.5 + np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 40)])),
}


@pytest.mark.parametrize("name", list(_KNOT_SETS))
def test_tabulated_spline_equals_cubic_spline_bit_for_bit(name):
    from scipy.interpolate import CubicSpline

    knots = _KNOT_SETS[name]
    force = PFA_FD3 / knots**3 * (1.0 + 0.1 * np.sin(knots * 3e6))
    curve = TabulatedForceCurve(knots, force)
    if name == "uneven":
        assert curve._steps > 1  # the bucket correction runs more than one step
    reference = CubicSpline(knots, force)
    rng = np.random.default_rng(7)
    widths = np.diff(knots)
    x = np.concatenate([
        rng.uniform(knots[0], knots[-1], 100_000),
        knots,
        knots[:-1] + rng.random(len(widths)) * widths,  # one point inside every interval
        [knots[0], knots[-1]],
    ])
    pairs = ((curve, reference), (curve.gradient, reference.derivative(1)),
             (curve.curvature, reference.derivative(2)))
    for method, ref in pairs:
        assert np.array_equal(method(x), ref(x))
        grid = x[:100_000].reshape(400, 250).T  # any shape and memory layout
        assert np.array_equal(method(grid), ref(grid))
        for v in (knots[0], knots[len(knots) // 2], 0.5 * (knots[1] + knots[2]), knots[-1]):
            got = method(float(v))
            assert type(got) is float
            assert got == float(ref(v))


def test_spline_call_longer_than_three_blocks_is_one_pass():
    """A call on more than 3 * oracle._BLOCK points, the knots and d_max among
    them, equals CubicSpline and its derivatives bit for bit, and so does each
    block of it that the time average evaluates on its own."""
    from scipy.interpolate import CubicSpline

    from casfluct.oracle import _BLOCK

    knots = _KNOT_SETS["simulate-geomspace"]
    force = PFA_FD3 / knots**3
    curve, reference = TabulatedForceCurve(knots, force), CubicSpline(knots, force)
    rng = np.random.default_rng(5)
    # 3 * _BLOCK + 88 points: the knots, d_max more times, and random points, shuffled
    x = rng.permutation(np.concatenate([rng.uniform(knots[0], knots[-1], 3 * _BLOCK), knots, [knots[-1]] * 8]))
    pairs = ((curve, reference), (curve.gradient, reference.derivative(1)),
             (curve.curvature, reference.derivative(2)))
    for method, ref in pairs:
        got = method(x)
        assert np.array_equal(got.view(np.int64), ref(x).view(np.int64))
        blocks = [method(x[a : a + _BLOCK]) for a in range(0, x.size, _BLOCK)]
        assert np.array_equal(np.concatenate(blocks).view(np.int64), got.view(np.int64))
        grid = x.reshape(8, -1).T  # 2-D, not C-contiguous
        assert np.array_equal(method(grid).view(np.int64), ref(grid).view(np.int64))


def _random_knot_sets(count, seed=11):
    """Seeded (knots, values) pairs, n >= 4, on the grids a spline meets and on worse ones."""
    rng = np.random.default_rng(seed)
    # dx[2] > dx[0] + dx[1]: dgtsv interchanges rows 2 and 3
    yield np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 13.5]), np.array([5.0, 4.0, 4.0, -1.0, 0.0, 0.0, 2.0])
    for k in range(count):
        n = int(rng.integers(4, 300))
        kind = k % 4
        if kind == 0:
            x = np.geomspace(rng.uniform(1e-8, 1e-6), rng.uniform(2e-6, 1e-4), n)
        elif kind == 1:
            x = np.linspace(rng.uniform(-5.0, 0.0), rng.uniform(1.0, 5.0), n)
        elif kind == 2:  # random knots: most sets reach the interchange branch
            x = np.unique(rng.uniform(0.0, 1.0, n))
        else:  # widths over many decades
            x = np.cumsum(rng.exponential(1.0, n) ** 3 + 1e-12)
        y = rng.normal(size=len(x)) * 10.0 ** rng.uniform(-30, 5)
        if k % 5 == 0:
            y[rng.integers(0, len(x) - 1, 3)] = 0.0  # zero chords: the signs of zero must agree
        yield x, y


def test_spline_build_equals_cubic_spline_bit_for_bit():
    """The numpy build gives CubicSpline's coefficients and those of its
    derivative(1) and derivative(2), every bit, signs of zero included."""
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(3)
    for x, y in _random_knot_sets(300):
        curve = TabulatedForceCurve(x, y)
        reference = CubicSpline(x, y)
        points = np.concatenate([x, rng.uniform(x[0], x[-1], 50)])
        pairs = ((curve, reference), (curve.gradient, reference.derivative(1)),
                 (curve.curvature, reference.derivative(2)))
        for rows, (method, ref) in zip(curve._rows, pairs):
            want = (ref.c[-1] + 0.0, *ref.c[-2::-1])
            assert len(rows) == len(want)
            for got, expected in zip(rows, want):
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            assert np.array_equal(method(points).view(np.int64), ref(points).view(np.int64))


@pytest.mark.parametrize(
    "d, f, match",
    [
        ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], "at least 4"),
        ([1.0, 2.0, 3.0, 4.0], [3.0, 2.0, 1.0], "equal length"),
        ([1.0, 2.0, 3.0, math.nan], [4.0, 3.0, 2.0, 1.0], "finite"),
        ([1.0, 2.0, 3.0, 4.0], [4.0, math.inf, 2.0, 1.0], "finite"),
        ([1.0, 3.0, 2.0, 4.0], [4.0, 3.0, 2.0, 1.0], "strictly ascending"),
    ],
)
def test_spline_rejects_bad_knots(d, f, match):
    with pytest.raises(ValueError, match=match):
        TabulatedForceCurve(d, f)


def _evaluator(name, geometry):
    if name == "sphere-plate":
        return SpherePlateForce(cf.PerfectConductor(), geometry)
    knots = np.geomspace(0.4e-6, 8e-6, 120)
    curve = TabulatedForceCurve(knots, PFA_FD3 / knots**3)
    bg = cf.ElectrostaticBackground(beta=215.0 * UDYNE * 1e-6, d0=0.1e-6)
    return {"tabulated": curve, "background": bg, "total": cf.TotalForceEvaluator(bg, curve)}[name]


@pytest.mark.parametrize("name", ["sphere-plate", "tabulated", "background", "total"])
def test_evaluator_protocol(name, geometry):
    """Every evaluator the CLI builds carries F' and F'' and takes an array of d."""
    ev = _evaluator(name, geometry)
    x = np.linspace(0.5e-6, 7.5e-6, 8 if name == "sphere-plate" else 200)
    for method in (ev, ev.gradient, ev.curvature):
        assert type(method(1e-6)) is float
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


def _tower_case(name, T):
    """(model, geometry); T = 0 takes the continuous-frequency integral."""
    return TOWER_MODELS[name], cf.ExperimentGeometry(temperature=T)


@pytest.mark.parametrize("T", [0.0, 77.0, 300.0])
@pytest.mark.parametrize("name", list(TOWER_MODELS))
class TestDerivativeTower:
    def test_force_is_sphere_plate_force(self, name, T):
        model, geometry = _tower_case(name, T)
        force = SpherePlateForce(model, geometry)
        for d in TOWER_D:
            assert force(d) == sphere_plate_force(model, d, geometry)

    def test_gradient_is_pressure(self, name, T):
        model, geometry = _tower_case(name, T)
        force = SpherePlateForce(model, geometry)
        radius = geometry.sphere_radius
        for d in TOWER_D:
            assert force.gradient(d) == -2.0 * math.pi * radius * plate_pressure(model, d, T)

    def test_curvature_matches_richardson_of_gradient(self, name, T):
        model, geometry = _tower_case(name, T)
        force = SpherePlateForce(model, geometry)
        # For Drude-like models the T = 0 frequency integral (128 nodes) is
        # ~2e-4 from the 64-node value for E, P and dP/dd alike, so P and
        # dP/dd are each about that far from exact and from each other.
        rel = 1e-3 if T == 0.0 and name in ("drude", "tabulated") else 1e-6
        for d in TOWER_D:
            reference = derivative(force.gradient, d, order=1).value
            assert force.curvature(d) == pytest.approx(reference, rel=rel)


@pytest.mark.parametrize("T", [77.0, 300.0])
@pytest.mark.parametrize("name", list(TOWER_MODELS))
def test_unconverged_pressure_and_slope_raise(name, T, monkeypatch):
    monkeypatch.setattr(lifshitz, "_QUAD_REL_TOL", 1e-16)
    model, geometry = _tower_case(name, T)
    force = SpherePlateForce(model, geometry)
    with pytest.raises(ConvergenceError):
        plate_pressure(model, 1e-6, T)
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
def test_matsubara_max_terms_still_raises(key, monkeypatch):
    name, func = key
    monkeypatch.setattr(lifshitz, "_MATSUBARA_MAX_TERMS", 3)
    evaluate = {"plate_energy": plate_energy, "plate_pressure": plate_pressure, "plate_tower": plate_tower}[func]
    with pytest.raises(ConvergenceError, match="within 3 terms") as err:
        evaluate(TOWER_MODELS[name], 0.5e-6, 300.0)
    assert err.value.terms == 3
    assert err.value.partial_sum == PINNED_MAX_TERMS_3[key]


# The pressure k-integral of the first term the sum consumes (n = 1; the
# n = 0 TE term for plasma) at d = 0.5 um, 300 K: with _QUAD_REL_TOL = 1e-16
# no order agrees with the one before, so the sum stops there.
PINNED_FIRST_UNCONVERGED = {
    "perfect": 9.788559337691146,
    "plasma": 1.8687383851406842,
    "drude": 8.355525236729608,
    "tabulated": 8.355445069859828,
}


@pytest.mark.parametrize("name", list(PINNED_FIRST_UNCONVERGED))
def test_unconverged_k_integral_raises_at_first_consumed_term(name, monkeypatch):
    monkeypatch.setattr(lifshitz, "_QUAD_REL_TOL", 1e-16)
    model = TOWER_MODELS[name]
    for evaluate in (plate_pressure, plate_tower):
        with pytest.raises(ConvergenceError, match="pressure k-integral") as err:
            evaluate(model, 0.5e-6, 300.0)
        assert err.value.terms == 256
        assert err.value.partial_sum == PINNED_FIRST_UNCONVERGED[name]
    plate_energy(model, 0.5e-6, 300.0)  # the energy kernel never raises


def _reference_plate(model, d, T):
    """E (J/m^2), P (Pa) and dP/dd (Pa/m) by adaptive quadrature over k and a plain Matsubara loop.

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

        def slope(u):
            # at fixed k, d/dd of r^2 e / (1 - r^2 e) is -2 kappa r^2 e / (1 - r^2 e)^2, kappa = q / d
            q2 = u * u + q0 * q0
            e = math.exp(-2.0 * math.sqrt(q2))
            return u * q2 * sum(r2 * e / (1.0 - r2 * e) ** 2 for r2 in reflections(n, u))

        integrands = (energy, pressure, slope)
        return [quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0] for f in integrands]

    sums = [0.5 * v for v in term(0)]
    n = 0
    while True:
        n += 1
        values = term(n)
        sums = [s + v for s, v in zip(sums, values)]
        if all(abs(v) <= 1e-12 * abs(s) for v, s in zip(values, sums)):
            break
    return (
        KB * T / (2.0 * math.pi * d * d) * sums[0],
        KB * T / (math.pi * d**3) * sums[1],
        -2.0 * KB * T / (math.pi * d**4) * sums[2],
    )


@pytest.mark.parametrize("T", [77.0, 300.0])
@pytest.mark.parametrize("name", ["perfect", "plasma", "drude"])
def test_engine_matches_independent_reference(name, T):
    model = TOWER_MODELS[name]
    for d in (0.5e-6, 1.5e-6, 4e-6):
        energy, pressure, slope = _reference_plate(model, d, T)
        assert plate_energy(model, d, T) == pytest.approx(energy, rel=1e-7)
        assert plate_pressure(model, d, T) == pytest.approx(pressure, rel=1e-7)
        assert lifshitz._plate_kernels(model, [d], T, ("slope",))[0][0] == pytest.approx(slope, rel=1e-7)


@pytest.mark.parametrize("block_max", [1, 3, 7])
def test_block_size_does_not_move_a_bit(block_max, monkeypatch):
    """Smaller blocks and calls, with blocks split between two calls, give the same bits."""
    import casfluct.lifshitz as lif

    cases = [(TOWER_MODELS[name], d, T) for name in TOWER_MODELS for d in (0.4e-6, 3e-6) for T in (77.0, 300.0)]
    grids = [(model, T, kinds) for model in TOWER_MODELS.values() for T in (77.0, 300.0) for kinds in _SCALAR]
    batched = [plate_tower(*case) for case in cases]
    passes = [lif._plate_kernels(model, GRID_D, T, kinds) for model, T, kinds in grids]
    monkeypatch.setattr(lif, "_BLOCK_MAX", block_max)
    assert [plate_tower(*case) for case in cases] == batched
    assert [lif._plate_kernels(model, GRID_D, T, kinds) for model, T, kinds in grids] == passes


# --------------------------------------------------------------------------
# the engine's bit-for-bit premises: each fails loudly on a numpy or BLAS
# build that breaks it


@pytest.mark.parametrize("order", lifshitz._LAG_ORDERS)
def test_vecdot_rows_equal_per_row_dot(order):
    """np.vecdot reduces each row as np.dot(w, row) does, whatever the row's layout or batch."""
    _, w = lifshitz._lag_nodes(order)
    rng = np.random.default_rng(order)
    for rows in (1, 7, 256):
        f = rng.standard_normal((rows, order)) * np.exp(rng.uniform(-30.0, 30.0, (rows, 1)))
        for grid in (f, np.asfortranarray(f), f[rng.random(rows) < 0.5]):
            want = np.array([np.dot(w, row) for row in grid])
            assert np.vecdot(grid, w).tobytes() == want.tobytes()


def test_log_scaled_equals_two_where_form():
    """Each branch computed only where taken gives the bits of both computed everywhere."""

    def two_where(r2, y):
        q = r2 * np.exp(-y)
        small = q < 1e-8
        direct = np.exp(np.minimum(y, 40.0)) * np.log1p(-np.where(small, 0.0, q))
        series = -r2 * (1.0 + 0.5 * q + q * q / 3.0)
        return np.where(small, series, direct)

    # y across q = 1e-8 for each r2 (y ~ 17.7 at r2 = 0.5, 18.4 at r2 = 1) and up to 800
    y = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(40.0, 800.0, 300), [np.nan]])
    r2 = np.array([0.0, 1e-300, 0.5, 1.0, np.nan])[:, None] * np.ones_like(y)
    y = np.ones_like(r2) * y
    q = r2 * np.exp(-y)
    assert np.any(q < 1e-8) and np.any(q >= 1e-8) and np.any(np.isnan(q))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = lifshitz._log_scaled(r2, y, np.exp(-y))
        assert got.tobytes() == two_where(r2, y).tobytes()
    assert np.isnan(got[-1]).all() and np.isnan(got[:, -1]).all()


def test_series_extent_equals_the_full_arrays():
    """Stop and block size counted without an a_n array equal those of the full array."""
    n = np.arange(1, lifshitz._MATSUBARA_MAX_TERMS + 1)
    fallback = 0
    for T in (1e-3, 1.0, 77.0, 300.0, 3000.0):
        xi1 = lifshitz._xi1_rad(T)
        # a_1 so small that a_1 * n.size <= 700 (the guard), or that a_1 underflows to 0;
        # and d at which a_n = 700 exactly for some n, with its neighbours one ulp away
        exact = [700.0 * C / (2.0 * k * xi1) for k in (1, 2, 23, n.size - 1, n.size)]
        edges = [5e-324, 1e-300] + [float(v) for d in exact for v in (np.nextafter(d, 0.0), d, np.nextafter(d, 1.0))]
        for d in np.geomspace(1e-9, 1e-3, 241).tolist() + edges:
            full = 2.0 * d * n * xi1 / C
            stop = int(np.searchsorted(full, 700.0, side="right"))
            size = min(max(int(np.searchsorted(full, lifshitz._BLOCK_A, side="right")), 1),
                       lifshitz._BLOCK_MAX)
            assert lifshitz._series_extent(d, xi1, n) == (stop, size)
            fallback += stop == n.size  # 5,000 terms never reach a_n = 700: all of n
    assert fallback


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
    """The count gate: an 80-point Drude curve takes 7 _inner_rows calls, not one per block per d (87)."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("force_curve must not start a thread pool")

    calls = _recording_inner_rows(monkeypatch)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", no_pool)
    geometry = cf.ExperimentGeometry(temperature=300.0)
    force_curve(cf.GOLD_DRUDE, geometry, np.geomspace(0.3e-6, 8e-6, 80))
    sizes = [a.size for a in calls]
    assert len(sizes) == 7
    assert sum(sizes) == 1414  # the rows evaluated with one call per block per d
    assert sizes == [256] * 5 + [118, 16]  # each round's rows in calls of _BLOCK_MAX, the last fewer


def test_round_rows_fill_every_call_but_the_last(monkeypatch):
    """The 120-knot curve of a delta scan: a block straddles two calls rather than open a new one."""
    calls = _recording_inner_rows(monkeypatch)
    force_curve(cf.GOLD_DRUDE, cf.ExperimentGeometry(), np.geomspace(0.48e-6, 7.2e-6, 120))
    assert [a.size for a in calls] == [256] * 5 + [237, 35]


GRID_D = np.geomspace(0.3e-6, 8e-6, 30)


def test_tower_grid_rows_compute_only_pending_kernels(monkeypatch):
    """A round packs every d still summing into one call; a row computes only the kernels its d still needs."""
    calls, kernels = _recording_inner_rows(monkeypatch), []
    real = lifshitz._integrand

    def counting(kind, y, *args):
        if y.shape[1] == lifshitz._LAG_ORDERS[0]:
            kernels.append(y.shape[0])  # rows evaluating this kernel at the first order
        return real(kind, y, *args)

    monkeypatch.setattr(lifshitz, "_integrand", counting)
    lifshitz._plate_kernels(cf.GOLD_DRUDE, GRID_D, 300.0, lifshitz._TOWER)
    rows = sum(a.size for a in calls)
    # the rows and row-kernels of one call per block per d with its pending kernels, in 4 calls, not 15
    assert (len(calls), rows, sum(kernels)) == (4, 588, 1683)
    assert sum(kernels) < 3 * rows


_SCALAR = {("energy",): plate_energy, ("pressure",): plate_pressure, lifshitz._TOWER: plate_tower}


@pytest.mark.parametrize("T", [77.0, 300.0])
@pytest.mark.parametrize("name", list(TOWER_MODELS))
def test_grid_equals_scalar_bit_for_bit(name, T, monkeypatch):
    model = TOWER_MODELS[name]
    calls = _recording_inner_rows(monkeypatch)
    for kinds, scalar in _SCALAR.items():
        for grid in (GRID_D[:1], GRID_D):
            calls.clear()
            values = lifshitz._plate_kernels(model, grid, T, kinds)
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
def test_grid_raises_first_failing_d_like_scalar(name, kinds, monkeypatch):
    model = TOWER_MODELS[name]
    monkeypatch.setattr(lifshitz, "_MATSUBARA_MAX_TERMS", 3)
    scalar = _SCALAR[kinds]
    scalar(model, 8e-6, 300.0)  # converges within 3 terms
    grid = [8e-6, 0.5e-6, 1e-6]
    got = _raised(lambda: lifshitz._plate_kernels(model, grid, 300.0, kinds))
    assert got == _raised(lambda: scalar(model, 0.5e-6, 300.0))
    assert got != _raised(lambda: scalar(model, 1e-6, 300.0))


def test_grid_raises_first_failure_it_meets(monkeypatch):
    # flag as unconverged the first term of 8 um's second block and the first term
    # of 0.47 um: 0.47 um fails in the first round, 8 um in the second, and the grid
    # [8 um, 0.47 um] raises what 0.47 um raises alone, without a second round
    T, d_early, d_late = 300.0, 8e-6, 0.47e-6
    n = np.arange(1, 101)

    def a_of(d):
        return 2.0 * d * n * lifshitz._xi1_rad(T) / C

    a_early = a_of(d_early)
    flagged = {float(a_early[np.searchsorted(a_early, lifshitz._BLOCK_A, side="right")]): "early",
               float(a_of(d_late)[0]): "late"}
    seen = []
    real = lifshitz._inner_rows

    def flagging(a, *args):
        vals, bad = real(a, *args)
        hit = np.isin(a, list(flagged))
        seen.append(sorted(flagged[v] for v in a[hit].tolist()))
        bad = bad.copy()
        bad[hit] = True
        return vals, bad

    monkeypatch.setattr(lifshitz, "_inner_rows", flagging)
    want = _raised(lambda: plate_pressure(cf.GOLD_DRUDE, d_late, T))
    assert want != _raised(lambda: plate_pressure(cf.GOLD_DRUDE, d_early, T))
    seen.clear()
    assert _raised(lambda: lifshitz._plate_kernels(cf.GOLD_DRUDE, [d_early, d_late], T, ("pressure",))) == want
    assert seen == [["late"]]  # the first round's one _inner_rows call, then no more


def test_unconverged_pressure_inside_tower_grid():
    # plate_pressure(GOLD_DRUDE, 0.1 um, 77 K) fails its k-integral at order 256
    geometry = cf.ExperimentGeometry(temperature=77.0)
    want = _raised(lambda: plate_tower(cf.GOLD_DRUDE, 0.1e-6, 77.0))
    assert want != _raised(lambda: plate_tower(cf.GOLD_DRUDE, 0.12e-6, 77.0))
    force = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    assert _raised(lambda: force([0.3e-6, 0.1e-6, 0.12e-6])) == want
    assert _raised(lambda: force.curvature(np.array([0.3e-6, 0.1e-6, 0.12e-6]))) == want
    grid = GRID_D[::-1].tolist() + [0.1e-6, 0.12e-6]
    assert _raised(lambda: lifshitz._plate_kernels(cf.GOLD_DRUDE, grid, 77.0, lifshitz._TOWER)) == want


def _no_sums(monkeypatch):
    import casfluct.lifshitz as lif

    monkeypatch.setattr(lif, "_inner_rows", lambda *a: pytest.fail("summed before the grid was checked"))


def test_grid_checked_in_full_before_first_sum(monkeypatch):
    # 0.5 um does not converge within 3 terms, but the last d fails the PFA check
    geometry = cf.ExperimentGeometry(sphere_radius=1e-5, temperature=300.0)
    monkeypatch.setattr(lifshitz, "_MATSUBARA_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError):
        plate_energy(cf.GOLD_DRUDE, 0.5e-6, 300.0)
    _no_sums(monkeypatch)
    with pytest.warns(UserWarning, match="degraded"), pytest.raises(PFAValidityError):
        sphere_plate_force(cf.GOLD_DRUDE, np.array([0.5e-6, 2e-6]), geometry)


def test_tower_grid_ending_at_zero_raises_before_any_sum(monkeypatch):
    _no_sums(monkeypatch)
    with pytest.raises(cf.DomainError, match="separation must be finite and > 0, got 0$"):
        lifshitz._plate_kernels(cf.GOLD_DRUDE, [1e-6, 2e-6, 0.0], 300.0, lifshitz._TOWER)


def _with_warnings(call) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return value, [(w.category, str(w.message)) for w in caught]


def test_grid_warns_once():
    geometry = cf.ExperimentGeometry(sphere_radius=1e-3, temperature=300.0)
    grid = np.geomspace(0.5e-6, 8e-6, 6)
    points, per_point = _with_warnings(lambda: [sphere_plate_force(cf.GOLD_DRUDE, d, geometry) for d in grid])
    assert len(per_point) == 4  # one per d with d/R > 1e-3
    want = [(UserWarning, "4 of 6 separations have 1e-3 < d/R < 0.1 (largest 0.008): "
                          "proximity-force approximation degraded")]
    forces, got = _with_warnings(lambda: sphere_plate_force(cf.GOLD_DRUDE, grid, geometry))
    assert got == want and forces.tolist() == points
    curve, got = _with_warnings(lambda: force_curve(cf.GOLD_DRUDE, geometry, grid))
    assert got == want and curve.force_N.tolist() == points
    force = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    forces, got = _with_warnings(lambda: force(grid))
    assert got == want and forces.tolist() == points


def test_pfa_warning_names_the_calling_line():
    """Each entry point attributes the warning to the caller's line, not to a line of the package."""
    geometry = cf.ExperimentGeometry(sphere_radius=1e-3, temperature=300.0)

    def fresh():
        return SpherePlateForce(cf.GOLD_DRUDE, geometry)

    calls = [
        lambda: sphere_plate_force(cf.GOLD_DRUDE, 2e-6, geometry),
        lambda: fresh()(2e-6),
        lambda: fresh().gradient(2e-6),
        lambda: fresh().curvature(2e-6),
        lambda: force_curve(cf.GOLD_DRUDE, geometry, [2e-6, 3e-6]),
        lambda: cf.TotalForceEvaluator(cf.ElectrostaticBackground(beta=1e-17), fresh()).curvature(2e-6),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]


def test_grid_call_equals_fresh_scalar_calls(geometry, monkeypatch):
    import casfluct.lifshitz as lif

    passes = []
    real = lif._plate_kernels

    def counting(model, ds, *args):
        passes.append(list(ds))
        return real(model, ds, *args)

    monkeypatch.setattr(lif, "_plate_kernels", counting)
    grid = np.geomspace(0.6e-6, 6e-6, 25)
    force = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    got = [force(grid), force.gradient(grid), force.curvature(grid), force(grid)]
    assert passes == [grid.tolist()]  # F, F' and F'' on one grid: one pass
    monkeypatch.undo()
    assert all(isinstance(v, np.ndarray) and v.shape == grid.shape for v in got)
    fresh = SpherePlateForce(cf.GOLD_DRUDE, geometry)
    want = [(fresh(d), fresh.gradient(d), fresh.curvature(d)) for d in grid]
    assert list(zip(*(v.tolist() for v in got[:3]))) == want
    assert got[3].tolist() == got[0].tolist()
    got[0][:] = 0.0  # a returned array is the caller's own: the kept pass stays as it was
    assert force(grid).tolist() == [f for f, _, _ in want]
