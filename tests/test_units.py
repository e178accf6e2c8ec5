import math

import numpy as np
import pytest

import casfluct as cf
from casfluct.cli import UM
from casfluct.units import C, EV, HBAR, HBAR_C, K_B, UDYNE, check_samples


def test_microdyne_definition():
    assert UDYNE == 1e-11


def test_micrometer_definition():
    assert UM == 1e-6


def test_background_strength_unit():
    # 215 udyne*um in SI
    assert 215.0 * (UDYNE * UM) == pytest.approx(2.15e-15, rel=1e-12)


def test_force_gradient_and_curvature_units():
    assert UDYNE / UM == pytest.approx(1e-5, rel=1e-12)
    assert UDYNE / UM**2 == pytest.approx(10.0, rel=1e-12)


def test_constants_codata_2018():
    assert HBAR == 1.054571817e-34
    assert C == 299792458.0
    assert K_B == 1.380649e-23
    assert HBAR_C == pytest.approx(1.054571817e-34 * 299792458.0, rel=0)


def test_geometry_defaults_and_validation():
    g = cf.ExperimentGeometry()
    assert g.sphere_radius == pytest.approx(0.124)
    assert g.temperature == 300.0
    with pytest.raises(ValueError):
        cf.ExperimentGeometry(sphere_radius=0.0)
    with pytest.raises(ValueError):
        cf.ExperimentGeometry(temperature=-1.0)


def test_electronvolt_definition():
    assert EV == 1.602176634e-19


class TestCheckSamples:
    def test_returns_read_only_float_copies(self):
        x, y = [1, 2, 3.5], np.array([3.0, 2.0, 1.0])
        cx, cy = check_samples(("x", "y"), x, y)
        assert cx.dtype == cy.dtype == float
        assert not cx.flags.writeable and not cy.flags.writeable
        assert np.array_equal(cx, x) and np.array_equal(cy, y)
        assert y.flags.writeable and not np.shares_memory(cy, y)

    def test_signed_integer_column_stays_integer(self):
        _, n = check_samples(("x", "n"), [1.0, 2.0], np.array([5, 7]))
        assert n.dtype.kind == "i" and not n.flags.writeable

    @pytest.mark.parametrize(
        "x, y, min_len, match",
        [
            ([], [], 1, "need at least 1 samples"),
            ([1.0], [1.0], 2, "need at least 2 samples"),
            ([1.0, 2.0], [1.0], 1, "equal length"),
            ([[1.0, 2.0]], [[1.0, 2.0]], 1, "1-D"),
            ([1.0, math.nan], [1.0, 2.0], 1, "^x must be finite, got nan"),
            ([1.0, 2.0], [1.0, -math.inf], 1, "^y must be finite, got -inf"),
            ([1.0, 3.0, 2.0], [1.0, 2.0, 3.0], 1, "^x must be strictly ascending, got 2 after 3"),
            ([1.0, 1.0], [1.0, 2.0], 1, "^x must be strictly ascending"),
        ],
        ids=["empty", "short", "lengths", "2-D", "nan-x", "inf-y", "descending", "duplicate"],
    )
    def test_rejects(self, x, y, min_len, match):
        with pytest.raises(ValueError, match=match):
            check_samples(("x", "y"), x, y, min_len=min_len)


def _tables():
    """(name, build, caller's arrays, names of the object's own arrays) per table type."""
    d_um = np.array([1.0, 2.0, 3.0, 4.0])
    dataset = (d_um, np.array([40.0, 30.0, 20.0, 10.0]), np.ones(4), np.full(4, 10), np.zeros(4))
    return [
        ("force_curve", lambda d: cf.force_curve(cf.GOLD_DRUDE, cf.ExperimentGeometry(), d),
         (d_um * 1e-6,), ("d_m", "force_N")),
        ("Tabulated", cf.Tabulated, (np.array([0.1, 1.0, 10.0]), np.array([1e3, 80.0, 2.0])),
         ("xi_ev", "eps")),
        ("OpticalAbsorptionTable", cf.OpticalAbsorptionTable,
         (np.array([0.1, 1.0]), np.array([50.0, 2.0])), ("omega_ev", "eps_imag")),
        ("TableProfile", cf.TableProfile, (d_um * 1e-6, d_um * 1e-7), ("d", "delta")),
        ("ForceDataset", cf.ForceDataset, dataset,
         ("d_um", "force_udyne", "sigma_udyne", "n_samples", "bin_width_um")),
        ("TabulatedForceCurve", cf.TabulatedForceCurve, (d_um * 1e-6, dataset[1] * 1e-11), ()),
    ]


@pytest.mark.parametrize("name, build, arrays, own", _tables(), ids=[t[0] for t in _tables()])
def test_constructors_copy_their_arrays_and_freeze_only_the_copy(name, build, arrays, own):
    kept = [a.copy() for a in arrays]
    obj = build(*arrays)
    for a, before in zip(arrays, kept):
        assert a.flags.writeable
        assert np.array_equal(a, before)
    for attr in own:
        assert not getattr(obj, attr).flags.writeable
    if name == "TabulatedForceCurve":
        value = obj(2.5e-6)
        for a in arrays:
            a *= 2.0  # the caller may reuse its arrays; the curve keeps its own knots
        assert obj(2.5e-6) == value


# each physical scalar of a constructor, as its error message names it
_SCALARS = {
    "omega_p_ev": lambda v: cf.Plasma(omega_p_ev=v),
    "gamma_ev": lambda v: cf.Drude(gamma_ev=v),
    "scale": lambda v: cf.SqrtLawProfile(scale=v),
    "sphere_radius": lambda v: cf.ExperimentGeometry(sphere_radius=v),
    "temperature": lambda v: cf.ExperimentGeometry(temperature=v),
    "beta": lambda v: cf.ElectrostaticBackground(beta=v),
    "d0": lambda v: cf.ElectrostaticBackground(beta=1e-15, d0=v),
    "dt": lambda v: cf.ProcessSpec(dt=v),
    "duration": lambda v: cf.ProcessSpec(duration=v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_SCALARS))
def test_physical_scalars_must_be_finite(name, bad):
    with pytest.raises(cf.DomainError, match=f"^{name} must be finite"):
        _SCALARS[name](bad)


_OMEGA = np.geomspace(0.01, 100.0, 50)
_ABSORPTION = cf.OpticalAbsorptionTable(_OMEGA, cf.drude_loss_spectrum(cf.GOLD_DRUDE, _OMEGA))

# (id, the name the error gives, a call with the argument) for each physical
# argument of a library function that is not a table column
_ARGUMENTS = [
    ("eps_imag_axis", "xi_ev", lambda v: cf.eps_imag_axis(cf.GOLD_DRUDE, v)),
    ("drude_loss_spectrum", "omega_ev", lambda v: cf.drude_loss_spectrum(cf.GOLD_DRUDE, v)),
    ("kk_transform", "xi_ev", lambda v: cf.kk_transform(_ABSORPTION, v)),
    ("inflated_sigma", "sigma_force", lambda v: cf.inflated_sigma(v, 1.0, 1.0)),
    ("chi2_sf-odd", "chi2 statistic", lambda v: cf.chi2_sf(v, 3)),
    ("chi2_sf-even", "chi2 statistic", lambda v: cf.chi2_sf(v, 4)),
    ("plate_pressure-T", "temperature", lambda v: cf.plate_pressure(cf.GOLD_DRUDE, 1e-6, v)),
    ("plate_pressure-d", "separation", lambda v: cf.plate_pressure(cf.GOLD_DRUDE, v, 300.0)),
    ("apparent_force", "distance", lambda v: cf.apparent_force(lambda d: 1.0 / d, v, 0.0)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", [pytest.param(n, c, id=i) for i, n, c in _ARGUMENTS])
def test_function_arguments_must_be_finite(name, call, bad):
    # a NaN passes a plain `< 0` test and came back as a NaN result
    with pytest.raises(cf.DomainError, match=f"^{name} must be finite and (>|>=) 0, got {bad:g}$"):
        call(bad)
