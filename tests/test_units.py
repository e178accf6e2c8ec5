import dataclasses

import pytest

import casfluct as cf
from casfluct.cli import UDYNE_UM, UM
from casfluct.units import EV, UDYNE


def test_microdyne_definition():
    assert UDYNE == 1e-11


def test_micrometer_definition():
    assert UM == 1e-6


def test_background_strength_unit():
    # 215 udyne*um in SI
    assert 215.0 * UDYNE_UM == pytest.approx(2.15e-15, rel=1e-12)


def test_force_gradient_and_curvature_units():
    assert UDYNE / UM == pytest.approx(1e-5, rel=1e-12)
    assert UDYNE / UM**2 == pytest.approx(10.0, rel=1e-12)


def test_constants_codata_2018():
    c = cf.CONSTANTS
    assert c.hbar == 1.054571817e-34
    assert c.c == 299792458.0
    assert c.k_B == 1.380649e-23
    assert c.hbar_c == pytest.approx(1.054571817e-34 * 299792458.0, rel=0)


def test_constants_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        cf.CONSTANTS.hbar = 1.0


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
