"""Level sets, turning points, and the section value of the stationary orbit."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkpp_graphs.phaseplane as phaseplane
from fkpp_graphs.errors import InvalidDomain, OrbitNotClosed
from fkpp_graphs.phaseplane import (
    PhasePoint,
    energy,
    q_tilde,
    turning_point_pair,
    well,
)

# high-precision reference (mpmath, 25 significant digits)
P0_AT_09_M005 = 0.8868690455309168279234


def test_well_values():
    assert well(0.0) == 0.0
    assert math.isclose(well(1.0), 1.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(well(0.5), 1.0 / 6.0, rel_tol=1e-15)


def test_energy_levels():
    assert energy(0.0, 0.0) == 0.0
    assert abs(energy(1.0, -1.0 / math.sqrt(3.0))) <= 1e-15
    assert math.isclose(energy(1.0, 0.0), -1.0 / 3.0, rel_tol=1e-15)
    assert isinstance(energy(0.5, -0.2), float)


@pytest.mark.parametrize("p,q", [(0.0, -0.1), (1.5, -0.1), (0.5, 0.1),
                                 (float("nan"), -0.1), (0.5, float("nan"))])
def test_phase_point_rejects_bad_coordinates(p, q):
    with pytest.raises(InvalidDomain):
        PhasePoint(p, q)


def test_phase_point_energy_property():
    pt = PhasePoint(0.5, -0.2)
    assert math.isclose(pt.energy, 0.04 - 1.0 / 6.0, rel_tol=1e-14)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9, 0.999])
def test_section_value_constant_on_homoclinic(p):
    # every point of the E = 0 level maps to the section value -1/sqrt(3)
    q = -math.sqrt(well(p))
    assert abs(q_tilde(PhasePoint(p, q)) + 1.0 / math.sqrt(3.0)) <= 1e-14


def test_section_value_at_center_is_zero():
    assert abs(q_tilde(PhasePoint(1.0, 0.0))) <= 1e-15


def test_turning_point_anchor():
    p0, b0 = turning_point_pair(PhasePoint(0.9, -0.05))
    assert math.isclose(p0, P0_AT_09_M005, rel_tol=1e-13)
    assert math.isclose(p0 + b0, 1.0, rel_tol=1e-14)


@pytest.mark.parametrize("p,q", [(0.2, -0.5), (1.0, -1.0 / math.sqrt(3.0)),
                                 (0.05, -0.9)])
def test_no_turning_point_outside_homoclinic(p, q):
    assert energy(p, q) >= -1e-15
    with pytest.raises(OrbitNotClosed):
        turning_point_pair(PhasePoint(p, q))


def test_center_degenerate_orbit():
    assert turning_point_pair(PhasePoint(1.0, 0.0)) == (1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.01, 0.99), frac=st.floats(0.02, 0.98))
def test_turning_point_closes_the_level_set(p, frac):
    # inside the homoclinic loop: A(p0) recovers -E and p0 precedes p
    q = -math.sqrt(well(p)) * frac
    pt = PhasePoint(p, q)
    p0, b0 = turning_point_pair(pt)
    assert 0.0 < p0 <= p
    target = -pt.energy
    assert abs(well(p0) - target) <= 1e-12 * max(target, 1e-30)
    assert abs((1.0 - b0) - p0) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.01, 1.0), q=st.floats(-3.0, 0.0))
def test_section_value_squares_to_shifted_energy(p, q):
    pt = PhasePoint(p, q)
    qt = q_tilde(pt)
    assert qt <= 0.0
    assert abs(qt * qt - (pt.energy + 1.0 / 3.0)) <= 1e-13


def test_center_side_root_stops_at_rounding(monkeypatch):
    # targets log-uniform over the range turning_point_pair passes in
    rng = random.Random(2024)
    targets = [10.0 ** rng.uniform(-14.0, math.log10(1.0 / 6.0)) for _ in range(300)]
    targets += [1e-14, 1.0 / 6.0]
    calls = 0

    def counting_well(u):
        nonlocal calls
        calls += 1
        return well(u)

    monkeypatch.setattr(phaseplane, "well", counting_well)
    with mpmath.workdps(40):
        for target in targets:
            calls = 0
            b = phaseplane._center_side_root(target)
            assert calls <= 10
            # b = sqrt(target) * y keeps findroot's absolute tolerance relative
            s = mpmath.sqrt(mpmath.mpf(target))
            y = mpmath.findroot(lambda y: y * y * (1 - 2 * s * y / 3) - 1, 1)
            exact = float(s * y)
            assert abs(b - exact) <= 2.0 * math.ulp(exact)
