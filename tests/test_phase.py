import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phasekit as pk
from phasekit import PhaselessStateError
from phasekit.ode import flow_batch

from conftest import circ_err

TWO_PI = 2 * math.pi


def test_radial_phase_example(radial_cycle):
    m, cyc = radial_cycle
    th = pk.asymptotic_phase(m, cyc, np.array([0.0, 2.0]))
    assert abs(th - math.pi / 2) < 1e-6


def test_spiral_phase_example(spiral_cycle):
    m, cyc = spiral_cycle
    th = pk.asymptotic_phase(m, cyc, np.array([2.0, 0.0]))
    assert abs(th - math.log(2.0)) < 1e-5


def test_on_cycle_identity(radial_cycle):
    m, cyc = radial_cycle
    for theta0 in (0.0, 1.3, 4.4):
        th = pk.asymptotic_phase(m, cyc, cyc.gamma_at(theta0))
        assert circ_err([th], [theta0]) < 1e-8


def test_phaseless_rejected(radial_cycle):
    m, cyc = radial_cycle
    with pytest.raises(PhaselessStateError):
        pk.asymptotic_phase(m, cyc, np.array([1e-4, 0.0]))


def test_oracle_agreement_200_points(spiral_cycle):
    m, cyc = spiral_cycle
    rng = np.random.default_rng(11)
    ang = rng.uniform(0, TWO_PI, 200)
    rad = rng.uniform(0.4, 1.8, 200)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    got = pk.asymptotic_phase(m, cyc, pts)
    want = np.array([m.analytic_phase(p) for p in pts])
    assert circ_err(got, want) < 1e-5


def test_foliation_invariance(radial_cycle):
    # the phase of a flowed state advances at exactly omega0
    m, cyc = radial_cycle
    rng = np.random.default_rng(5)
    for _ in range(12):
        ang = rng.uniform(0, TWO_PI)
        rad = rng.uniform(0.5, 1.7)
        x = rad * np.array([math.cos(ang), math.sin(ang)])
        t = rng.uniform(0.0, 3 * cyc.period)
        th0 = pk.asymptotic_phase(m, cyc, x)
        th1 = pk.asymptotic_phase(m, cyc, pk.flow(m, x, t, tol=(1e-11, 1e-13)))
        assert circ_err([th1], [th0 + cyc.omega0 * t]) < 1e-5


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_phase_advances_at_omega0_on_stuart_landau(omega0, c2, t):
    # theta(phi_t(x)) = theta(x) + omega0 * t, with phi_t from flow_batch
    m = pk.make_model("stuart_landau", omega=omega0 + c2, c2=c2)
    cyc = pk.find_limit_cycle(m, (1.5, 0.1))
    rng = np.random.default_rng(2)
    ang = rng.uniform(0, TWO_PI, 16)
    rad = rng.uniform(0.5, 1.7, 16)
    x = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    th0 = pk.asymptotic_phase(m, cyc, x)
    th1 = pk.asymptotic_phase(m, cyc, flow_batch(m, x, t, tol=(1e-11, 1e-13)))
    assert circ_err(th1, th0 + omega0 * t) < 1e-7


@pytest.mark.parametrize("fixture,expected", [
    ("radial_sens", lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1)),
    ("spiral_sens", lambda th: np.stack([np.cos(th) - np.sin(th),
                                         np.cos(th) + np.sin(th)], axis=-1)),
])
def test_sensitivity_analytic(fixture, expected, request):
    sens = request.getfixturevalue(fixture)
    want = expected(sens.grid)
    assert np.max(np.abs(sens.values - want)) < 1e-5


def test_sensitivity_normalization(radial_cycle, radial_sens):
    m, cyc = radial_cycle
    dots = np.einsum("kd,kd->k", radial_sens.values,
                     m.f_batch(cyc.points))
    assert np.max(np.abs(dots - cyc.omega0)) < 1e-6


def test_sensitivity_interpolation(radial_sens):
    z = radial_sens(1.234)
    np.testing.assert_allclose(z, [-math.sin(1.234), math.cos(1.234)],
                               atol=1e-7)
    np.testing.assert_allclose(radial_sens(0.0), radial_sens(TWO_PI),
                               atol=1e-12)


def test_methods_cross_check(radial_cycle):
    m, cyc = radial_cycle
    za = pk.phase_sensitivity(m, cyc, method="adjoint")
    zf = pk.phase_sensitivity(m, cyc, method="finite_difference")
    assert np.max(np.abs(za.values - zf.values)) < 1e-4


def test_stuart_landau_sensitivity(sl_cycle):
    # adjoint result must match the closed-form gradient of the oracle phase
    m, cyc = sl_cycle
    sens = pk.phase_sensitivity(m, cyc)
    want = np.array([m.analytic_prc(t) for t in sens.grid])
    assert np.max(np.abs(sens.values - want)) < 1e-5


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_adjoint_matches_the_closed_form_on_stuart_landau(omega0, c2):
    # the adjoint curve is the closed-form PRC and satisfies Z . f = omega0
    m = pk.make_model("stuart_landau", omega=omega0 + c2, c2=c2)
    cyc = pk.find_limit_cycle(m, (1.5, 0.1))
    sens = pk.phase_sensitivity(m, cyc)
    want = np.array([m.analytic_prc(t) for t in sens.grid])
    assert np.max(np.abs(sens.values - want)) < 1e-5
    dots = np.einsum("kd,kd->k", sens.values, m.f_batch(cyc.points))
    assert np.max(np.abs(dots - omega0)) < 1e-6


def test_radial_isochron_is_ray(radial_cycle):
    m, cyc = radial_cycle
    iso = pk.compute_isochron(m, cyc, 0.0, (0.3, 2.0), n_points=60)
    assert np.max(np.abs(iso.points[:, 1])) < 1e-6
    assert np.all(iso.points[:, 0] > 0)


def test_spiral_isochron_identity(spiral_cycle):
    m, cyc = spiral_cycle
    iso = pk.compute_isochron(m, cyc, 0.0, (0.3, 2.0), n_points=60)
    r = np.linalg.norm(iso.points, axis=1)
    phi = np.arctan2(iso.points[:, 1], iso.points[:, 0])
    assert circ_err(phi + np.log(r), np.zeros_like(r)) < 1e-4


def test_isochron_contains_cycle_point(spiral_cycle):
    m, cyc = spiral_cycle
    theta = 1.1
    iso = pk.compute_isochron(m, cyc, theta, (0.5, 1.6), n_points=30)
    d = np.min(np.linalg.norm(iso.points - cyc.gamma_at(theta), axis=1))
    assert d < 1e-8
    assert abs(iso.theta - theta) < 1e-12
    assert iso.phase_residual < 1e-4


def test_isochron_collapsed_range(radial_cycle):
    m, cyc = radial_cycle
    iso = pk.compute_isochron(m, cyc, 0.7, (1.0, 1.0), n_points=5)
    assert len(iso.points) >= 1
    d = np.max(np.linalg.norm(iso.points - cyc.gamma_at(0.7), axis=1))
    assert d < 1e-8


def test_isochron_points_verified(radial_cycle):
    # every reported point carries the base phase within the stated budget
    m, cyc = radial_cycle
    theta = 2.2
    iso = pk.compute_isochron(m, cyc, theta, (0.4, 1.9), n_points=25)
    phases = pk.asymptotic_phase(m, cyc, iso.points)
    assert circ_err(phases, np.full(len(iso.points), theta)) < 1e-4


def test_contraction_along_isochron(radial_cycle):
    m, cyc = radial_cycle
    theta = 0.9
    g = cyc.gamma_at(theta)
    # radial displacement stays on the isochron for this model
    x = g * 1.08
    y = pk.flow(m, x, cyc.period, tol=(1e-11, 1e-13))
    d0 = np.linalg.norm(x - g)
    d1 = np.linalg.norm(y - g)
    assert d1 <= math.exp(cyc.floquet * cyc.period) * d0 * 1.1


def test_asymptotic_phase_of_an_empty_stack(spiral_cycle):
    m, cyc = spiral_cycle
    theta = pk.asymptotic_phase(m, cyc, np.empty((0, 2)))
    assert theta.shape == (0,)


@pytest.mark.parametrize("n_points", [0, -3])
def test_isochron_needs_at_least_one_point(radial_cycle, n_points):
    m, cyc = radial_cycle
    with pytest.raises(ValueError, match="n_points"):
        pk.compute_isochron(m, cyc, 0.0, (0.3, 2.0), n_points=n_points)
