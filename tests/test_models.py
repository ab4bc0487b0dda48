import math

import numpy as np
import pytest

import phasekit as pk
from phasekit import PhaselessStateError, make_model

from conftest import scalar_only_radial


def test_radial_field_on_cycle():
    m = make_model("radial")
    np.testing.assert_allclose(m.f(np.array([1.0, 0.0])), [0.0, 1.0],
                               atol=1e-15)


def test_spiral_field_at_origin():
    # the origin is the fixed point; f itself stays evaluable there
    m = make_model("spiral")
    np.testing.assert_allclose(m.f(np.zeros(2)), [0.0, 0.0], atol=1e-15)


def test_stuart_landau_field_on_cycle():
    # z = 1: (1+2i) - (1+i) = i, i.e. (0, 1) as a real pair
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    np.testing.assert_allclose(m.f(np.array([1.0, 0.0])), [0.0, 1.0],
                               atol=1e-14)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_model("vanderpol_oscillator")


def test_stuart_landau_requires_params():
    with pytest.raises(ValueError):
        make_model("stuart_landau", omega=2.0)
    with pytest.raises(ValueError):
        make_model("stuart_landau", omega=2.0, c2=1.0, gain=3.0)


def test_relaxation_field_and_params():
    m = make_model("relaxation", mu=1.0)
    # second state equation: dv/dt = mu (1 - u^2) v - u
    np.testing.assert_allclose(m.f(np.array([2.0, 0.5])),
                               [0.5, 1.0 * (1 - 4.0) * 0.5 - 2.0])
    with pytest.raises(ValueError):
        make_model("relaxation", mu=-0.5)


@pytest.mark.parametrize("name", ["radial", "spiral"])
def test_unit_circle_invariant(name):
    m = make_model(name)
    for ang in (0.0, 1.1, 3.9):
        x0 = np.array([math.cos(ang), math.sin(ang)])
        traj = pk.integrate(m, x0, (0.0, 10.0), tol=(1e-11, 1e-13))
        radii = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-8


@pytest.mark.parametrize("name,expected", [
    ("radial", lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1)),
    ("spiral", lambda th: np.stack([np.cos(th) - np.sin(th),
                                    np.cos(th) + np.sin(th)], axis=-1)),
])
def test_analytic_sensitivity_oracles(name, expected):
    m = make_model(name)
    th = 2 * np.pi * np.arange(64) / 64
    got = np.stack([m.analytic_prc(t) for t in th])
    np.testing.assert_allclose(got, expected(th), atol=1e-14)


def test_analytic_phase_oracles():
    m = make_model("radial")
    assert abs(m.analytic_phase(np.array([0.0, 2.0])) - math.pi / 2) < 1e-14
    s = make_model("spiral")
    assert abs(s.analytic_phase(np.array([2.0, 0.0])) - math.log(2.0)) < 1e-14


def test_phaseless_region_rejected():
    m = make_model("radial")
    with pytest.raises(PhaselessStateError):
        m.check_basin(np.array([1e-5, 0.0]))


def test_jacobian_matches_finite_difference():
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    x = np.array([0.8, -0.4])
    jac = m.jacobian(x)
    h = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, j] = (m.f(x + e) - m.f(x - e)) / (2 * h)
    np.testing.assert_allclose(jac, fd, atol=1e-8)


def test_sinusoidal_forcing_periodicity():
    pert = pk.sinusoidal_forcing(omega=3.0, amplitude=0.4, component=1)
    assert pert.period == pytest.approx(2 * math.pi / 3.0)
    x = np.array([0.3, 0.9])
    for t in (0.0, 0.7, 5.3):
        np.testing.assert_allclose(pert.p(x, t + pert.period), pert.p(x, t),
                                   atol=1e-12)
    # p is unit-amplitude; the eps bookkeeping lives in pert.amplitude
    np.testing.assert_allclose(pert.p(x, 0.5), [0.0, math.sin(1.5)],
                               atol=1e-15)
    assert pert.amplitude == pytest.approx(0.4)


def test_periodicity_probe_uses_the_forcing_dimension():
    # the forcing reads x[2]; probing with planar states would index past it
    def p(x, t):
        return np.array([0.0, 0.0, x[2] * math.sin(t)])

    pert = pk.Perturbation(p=p, period=2 * math.pi, amplitude=0.1, dim=3)
    assert pert.dim == 3
    with pytest.raises(ValueError, match="not periodic"):
        pk.Perturbation(p=p, period=1.0, dim=3)
    assert pk.sinusoidal_forcing(dim=3, component=2).dim == 3


# The built-in fields used to assemble their output with np.stack; these are
# those formulations, kept to pin the in-place fields to the same bits.
def _stacked_fields(mu, omega, c2):
    def radial(x):
        u, v = x[..., 0], x[..., 1]
        r2 = u * u + v * v
        return np.stack([u - v - u * r2, u + v - v * r2], axis=-1)

    def spiral(x):
        u, v = x[..., 0], x[..., 1]
        r2 = u * u + v * v
        return np.stack([u - (u + v) * r2, v + (u - v) * r2], axis=-1)

    def stuart_landau(x):
        u, v = x[..., 0], x[..., 1]
        r2 = u * u + v * v
        return np.stack([u - omega * v - r2 * (u - c2 * v),
                         omega * u + v - r2 * (c2 * u + v)], axis=-1)

    def relaxation(x):
        u, v = x[..., 0], x[..., 1]
        return np.stack([v, mu * (1.0 - u * u) * v - u], axis=-1)

    def relaxation_jac(x):
        u, v = x[..., 0], x[..., 1]
        row0 = np.stack([np.zeros_like(u), np.ones_like(u)], axis=-1)
        row1 = np.stack([-2.0 * mu * u * v - 1.0, mu * (1.0 - u * u)],
                        axis=-1)
        return np.stack([row0, row1], axis=-2)

    return {"radial": radial, "spiral": spiral,
            "stuart_landau": stuart_landau, "relaxation": relaxation,
            "relaxation_jac": relaxation_jac}


def _field_inputs():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(27, 2)) * 1.5
    network = rng.normal(size=(9, 3, 2))
    return {"single": stack[3].copy(), "stack": stack,
            "list": stack[:4].tolist(), "strided": network[:, 1],
            "batched": network}


@pytest.mark.parametrize("kind", ["single", "stack", "list", "strided",
                                  "batched"])
@pytest.mark.parametrize("name", ["radial", "spiral", "stuart_landau",
                                  "relaxation", "relaxation_jac"])
def test_builtin_fields_match_stacked_formulation_bitwise(name, kind):
    mu, omega, c2 = 1.3, 2.05, 0.7
    models = {"radial": make_model("radial"), "spiral": make_model("spiral"),
              "stuart_landau": make_model("stuart_landau", omega=omega,
                                          c2=c2),
              "relaxation": make_model("relaxation", mu=mu)}
    if name == "relaxation_jac":
        fn = models["relaxation"].jacobian
    else:
        fn = models[name].f
    x = _field_inputs()[kind]
    xa = np.asarray(x, dtype=float)
    got = fn(x)
    want = _stacked_fields(mu, omega, c2)[name](xa)
    np.testing.assert_array_equal(got, want)
    shape = xa.shape + (2,) if name == "relaxation_jac" else xa.shape
    assert got.shape == shape
    assert got.dtype == np.float64
    assert not np.shares_memory(got, xa)


def test_scalar_only_f_batch_matches_the_vectorized_field():
    custom = scalar_only_radial()
    x = _field_inputs()["batched"]
    got = custom.f_batch(x)
    np.testing.assert_array_equal(got, make_model("radial").f(x))
    assert got.shape == x.shape


def test_scalar_only_f_batch_on_an_empty_stack():
    out = scalar_only_radial().f_batch(np.empty((0, 2)))
    assert out.shape == (0, 2)
    assert out.dtype == np.float64
