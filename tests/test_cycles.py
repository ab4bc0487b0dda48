import math
import os
import subprocess
import sys

import numpy as np
import pytest

import phasekit as pk
from phasekit import UnstableCycleError, find_limit_cycle, floquet_exponent
from phasekit.cycles import _PROJECT_CHUNK

TWO_PI = 2 * math.pi


@pytest.mark.parametrize("name,guess", [
    ("radial", (1.7, 0.1)),
    ("spiral", (0.5, 0.5)),
])
def test_unit_circle_cycles(name, guess):
    m = pk.make_model(name)
    cyc = find_limit_cycle(m, guess)
    assert abs(cyc.period - TWO_PI) < 1e-6
    radii = np.linalg.norm(cyc.points, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-6
    assert cyc.floquet < 0


def test_stuart_landau_period(sl_cycle):
    _, cyc = sl_cycle
    # cycle frequency is omega - c2 = 1
    assert abs(cyc.period - TWO_PI) < 1e-6


def test_relaxation_cycle():
    m = pk.make_model("relaxation", mu=1.0)
    cyc = find_limit_cycle(m, (2.0, 0.0))
    # classical reference value of the period at this stiffness
    assert abs(cyc.period - 6.6632868593231) < 1e-5
    assert np.max(np.abs(cyc.points[:, 0])) == pytest.approx(2.0086, abs=2e-3)


def test_periodicity_invariant(radial_cycle):
    m, cyc = radial_cycle
    for k in (0, 41, 128, 200):
        x = pk.flow(m, cyc.points[k], cyc.period, tol=(1e-11, 1e-13))
        assert np.linalg.norm(x - cyc.points[k]) < 1e-8


def test_uniform_time_parameterization(radial_cycle):
    m, cyc = radial_cycle
    M = len(cyc.grid)
    for frac in (0.25, 0.5, 0.8):
        k = int(frac * M)
        x = pk.flow(m, cyc.anchor, cyc.period * k / M, tol=(1e-11, 1e-13))
        assert np.linalg.norm(x - cyc.points[k]) < 1e-8


def test_anchor_convention(radial_cycle):
    # theta = 0 sits at the section crossing with maximal first coordinate
    _, cyc = radial_cycle
    np.testing.assert_allclose(cyc.anchor, [1.0, 0.0], atol=1e-7)


@pytest.mark.parametrize("name,params", [
    ("radial", {}),
    ("spiral", {}),
    ("stuart_landau", {"omega": 2.0, "c2": 1.0}),
])
def test_floquet_builtin(name, params):
    m = pk.make_model(name, **params)
    cyc = find_limit_cycle(m, (1.5, 0.1))
    lam = floquet_exponent(m, cyc)
    assert abs(lam - (-2.0)) < 1e-4


def test_floquet_return_map_cross_check(radial_cycle):
    m, cyc = radial_cycle
    lam = floquet_exponent(m, cyc, method="return_map")
    # the multiplier exp(-4 pi) sits near roundoff; coarse agreement only
    assert lam < -1.0


def test_floquet_relaxation_liouville():
    # sum of exponents = time average of trace(Df) along the orbit; the
    # trivial exponent is zero, so lambda = mean of mu (1 - u^2) on the
    # uniform-in-time cycle grid
    m = pk.make_model("relaxation", mu=1.0)
    cyc = find_limit_cycle(m, (2.0, 0.0))
    lam = floquet_exponent(m, cyc)
    liouville = float(np.mean(1.0 - cyc.points[:, 0] ** 2))
    assert abs(lam - liouville) < 1e-6
    assert abs(lam - (-1.0594)) < 1e-3


def test_random_guesses_agree(radial_cycle):
    _, ref = radial_cycle
    rng = np.random.default_rng(3)
    for _ in range(10):
        ang = rng.uniform(0, TWO_PI)
        rad = rng.uniform(0.3, 1.9)
        guess = rad * np.array([math.cos(ang), math.sin(ang)])
        cyc = find_limit_cycle(pk.make_model("radial"), guess)
        assert abs(cyc.period - ref.period) < 1e-9
        # same anchor convention -> directly comparable grids
        assert np.max(np.linalg.norm(cyc.points - ref.points, axis=1)) < 1e-6


def test_convergence_rate_matches_floquet(radial_cycle):
    m, cyc = radial_cycle
    x0 = np.array([1.3, 0.0])
    ts = np.linspace(0.5, 4.0, 8)
    dists = []
    for t in ts:
        x = pk.flow(m, x0, float(t), tol=(1e-11, 1e-13))
        dists.append(abs(np.linalg.norm(x) - 1.0))
    rate = np.polyfit(ts, np.log(dists), 1)[0]
    assert abs(rate - cyc.floquet) < 0.05 * abs(cyc.floquet)


def test_gamma_at(radial_cycle):
    _, cyc = radial_cycle
    k = 37
    np.testing.assert_array_equal(cyc.gamma_at(cyc.grid[k]), cyc.points[k])
    np.testing.assert_allclose(cyc.gamma_at(math.pi / 3),
                               [math.cos(math.pi / 3), math.sin(math.pi / 3)],
                               atol=1e-8)
    np.testing.assert_allclose(cyc.gamma_at(TWO_PI), cyc.gamma_at(0.0),
                               atol=1e-12)


def test_unstable_cycle_rejected():
    # dr/dt = +0.02 r (r^2 - 1): unit circle is a weakly repelling orbit,
    # slow enough for the shooting to land on it before trajectories escape
    def f(x):
        r2 = x[0] ** 2 + x[1] ** 2
        g = 0.02 * (r2 - 1.0)
        return np.array([g * x[0] - x[1], g * x[1] + x[0]])

    m = pk.make_model("custom", f=f, dim=2, basin_radius=1e-3)
    with pytest.raises(UnstableCycleError):
        find_limit_cycle(m, (1.01, 0.0))


@pytest.mark.parametrize("grid_size", [0, 3, -2])
def test_grid_size_must_be_positive_and_even(grid_size):
    with pytest.raises(ValueError, match="positive even"):
        pk.find_limit_cycle(pk.make_model("radial"), (1.5, 0.1),
                            grid_size=grid_size)


@pytest.mark.parametrize("values_shape", [(64,), (64, 3)])
def test_interpolant_jet_matches_separate_calls_bitwise(values_shape):
    rng = np.random.default_rng(3)
    interp = pk.PeriodicInterpolant(rng.normal(size=values_shape))
    for theta in (0.7, rng.uniform(0.0, TWO_PI, 50),
                  rng.uniform(-3.0, 9.0, (4, 5))):
        g, dg, d2g = interp.jet(theta)
        np.testing.assert_array_equal(g, interp(theta))
        np.testing.assert_array_equal(dg, interp.derivative(theta))
        np.testing.assert_array_equal(d2g, interp.derivative(theta, order=2))


def _unblocked_project(cycle, pts):
    """LimitCycle.project as one pass over the whole stack."""
    d2 = ((pts[:, None, :] - cycle.points[None, :, :]) ** 2).sum(axis=2)
    theta = cycle.grid[np.argmin(d2, axis=1)].astype(float)
    interp = cycle._interp
    for _ in range(4):
        g = interp(theta)
        dg = interp.derivative(theta)
        d2g = interp.derivative(theta, order=2)
        res = ((pts - g) * dg).sum(axis=1)
        slope = -(dg * dg).sum(axis=1) + ((pts - g) * d2g).sum(axis=1)
        theta = theta - res / slope
    theta = np.mod(theta, TWO_PI)
    return theta, np.linalg.norm(pts - interp(theta), axis=1)


def _project_stack(k, seed=11):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, TWO_PI, k)
    rad = rng.uniform(0.3, 2.0, k)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


_BLOCKED_CHECK = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import phasekit as pk
from test_cycles import _PROJECT_CHUNK, _project_stack, _unblocked_project
cyc = pk.find_limit_cycle(pk.make_model("spiral"), (0.5, 0.5))
for k in (_PROJECT_CHUNK + 1, _PROJECT_CHUNK + 2, 2 * _PROJECT_CHUNK + 3):
    pts = _project_stack(k)
    for got, want in zip(cyc.project(pts), _unblocked_project(cyc, pts)):
        np.testing.assert_array_equal(got, want)
"""


def test_blocked_project_matches_one_pass_bitwise():
    # Run with one BLAS thread: threaded BLAS moves the last bits of the
    # product with its thread count, for one pass and blocks alike.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_CHECK, os.path.dirname(__file__)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_project_rows_match_single_states(spiral_cycle):
    # A single state runs numpy's one-row product, so it agrees with its row
    # of a stack to rounding rather than bit for bit.
    _, cyc = spiral_cycle
    pts = _project_stack(_PROJECT_CHUNK + 2)
    theta, dist = cyc.project(pts)
    for i in (0, _PROJECT_CHUNK - 1, _PROJECT_CHUNK, _PROJECT_CHUNK + 1):
        th_i, d_i = cyc.project(pts[i])
        assert abs(th_i - theta[i]) < 1e-12
        assert abs(d_i - dist[i]) < 1e-12


def test_project_of_an_empty_stack(spiral_cycle):
    _, cyc = spiral_cycle
    theta, dist = cyc.project(np.empty((0, 2)))
    assert theta.shape == (0,) and dist.shape == (0,)
