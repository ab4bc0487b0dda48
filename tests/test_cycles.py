import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import phasekit as pk
import phasekit._parallel as parallel
from phasekit import UnstableCycleError, find_limit_cycle, floquet_exponent
from phasekit.cycles import _JET_TERMS, _PROJECT_CHUNK, _row_blocks

from conftest import (circ_err, scalar_only_radial, spiral_states,
                      with_decaying_axis)

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
    assert abs(lam - (-2.0)) < 1e-8


@pytest.mark.parametrize("c2", [-1.0, 0.0, 1.0])
def test_floquet_of_a_slow_stuart_landau_cycle(c2):
    # omega0 = 0.3: the multiplier exp(-2 T) = e^-42 is far below roundoff,
    # where a monodromy eigenvalue is noise; Liouville's formula is not
    m = pk.make_model("stuart_landau", omega=0.3 + c2, c2=c2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cyc = find_limit_cycle(m, (1.5, 0.1))
        lam = floquet_exponent(m, cyc)
    assert abs(lam - (-2.0)) < 1e-8
    assert cyc.floquet == lam


def test_floquet_of_a_stiff_relaxation_cycle():
    # oracle: (1/T) * integral of mu (1 - u^2) along the orbit by DOP853 at
    # rtol 1e-13; the multiplier is e^-34.9
    m = pk.make_model("relaxation", mu=3.0)
    cyc = find_limit_cycle(m, (2.0, 0.0))
    assert abs(floquet_exponent(m, cyc) - (-3.93911)) < 1e-5


def test_floquet_by_finite_difference_jacobian():
    m = scalar_only_radial()
    assert m.jacobian is None
    cyc = find_limit_cycle(m, (1.5, 0.1))
    assert abs(floquet_exponent(m, cyc) - (-2.0)) < 1e-6


def test_planar_floquet_runs_no_integration(radial_cycle, monkeypatch):
    m, cyc = radial_cycle

    def no_solve(*args, **kwargs):
        raise AssertionError("planar Floquet exponent integrated")

    monkeypatch.setattr("phasekit.ode.solve_ivp", no_solve)
    assert floquet_exponent(m, cyc) == cyc.floquet


def test_floquet_relaxation_liouville():
    # the variational monodromy of the relaxation cycle times dz/dt = -5z
    # is an independent oracle for the planar trace formula
    m = pk.make_model("relaxation", mu=1.0)
    cyc = find_limit_cycle(m, (2.0, 0.0))
    lam = floquet_exponent(m, cyc)
    m3 = with_decaying_axis(m, 5.0)
    cyc3 = find_limit_cycle(m3, (2.0, 0.0, 0.5))
    assert abs(cyc3.floquet - lam) < 1e-6
    assert abs(lam - (-1.0594)) < 1e-3


def test_variational_floquet_of_an_embedded_cycle():
    m = with_decaying_axis(pk.make_model("stuart_landau", omega=2.0, c2=1.0), 3.0)
    cyc = find_limit_cycle(m, (1.5, 0.1, 0.5))
    np.testing.assert_allclose(cyc.points[:, 2], 0.0, atol=1e-9)
    assert abs(floquet_exponent(m, cyc) - (-2.0)) < 1e-6


def test_variational_floquet_below_roundoff_raises():
    # omega0 = 0.3: the multipliers e^-42 and e^-63 both sit below roundoff
    m = with_decaying_axis(pk.make_model("stuart_landau", omega=0.3, c2=0.0), 3.0)
    with pytest.raises(FloatingPointError, match="multiplier"):
        find_limit_cycle(m, (1.5, 0.1, 0.5))


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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_shooting_tol_must_be_positive(tol, monkeypatch):
    def no_crossing(*args, **kwargs):
        raise AssertionError("shooting integrated")

    monkeypatch.setattr("phasekit.cycles.find_crossing", no_crossing)
    with pytest.raises(ValueError, match="tol must be positive"):
        pk.find_limit_cycle(pk.make_model("radial"), (1.5, 0.1), tol=tol)


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


def _trig_polynomial(m, d, rng):
    """Coefficients (a, b), each (m/2 + 1, d), of a real trigonometric
    polynomial sum_k a_k cos(k theta) + b_k sin(k theta) that an m-point
    grid resolves: b_0 = 0 and, at the Nyquist harmonic k = m/2, b_N = 0
    (sin(N theta) vanishes on the grid) but a_N is not."""
    k = np.arange(m // 2 + 1)[:, None]
    decay = 1.0 / (1.0 + k) ** 2
    a = rng.normal(size=(len(k), d)) * decay
    b = rng.normal(size=(len(k), d)) * decay
    b[0] = b[-1] = 0.0
    a[-1] = 0.5 + np.arange(d)
    return a, b


def _trig_derivative(a, b, theta, order):
    """The order-th derivative of the polynomial _trig_polynomial describes,
    at the phases theta, and the sum of its terms' magnitudes."""
    k = np.arange(len(a))
    arg = np.multiply.outer(theta, k) + order * math.pi / 2
    scale = k ** float(order)
    value = (np.cos(arg) * scale) @ a + (np.sin(arg) * scale) @ b
    return value, (scale @ (np.abs(a) + np.abs(b))).max()


@pytest.mark.parametrize("m", [8, 256])
@pytest.mark.parametrize("d", [None, 3])
def test_interpolant_nyquist_term_is_the_pure_cosine(m, d):
    rng = np.random.default_rng(m)
    a, b = _trig_polynomial(m, d or 1, rng)
    grid = TWO_PI * np.arange(m) / m
    samples = _trig_derivative(a, b, grid, 0)[0]
    if d is None:
        samples = samples[:, 0]
    # real samples give a real Nyquist coefficient, bit for bit
    assert np.all(np.fft.rfft(samples, axis=0)[-1].imag == 0.0)
    interp = pk.PeriodicInterpolant(samples)
    off_grid = grid[:-1] + rng.uniform(0.1, 0.9, m - 1) * TWO_PI / m
    theta = np.concatenate([off_grid, rng.uniform(-20.0, 20.0, 200)])
    for order in range(5):
        got = interp(theta) if order == 0 else interp.derivative(theta, order)
        want, scale = _trig_derivative(a, b, theta, order)
        if d is None:
            want = want[:, 0]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def _fourier_table_project(cycle, pts):
    """LimitCycle.project as it was before the per-node jets: four Newton
    steps from the nearest node, each on the full Fourier sums."""
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


def _one_pass_project(cycle, pts):
    """LimitCycle.project as one Newton pass over the whole stack, from the
    nearest nodes of one (rows, M, dim) array of differences."""
    d2 = ((pts[:, None, :] - cycle.points[None, :, :]) ** 2).sum(axis=2)
    return cycle._newton(pts, np.argmin(d2, axis=1))


def test_blocked_project_matches_one_pass_bitwise(monkeypatch, spiral_cycle):
    # a row's projection depends on that row alone, so blocks, and the
    # worker processes that run them, leave its bits unchanged
    _, cyc = spiral_cycle
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
        for k in (_PROJECT_CHUNK + 1, _PROJECT_CHUNK + 2,
                  2 * _PROJECT_CHUNK + 3):
            pts = spiral_states(k)
            for got, want in zip(cyc.project(pts),
                                 _one_pass_project(cyc, pts)):
                np.testing.assert_array_equal(got, want)


def run_with_one_blas_thread(script):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.dirname(__file__)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


_PRODUCT_CHECK = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import phasekit as pk
rng = np.random.default_rng(2)
w = rng.normal(size=(129, 2)) + 1j * rng.normal(size=(129, 2))
for shape in ((2, 129), (1000, 129), (3, 300, 129)):
    e = np.exp(1j * rng.uniform(0.0, 7.0, shape))
    np.testing.assert_array_equal(pk.PeriodicInterpolant._product(e, w), e @ w)
"""


def test_interpolant_product_in_blocks_matches_one_product_bitwise():
    run_with_one_blas_thread(_PRODUCT_CHECK)


@pytest.mark.parametrize("n, size", [(0, 4), (1, 4), (4, 4), (5, 4), (6, 4),
                                     (9, 4), (10, 4), (4099, 2048)])
def test_row_blocks_cover_the_rows_without_a_lone_row(n, size):
    bounds = _row_blocks(n, size)
    starts = [lo for lo, _ in bounds] + [n]
    assert starts[0] == 0
    assert [hi for _, hi in bounds] == starts[1:]
    for lo, hi in bounds:
        assert hi - lo <= size + 1 and (hi - lo >= 2 or n == 1)
    if 0 < n <= size + 1:
        assert bounds == [(0, n)]


def test_project_rows_match_single_states(spiral_cycle):
    # each row stops on its own step, so a single state has the bits of its
    # row in a stack
    _, cyc = spiral_cycle
    pts = spiral_states(_PROJECT_CHUNK + 2)
    theta, dist = cyc.project(pts)
    for i in (0, _PROJECT_CHUNK - 1, _PROJECT_CHUNK, _PROJECT_CHUNK + 1):
        np.testing.assert_array_equal(cyc.project(pts[i]),
                                      (theta[i], dist[i]))


def test_project_of_an_empty_stack(spiral_cycle):
    _, cyc = spiral_cycle
    theta, dist = cyc.project(np.empty((0, 2)))
    assert theta.shape == (0,) and dist.shape == (0,)


def test_projection_steps_match_the_one_array_formulas_bitwise(spiral_cycle):
    # the per-coordinate node search against one (rows, M, dim) array of
    # differences, bit for bit, and the jet Newton against the Fourier-table
    # Newton it replaces, on planar and 3-D cycles
    model, planar = spiral_cycle
    solid = find_limit_cycle(with_decaying_axis(model, 3.0), (1.5, 0.1, 0.5))
    for cyc in (planar, solid):
        for k in (1, 2, 127, 2049):
            pts = spiral_states(k)
            if cyc.points.shape[1] == 3:
                pts = np.column_stack([pts, np.linspace(-0.5, 0.5, k)])
            d2 = ((pts[:, None, :] - cyc.points[None, :, :]) ** 2).sum(axis=2)
            nodes, node_d2 = cyc._nearest_nodes(pts)
            np.testing.assert_array_equal(nodes, np.argmin(d2, axis=1))
            np.testing.assert_array_equal(node_d2, d2.min(axis=1))
            theta, dist = cyc._newton(pts, nodes)
            for got, want in zip(cyc.project(pts), (theta, dist)):
                np.testing.assert_array_equal(got, want)
            old_theta, old_dist = _fourier_table_project(cyc, pts)
            assert circ_err(theta, old_theta) <= 1e-13
            assert np.abs(dist - old_dist).max() <= 1e-13


@pytest.mark.parametrize("name, params, guess", [
    ("spiral", {}, (0.5, 0.5)),
    ("relaxation", {"mu": 1.0}, (2.0, 0.0)),
    ("relaxation", {"mu": 3.0}, (2.0, 0.0)),
])
def test_node_jets_reproduce_the_fourier_sums(name, params, guess):
    # the Taylor jet of the nearest node, within half a node spacing,
    # against the interpolant's value and first two derivatives
    cyc = find_limit_cycle(pk.make_model(name, **params), guess)
    theta = np.random.default_rng(6).uniform(-1.0, 7.5, 500)
    h = TWO_PI / cyc.grid_size
    got = cyc._taylor(theta, second=True)
    want = cyc._interp.jet(theta)
    for order, (g, w) in enumerate(zip(got, want)):
        scale = np.abs(w).max()
        assert np.abs(g / h ** order - w).max() <= 2e-14 * scale
    np.testing.assert_array_equal(cyc._taylor(theta), got[0])


def _node_jets_from_one_table(interp, terms):
    """PeriodicInterpolant._node_jets as it was built before: one (m, m/2+1)
    table of every node's exponentials, then the blocked product."""
    k = interp._k
    ratio = 1j * (TWO_PI / interp.m) * k[:, None] / np.arange(1, terms)
    scale = np.cumprod(np.hstack([np.ones((len(k), 1)), ratio]), axis=1)
    w = (scale[:, :, None] * interp._weights[:, None, :]).reshape(
        len(k), terms * interp.d)
    e = interp._phases(TWO_PI * np.arange(interp.m) / interp.m)
    return np.real(interp._product(e, w)).reshape(interp.m, terms, interp.d)


@pytest.mark.parametrize("name, params, guess", [
    ("spiral", {}, (0.5, 0.5)),
    ("relaxation", {"mu": 3.0}, (2.0, 0.0)),
    ("spiral-3d", {}, (1.5, 0.1, 0.5)),
])
def test_node_jets_block_by_block_match_the_one_table_bitwise(
        monkeypatch, name, params, guess):
    # each block's exponentials are the same np.exp of the same phases as
    # the table's rows, so the jets keep their bits; no table of more rows
    # than one product block is built
    if name == "spiral-3d":
        model = with_decaying_axis(pk.make_model("spiral"), 3.0)
    else:
        model = pk.make_model(name, **params)
    cyc = find_limit_cycle(model, guess)
    interp = cyc._interp
    np.testing.assert_array_equal(cyc._jets,
                                  _node_jets_from_one_table(interp, _JET_TERMS))
    rows = []
    phases = pk.PeriodicInterpolant._phases
    monkeypatch.setattr(pk.PeriodicInterpolant, "_phases",
                        lambda self, theta:
                            rows.append(len(theta)) or phases(self, theta))
    np.testing.assert_array_equal(interp._node_jets(_JET_TERMS), cyc._jets)
    assert sum(rows) == cyc.grid_size and max(rows) <= 5


def test_building_a_cycle_holds_no_table_of_every_node():
    # the (M, M/2+1) complex table of the node exponentials alone is
    # 0.53 MB at M = 256; building the cycle's jets now peaks below it
    model = pk.make_model("spiral")
    cyc = find_limit_cycle(model, (0.5, 0.5))
    table = cyc.grid_size * (cyc.grid_size // 2 + 1) * 16
    tracemalloc.start()
    try:
        pk.LimitCycle(period=cyc.period, grid=cyc.grid, points=cyc.points,
                      anchor=cyc.anchor, floquet=cyc.floquet)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table


@pytest.mark.parametrize("name, params, guess", [
    ("radial", {}, (1.7, 0.1)),
    ("spiral", {}, (0.5, 0.5)),
    ("relaxation", {"mu": 1.0}, (2.0, 0.0)),
    ("relaxation", {"mu": 3.0}, (2.0, 0.0)),
    ("stuart_landau", {"omega": 2.0, "c2": 1.0}, (1.5, 0.1)),
    ("spiral-3d", {}, (1.5, 0.1, 0.5)),
])
def test_interpolant_stays_within_a_chord_of_the_nodes(name, params, guess):
    # asymptotic_phase refines a state only if a node lies within the
    # longest chord (plus its settled distance) of it; that is exact only if
    # no interpolant point lies farther than the chord from every node
    if name == "spiral-3d":
        model = with_decaying_axis(pk.make_model("spiral"), 3.0)
    else:
        model = pk.make_model(name, **params)
    cyc = find_limit_cycle(model, guess)
    fine = TWO_PI * np.arange(16 * cyc.grid_size) / (16 * cyc.grid_size)
    _, d2 = cyc._nearest_nodes(cyc._interp(fine))
    assert np.sqrt(d2.max()) <= cyc._longest_chord
