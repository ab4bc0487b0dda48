import dataclasses
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phasekit as pk
import phasekit._parallel as parallel
from phasekit import LimitCycle, PhaselessStateError, phase
from phasekit.cycles import _PROJECT_CHUNK, _row_blocks
from phasekit.ode import flow_batch
from phasekit.phase import _SETTLED_DIST

from conftest import circ_err, spiral_states, with_decaying_axis

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


def test_states_that_miss_the_settle_budget_raise(monkeypatch, spiral_cycle):
    m, cyc = spiral_cycle
    monkeypatch.setattr(phase, "_settle_budget", lambda cycle: 1)
    # the on-cycle state (1, 0) settles; the two off-cycle states cannot
    # come within 1e-9 of the cycle in one period
    states = np.array([[2.0, 0.0], [0.0, 0.5], [1.0, 0.0]])
    with pytest.raises(pk.PhaseConvergenceError,
                       match=r"^2 state\(s\) did not settle to the cycle "
                             r"within 1 periods") as info:
        pk.asymptotic_phase(m, cyc, states)
    worst = float(str(info.value).rsplit(" ", 1)[1].rstrip(")"))
    assert _SETTLED_DIST < worst < 1.0


@pytest.mark.parametrize("n_points", [0, -3, 2.5])
def test_isochron_needs_at_least_one_point(radial_cycle, n_points):
    m, cyc = radial_cycle
    with pytest.raises(ValueError, match="n_points"):
        pk.compute_isochron(m, cyc, 0.0, (0.3, 2.0), n_points=n_points)


@pytest.mark.parametrize("theta, radial_range, name", [
    (math.nan, (0.3, 2.0), "theta"),
    (-math.inf, (0.3, 2.0), "theta"),
    (0.0, (0.3, math.inf), "radial_range"),
    (0.0, (math.nan, 2.0), "radial_range"),
    (0.0, (0.3, 1.0, 2.0), "radial_range"),
])
def test_isochron_rejects_bad_input_before_the_adjoint(monkeypatch, radial_cycle,
                                                       theta, radial_range,
                                                       name):
    m, cyc = radial_cycle
    monkeypatch.setattr(phase, "phase_sensitivity",
                        lambda *args, **kwargs: pytest.fail("adjoint built"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be"):
            pk.compute_isochron(m, cyc, theta, radial_range, n_points=10)


def assert_on_target_radii(iso, cyc, radial_range, n_points):
    """Besides gamma(theta), iso holds n_points distinct points, each within
    1e-3 * |r - |gamma(theta)|| of its target radius r."""
    g0 = cyc.gamma_at(iso.theta)
    k = int(np.argmin(np.linalg.norm(iso.points - g0, axis=1)))
    assert np.array_equal(iso.points[k], g0)
    off = np.delete(iso.points, k, axis=0)
    targets = np.linspace(*radial_range, n_points)
    miss = np.abs(np.sort(np.linalg.norm(off, axis=1)) - targets)
    assert np.all(miss <= 1e-3 * np.abs(targets - np.linalg.norm(g0)))
    assert len(np.unique(off, axis=0)) == n_points


@pytest.mark.parametrize("fixture", ["radial_cycle", "spiral_cycle",
                                     "sl_cycle"])
def test_isochron_points_land_on_their_radii(request, fixture):
    m, cyc = request.getfixturevalue(fixture)
    sens = pk.phase_sensitivity(m, cyc)
    for theta in np.linspace(0.0, TWO_PI, 8, endpoint=False):
        iso = pk.compute_isochron(m, cyc, theta, (0.3, 2.0), n_points=125,
                                  sens=sens)
        assert_on_target_radii(iso, cyc, (0.3, 2.0), 125)
        # the closed-form phase of every point, the cycle point included
        assert circ_err(m.analytic_phase(iso.points), theta) < 1e-9


def test_isochron_points_near_the_cycle_land_on_their_radii(spiral_cycle,
                                                             spiral_sens):
    # radii within 1e-4 of |gamma(theta)| are placed on the isochron tangent
    # line; the spiral's tangent crosses the circles at 45 degrees, so a
    # step of r - |gamma| along it once missed by 29%
    m, cyc = spiral_cycle
    r0 = float(np.linalg.norm(cyc.gamma_at(0.0)))
    targets = np.linspace(r0 - 5e-5, r0 + 5e-5, 3)
    iso = pk.compute_isochron(m, cyc, 0.0, (targets[0], targets[-1]),
                              n_points=3, sens=spiral_sens)
    radii = np.linalg.norm(iso.points, axis=1)
    for end, r in ((0, targets[0]), (-1, targets[-1])):
        assert abs(radii[end] - r) <= 1e-3 * abs(r - r0)
    assert circ_err(m.analytic_phase(iso.points), 0.0) < 1e-8


def _states_near_the_cycle(cyc):
    """States at distance 0, 0.5e-9 and 2e-9 off a planar cycle, along its
    normal, at grid nodes and midway between them."""
    step = TWO_PI / cyc.grid_size
    out = []
    for k in (0, 37, 200):
        for theta in (k * step, (k + 0.5) * step):
            tangent = cyc._interp.derivative(theta)
            normal = np.array([tangent[1], -tangent[0]])
            normal /= np.linalg.norm(normal)
            for delta in (0.0, 0.5e-9, 2e-9):
                out.append(cyc.gamma_at(theta) + delta * normal)
    return np.array(out)


def _far_states(cyc, k):
    """k spiral states whose nearest grid node is out of the settle reach."""
    pts = spiral_states(4 * k, seed=3)
    _, d2 = cyc._nearest_nodes(pts)
    return pts[d2 > (4 * cyc._longest_chord) ** 2][:k]


def _stacks(cyc):
    near = _states_near_the_cycle(cyc)
    mixed = np.concatenate([_far_states(cyc, 40), near])
    mixed = mixed[np.random.default_rng(4).permutation(len(mixed))]
    # two blocks of the projection, each with exactly one state in reach
    lone = _far_states(cyc, _PROJECT_CHUNK + 10)
    lone[5] = near[4]
    lone[_PROJECT_CHUNK + 3] = near[10]
    return {"mixed": mixed, "one-in-reach": lone, "single-near": near[4],
            "single-far": lone[0], "empty": np.empty((0, 2))}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["mixed", "one-in-reach", "single-near",
                                  "single-far", "empty"])
def test_settle_reach_changes_no_phase(monkeypatch, spiral_cycle, name,
                                       workers):
    # the first pass skips Newton for states out of reach; asymptotic_phase
    # must give the bits of a first pass that projects every state
    model, cyc = spiral_cycle
    x = _stacks(cyc)[name]
    if name == "one-in-reach":
        _, d2 = cyc._nearest_nodes(x)
        in_reach = d2 <= (cyc._longest_chord + _SETTLED_DIST) ** 2
        assert [int(in_reach[lo:hi].sum()) for lo, hi
                in _row_blocks(len(x), _PROJECT_CHUNK)] == [1, 1]
    monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
    got = pk.asymptotic_phase(model, cyc, x)
    reaches = []
    block = LimitCycle._project_block

    def project_every_row(self, pts, reach):
        reaches.append(reach)
        return block(self, pts, np.inf)

    monkeypatch.setattr(LimitCycle, "_project_block", project_every_row)
    np.testing.assert_array_equal(got, pk.asymptotic_phase(model, cyc, x))
    if workers == 1:
        # the patch replaced a finite reach in each block's first pass
        blocks = _row_blocks(len(np.atleast_2d(x)), _PROJECT_CHUNK)
        assert reaches.count(cyc._longest_chord + _SETTLED_DIST) == \
            len(blocks)


def test_first_pass_evaluates_jets_only_for_states_in_reach(
        monkeypatch, spiral_cycle):
    # each block's settle first hands Newton exactly the block's states in
    # reach, and no jet evaluation before its first flow covers more rows
    model, cyc = spiral_cycle
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    log = []
    settle = phase._settle_block
    newton, taylor = LimitCycle._newton, LimitCycle._taylor
    monkeypatch.setattr(
        phase, "_settle_block",
        lambda model, cycle, pts, budget:
            log.append(("block", pts)) or settle(model, cycle, pts, budget))
    monkeypatch.setattr(
        LimitCycle, "_newton",
        lambda self, pts, nodes:
            log.append(("newton", pts)) or newton(self, pts, nodes))
    monkeypatch.setattr(
        LimitCycle, "_taylor",
        lambda self, theta, second=False:
            log.append(("jet", len(theta))) or taylor(self, theta, second))
    flow = phase.flow_batch
    monkeypatch.setattr(phase, "flow_batch",
                        lambda *args: log.append(("flow", None)) or flow(*args))
    pts = spiral_states(4099)
    pk.asymptotic_phase(model, cyc, pts)

    reach = cyc._longest_chord + _SETTLED_DIST
    starts = [i for i, (kind, _) in enumerate(log) if kind == "block"]
    blocks = _row_blocks(len(pts), _PROJECT_CHUNK)
    assert len(starts) == len(blocks) == 3
    in_reach = []
    for (lo, hi), start, end in zip(blocks, starts, starts[1:] + [len(log)]):
        np.testing.assert_array_equal(log[start][1], pts[lo:hi])
        d2 = ((pts[lo:hi, None, :] - cyc.points[None, :, :]) ** 2).sum(axis=2)
        near = pts[lo:hi][d2.min(axis=1) <= reach * reach]
        in_reach.append(len(near))
        kinds = [kind for kind, _ in log[start:end]]
        first_flow = kinds.index("flow")
        assert kinds[1] == "newton"
        np.testing.assert_array_equal(log[start + 1][1], near)
        for kind, rows in log[start + 2:start + first_flow]:
            assert kind == "jet" and rows <= len(near)
    # the two full blocks each hold some states in reach and many out of it
    assert all(0 < k < _PROJECT_CHUNK // 10 for k in in_reach[:2])


def _whole_stack_settle(model, cyc, x):
    """asymptotic_phase as one settle loop over the whole stack, as it ran
    before the stack was settled block by block: a first pass that refines
    only the states in reach, then rounds of one period's flow of the
    states still active and their projection."""
    pts = x.copy()
    theta, dist = cyc._project_block(pts, cyc._longest_chord + _SETTLED_DIST)
    done = dist < _SETTLED_DIST
    for _ in range(phase._settle_budget(cyc)):
        if np.all(done):
            break
        active = ~done
        pts[active] = flow_batch(model, pts[active], cyc.period,
                                 phase._GEOM_TOL)
        theta[active], dist[active] = cyc.project(pts[active])
        done = dist < _SETTLED_DIST
    assert np.all(done)
    return theta


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [228, _PROJECT_CHUNK + 1])
@pytest.mark.parametrize("cycle", ["spiral_cycle", "relaxation_cycle"])
def test_one_block_settles_as_the_whole_stack_loop(monkeypatch, request,
                                                   cycle, rows, workers):
    # a stack of one block (at most _PROJECT_CHUNK + 1 rows) is settled in
    # one loop in the parent, with the bits of the whole-stack loop
    model, cyc = request.getfixturevalue(cycle)[:2]
    monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
    x = spiral_states(rows, seed=7)
    assert len(_row_blocks(rows, _PROJECT_CHUNK)) == 1
    np.testing.assert_array_equal(pk.asymptotic_phase(model, cyc, x),
                                  _whole_stack_settle(model, cyc, x))


@pytest.mark.parametrize("workers", [1, 2])
def test_unsettled_states_in_two_blocks_raise_one_error(monkeypatch,
                                                        spiral_cycle, workers):
    # each block settles on its own; the one error counts the unsettled
    # states of every block and names the worst distance over all of them
    m, cyc = spiral_cycle
    monkeypatch.setattr(phase, "_settle_budget", lambda cycle: 1)
    monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
    states = np.resize(cyc.points, (2 * _PROJECT_CHUNK + 3, 2))
    far = {5: [2.0, 0.0], _PROJECT_CHUNK + 7: [0.0, 0.5]}
    dists = []
    for row, x in far.items():
        states[row] = x
        end = flow_batch(m, np.array([x]), cyc.period, phase._GEOM_TOL)
        dists.append(cyc.project(end)[1][0])
    assert [lo <= row < hi for row in far
            for lo, hi in _row_blocks(len(states), _PROJECT_CHUNK)] == \
        [True, False, False, False, True, False]
    assert _SETTLED_DIST < min(dists) and dists[0] != dists[1]
    message = (f"2 state(s) did not settle to the cycle within 1 periods "
               f"(worst residual distance {max(dists):.2e})")
    with pytest.raises(pk.PhaseConvergenceError,
                       match=f"^{re.escape(message)}$"):
        pk.asymptotic_phase(m, cyc, states)


@pytest.fixture(scope="module")
def relaxation_cycle():
    model = pk.make_model("relaxation", mu=1.0)
    cyc = pk.find_limit_cycle(model, (2.0, 0.0))
    return model, cyc, pk.phase_sensitivity(model, cyc)


@pytest.fixture(scope="module")
def stiff_relaxation_cycle():
    model = pk.make_model("relaxation", mu=3.0)
    cyc = pk.find_limit_cycle(model, (2.0, 0.0))
    return model, cyc, pk.phase_sensitivity(model, cyc)


@pytest.mark.parametrize("radial_range", [(0.3, 2.0), (0.5, 3.0)])
@pytest.mark.parametrize("theta", [0.0, math.pi])
def test_relaxation_isochron_reaches_inside_the_cycle(relaxation_cycle,
                                                      theta, radial_range):
    m, cyc, sens = relaxation_cycle
    iso = pk.compute_isochron(m, cyc, theta, radial_range, n_points=20,
                              sens=sens)
    phases = pk.asymptotic_phase(m, cyc, iso.points)
    assert circ_err(phases, np.full(len(iso.points), theta)) < 1e-4
    # radius folds along these isochrons: each point is the first crossing
    # of its radius, not one fold's radius repeated
    assert_on_target_radii(iso, cyc, radial_range, 20)


def test_stiff_relaxation_projects_its_own_points(stiff_relaxation_cycle):
    # four fixed Newton steps from the nearest node left theta off by up to
    # 2.9e-7 and the distance at 4.5e-6 on this cycle
    _, cyc, _ = stiff_relaxation_cycle
    theta = np.random.default_rng(7).uniform(0.0, TWO_PI, 2000)
    got, dist = cyc.project(cyc.gamma_at(theta))
    assert circ_err(got, theta) <= 1e-12
    assert dist.max() <= 1e-13


def test_stiff_relaxation_states_settle(stiff_relaxation_cycle):
    # 7 of these states once raised PhaseConvergenceError at a residual of
    # 4.8e-6 that was the projection's, not the flow's
    m, cyc, _ = stiff_relaxation_cycle
    rng = np.random.default_rng(5)
    angle = rng.uniform(0.0, TWO_PI, 4000)
    radius = rng.uniform(0.3, 2.0, 4000)
    x = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    theta = pk.asymptotic_phase(m, cyc, x)
    assert np.all((theta >= 0.0) & (theta < TWO_PI))


@pytest.mark.parametrize("radial_range", [(0.3, 2.0), (0.5, 3.0), (1.0, 4.0)])
def test_stiff_relaxation_isochron_lands_on_its_radii_or_raises(
        stiff_relaxation_cycle, radial_range):
    # at mu = 3 the backward map is stiff and many sides cannot be mapped:
    # those raise IsochronError, with no other exception and no warning,
    # and every isochron returned lands on its radii
    m, cyc, sens = stiff_relaxation_cycle
    for theta in np.linspace(0.0, TWO_PI, 8, endpoint=False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                iso = pk.compute_isochron(m, cyc, theta, radial_range,
                                          n_points=20, sens=sens)
            except pk.IsochronError:
                continue
        assert_on_target_radii(iso, cyc, radial_range, 20)


def test_isochron_depth_stops_before_seeds_reach_roundoff(monkeypatch,
                                                          spiral_cycle):
    # every depth "fails": the side is retried one period deeper until the
    # smallest seed would drop below 1e3 * eps * |gamma(theta)|
    m, cyc = spiral_cycle
    depths = []
    monkeypatch.setattr(phase, "_map_isochron_depth",
                        lambda *args: depths.append(args[-1]))
    with pytest.raises(pk.IsochronError, match="unreachable") as err:
        pk.compute_isochron(m, cyc, 0.0, (1.5, 2.0), n_points=5)
    assert depths == list(range(depths[0], depths[-1] + 1))
    assert f"after {', '.join(map(str, depths))} backward periods" \
        in str(err.value)
    assert "widen" not in str(err.value)
    floor = 1e3 * np.finfo(float).eps * np.linalg.norm(cyc.gamma_at(0.0))
    gain = math.exp(cyc.floquet * cyc.period)
    assert 0.5 * gain ** depths[-1] >= floor > 0.5 * gain ** (depths[-1] + 1)


# ---------------------------------------------------------------------------
# Adjoint by Fourier collocation
# ---------------------------------------------------------------------------

def unit_circle_cycle(period, m=256, dim=2):
    """The unit-circle cycle from its closed form: exact nodes and period,
    with any axes past the first two at zero."""
    grid = TWO_PI * np.arange(m) / m
    pts = np.zeros((m, dim))
    pts[:, 0], pts[:, 1] = np.cos(grid), np.sin(grid)
    return LimitCycle(period=period, grid=grid, points=pts,
                      anchor=pts[0].copy(), floquet=-2.0)


@pytest.mark.parametrize("model, period, bound", [
    # the integrated adjoint gave 8.3e-13 and 1.2e-11 on the spiral and
    # Stuart-Landau cycles; collocation measured 2.7e-14 and 2.8e-14, and
    # 8.0e-15 on the radial one
    (pk.make_model("spiral"), TWO_PI, 4.3e-13),
    (pk.make_model("stuart_landau", omega=3.0, c2=1.0), math.pi, 4.9e-13),
    (pk.make_model("radial"), TWO_PI, 4.3e-13),
], ids=["spiral", "stuart_landau", "radial"])
def test_adjoint_matches_the_closed_form_on_exact_cycles(model, period, bound):
    sens = pk.phase_sensitivity(model, unit_circle_cycle(period))
    assert np.max(np.abs(sens.values - model.analytic_prc(sens.grid))) < bound


@pytest.mark.parametrize("mu, bound", [(1.0, 1e-4), (3.0, 1e-5)])
def test_adjoint_agrees_with_finite_differences_on_relaxation(mu, bound):
    # at mu = 1 the gap is 8.0e-5, at nodes 1, 127, 129 and 255, with the
    # integrated adjoint as with collocation; elsewhere it is below 1e-5
    m = pk.make_model("relaxation", mu=mu)
    cyc = pk.find_limit_cycle(m, (2.0, 0.0))
    za = pk.phase_sensitivity(m, cyc, method="adjoint").values
    zf = pk.phase_sensitivity(m, cyc, method="finite_difference").values
    gap = np.abs(za - zf)
    assert gap.max() < bound
    assert np.median(gap) < 1e-6


def test_adjoint_of_a_cycle_with_a_decaying_axis():
    # the planar closed form, and no sensitivity along the decaying axis;
    # f vanishes along that axis, so L's dependent row must be chosen
    spiral = pk.make_model("spiral")
    m = with_decaying_axis(spiral, 3.0)
    sens = pk.phase_sensitivity(m, unit_circle_cycle(TWO_PI, m=128, dim=3))
    assert np.max(np.abs(sens.values[:, :2]
                         - spiral.analytic_prc(sens.grid))) < 4.3e-13
    assert np.max(np.abs(sens.values[:, 2])) < 1e-13


def test_adjoint_rejects_a_cycle_that_does_not_fit_its_field(spiral_cycle):
    m, cyc = spiral_cycle
    mistimed = dataclasses.replace(cyc, period=1.01 * cyc.period)
    with pytest.raises(pk.PhaseConvergenceError, match="residual"):
        pk.phase_sensitivity(m, mistimed)


def test_adjoint_size_guard_fails_before_allocating():
    # grid 4096 in 2-D would need a 512 MiB collocation matrix
    start = time.perf_counter()
    with pytest.raises(ValueError, match="grid_size \\* dim <= 2048"):
        pk.phase_sensitivity(pk.make_model("spiral"),
                             unit_circle_cycle(TWO_PI, m=4096))
    assert time.perf_counter() - start < 1.0


def test_adjoint_runs_no_integration(monkeypatch, spiral_cycle):
    m, cyc = spiral_cycle

    def no_integration(*args, **kwargs):
        raise AssertionError("the adjoint integrated")

    # every integration looks this name up at call time
    monkeypatch.setattr("phasekit.ode.solve_ivp", no_integration)
    sens = pk.phase_sensitivity(m, cyc)
    assert np.max(np.abs(sens.values - m.analytic_prc(sens.grid))) < 1e-10
