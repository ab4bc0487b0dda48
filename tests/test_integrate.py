import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import phasekit as pk
from phasekit import IntegrationError, NoCrossingError, Section
from phasekit.cycles import _jacobian_fn
from phasekit.ode import _endpoint, flow_batch

from conftest import with_decaying_axis


def radial_radius(r0, t):
    """Closed form for dr/dt = r(1 - r^2)."""
    e = math.exp(2.0 * t)
    return math.sqrt(r0 * r0 * e / (1.0 - r0 * r0 + r0 * r0 * e))


def test_radial_closed_form():
    m = pk.make_model("radial")
    traj = pk.integrate(m, np.array([2.0, 0.0]), (0.0, 1.0),
                        tol=(1e-10, 1e-12))
    r = np.linalg.norm(traj.states[-1])
    assert abs(r - radial_radius(2.0, 1.0)) < 1e-9


def test_on_cycle_rotation():
    m = pk.make_model("radial")
    x = pk.flow(m, np.array([1.0, 0.0]), math.pi / 2, tol=(1e-11, 1e-13))
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-9)


def test_zero_span_identity():
    m = pk.make_model("radial")
    traj = pk.integrate(m, np.array([1.3, 0.2]), (0.0, 0.0))
    assert len(traj.times) == 1
    np.testing.assert_allclose(traj.states[0], [1.3, 0.2])
    x = pk.flow(m, np.array([1.3, 0.2]), 0.0)
    np.testing.assert_allclose(x, [1.3, 0.2])


def test_group_property_single():
    m = pk.make_model("radial")
    x0 = np.array([1.5, 0.2])
    tol = (1e-9, 1e-11)
    once = pk.flow(m, x0, 1.4, tol=tol)
    twice = pk.flow(m, pk.flow(m, x0, 0.7, tol=tol), 0.7, tol=tol)
    assert np.linalg.norm(once - twice) < 10 * 1e-8


def test_group_property_random():
    m = pk.make_model("radial")
    rng = np.random.default_rng(7)
    tol = (1e-9, 1e-11)
    for _ in range(100):
        ang = rng.uniform(0, 2 * math.pi)
        rad = rng.uniform(0.4, 1.8)
        x0 = rad * np.array([math.cos(ang), math.sin(ang)])
        t, s = rng.uniform(0.1, 1.2, size=2)
        a = pk.flow(m, x0, t + s, tol=tol)
        b = pk.flow(m, pk.flow(m, x0, s, tol=tol), t, tol=tol)
        assert np.linalg.norm(a - b) < 100 * 1e-8


def spiral_stack():
    rng = np.random.default_rng(3)
    ang = rng.uniform(0.0, 2 * math.pi, 12)
    rad = rng.uniform(0.5, 1.6, 12)
    return rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_flow_batch_forward_then_backward_is_identity():
    m = pk.make_model("spiral")
    x0 = spiral_stack()
    tol = (1e-11, 1e-13)
    ahead = flow_batch(m, x0, 2.0, tol=tol)
    assert np.abs(ahead - x0).max() > 0.1
    back = flow_batch(m, ahead, -2.0, tol=tol)
    assert np.abs(back - x0).max() < 1e-8


def test_flow_batch_rows_match_single_flows():
    m = pk.make_model("spiral")
    tol = (1e-11, 1e-13)
    x0 = spiral_stack()
    ahead = flow_batch(m, x0, 2.0, tol=tol)
    back = flow_batch(m, ahead, -2.0, tol=tol)
    for k in range(len(x0)):
        assert np.linalg.norm(ahead[k] - pk.flow(m, x0[k], 2.0, tol=tol)) < 1e-8
        assert np.linalg.norm(back[k] - pk.flow(m, ahead[k], -2.0, tol=tol)) < 1e-8


def solve_ivp_endpoint(rhs, x0, t_span, tol):
    """The endpoint as read off a full `solve_ivp` run (the reference)."""
    res = solve_ivp(rhs, t_span, x0, method="RK45", rtol=tol[0], atol=tol[1])
    assert res.status == 0
    return res.y[:, -1]


@pytest.mark.parametrize("t_span", [(0.0, 2.5), (0.0, -2.5), (1.0, 4.0)])
def test_endpoint_is_bit_identical_to_solve_ivp(t_span):
    m = pk.make_model("radial")
    rhs = lambda t, x: m.f(x)
    x0 = np.array([0.7, -0.2])
    for tol in [(1e-9, 1e-11), (1e-11, 1e-13)]:
        np.testing.assert_array_equal(_endpoint(rhs, x0, t_span, tol),
                                      solve_ivp_endpoint(rhs, x0, t_span, tol))


def test_endpoint_of_a_stack_is_bit_identical_to_solve_ivp():
    m = pk.make_model("spiral")
    x0 = spiral_stack()
    k, dim = x0.shape
    rhs = lambda t, y: m.f_batch(y.reshape(k, dim)).reshape(-1)
    tol = (1e-11, 1e-13)
    want = solve_ivp_endpoint(rhs, x0.reshape(-1), (0.0, 2.0), tol)
    np.testing.assert_array_equal(_endpoint(rhs, x0.reshape(-1), (0.0, 2.0), tol),
                                  want)
    np.testing.assert_array_equal(flow_batch(m, x0, 2.0, tol=tol),
                                  want.reshape(k, dim))


def test_variational_endpoint_is_bit_identical_to_solve_ivp():
    # the right-hand side floquet_exponent integrates over one period; it
    # integrates only for dim > 2
    m = with_decaying_axis(pk.make_model("radial"), 3.0)
    cyc = pk.find_limit_cycle(m, (1.5, 0.1, 0.5))
    jac = _jacobian_fn(m)
    n = m.dim

    def rhs(t, y):
        dphi = jac(y[:n]) @ y[n:].reshape(n, n)
        return np.concatenate([np.asarray(m.f(y[:n]), dtype=float),
                               dphi.reshape(-1)])

    y0 = np.concatenate([cyc.anchor, np.eye(n).reshape(-1)])
    tol = (1e-10, 1e-13)
    want = solve_ivp_endpoint(rhs, y0, (0.0, cyc.period), tol)
    np.testing.assert_array_equal(_endpoint(rhs, y0, (0.0, cyc.period), tol), want)
    mu = np.linalg.eigvals(want[n:].reshape(n, n))
    rest = np.delete(mu, np.argmin(np.abs(mu - 1.0)))
    mu_dom = np.max(np.abs(rest))
    assert pk.floquet_exponent(m, cyc) == float(np.log(mu_dom) / cyc.period)


def test_flow_batch_blow_up_is_an_integration_error():
    m = pk.OscillatorModel(name="custom", dim=1, f=lambda x: x ** 2,
                           basin_radius=None)
    with pytest.raises(IntegrationError, match="integration failed"):
        flow_batch(m, np.ones((3, 1)), 2.0)


def test_flow_batch_of_an_empty_stack():
    m = pk.make_model("spiral")
    assert flow_batch(m, np.empty((0, 2)), 2.0).shape == (0, 2)


def test_flow_batch_memory_is_bounded(spiral_cycle):
    # keeping every solver step costs ~1240x the stack; the endpoint ~15x
    m, cyc = spiral_cycle
    rng = np.random.default_rng(7)
    ang = rng.uniform(0.0, 2 * math.pi, 4000)
    rad = rng.uniform(0.3, 2.0, 4000)
    x0 = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tracemalloc.start()
    try:
        flow_batch(m, x0, cyc.period, tol=(1e-11, 1e-13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * x0.nbytes


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_flow_batch_group_law_on_stuart_landau(omega0, c2, s, t):
    m = pk.make_model("stuart_landau", omega=omega0 + c2, c2=c2)
    tol = (1e-11, 1e-13)
    x0 = spiral_stack()
    two_steps = flow_batch(m, flow_batch(m, x0, s, tol=tol), t, tol=tol)
    one_step = flow_batch(m, x0, s + t, tol=tol)
    assert np.abs(two_steps - one_step).max() < 1e-10


def test_spiral_period_return():
    m = pk.make_model("spiral")
    x = pk.flow(m, np.array([1.0, 0.0]), 2 * math.pi, tol=(1e-11, 1e-13))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-8)


def test_convergence_order():
    m = pk.make_model("radial")
    x0 = np.array([2.0, 0.0])
    exact = radial_radius(2.0, 1.0)
    errs = []
    for rtol in (1e-5, 1e-6, 1e-7, 1e-8):
        x = pk.flow(m, x0, 1.0, tol=(rtol, rtol * 1e-2))
        errs.append(abs(np.linalg.norm(x) - exact))
    # halving (here: decimating) tol must cut the endpoint error by >= 2x
    for a, b in zip(errs, errs[1:]):
        assert b < a / 2 or b < 1e-12


def test_trajectory_invariants():
    m = pk.make_model("radial")
    traj = pk.integrate(m, np.array([1.5, 0.1]), (0.0, 3.0))
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.shape == (len(traj.times), m.dim)


def test_integrate_honours_max_step():
    m = pk.make_model("radial")
    free = pk.integrate(m, np.array([1.5, 0.1]), (0.0, 3.0))
    capped = pk.integrate(m, np.array([1.5, 0.1]), (0.0, 3.0), max_step=0.05)
    # differences of the accumulated step times carry rounding
    assert np.max(np.diff(capped.times)) <= 0.05 + 1e-12
    assert len(capped.times) > len(free.times)


def test_find_crossing_on_cycle():
    m = pk.make_model("radial")
    sec = Section(s=lambda x: x[1], direction=+1)
    t_star, x_star = pk.find_crossing(m, np.array([1.0, 0.0]), sec,
                                      t_max=10.0)
    assert abs(t_star - 2 * math.pi) < 1e-6
    assert abs(x_star[1]) < 1e-10


def test_find_crossing_off_cycle():
    m = pk.make_model("radial")
    sec = Section(s=lambda x: x[1], direction=+1)
    t_star, x_star = pk.find_crossing(m, np.array([2.0, 0.0]), sec,
                                      t_max=10.0)
    assert abs(t_star - 2 * math.pi) < 0.1
    assert x_star[0] > 0 and x_star[0] < 2.0
    assert abs(x_star[1]) < 1e-10


def test_find_crossing_never():
    m = pk.make_model("radial")
    sec = Section(s=lambda x: x[0] - 10.0, direction=+1)
    with pytest.raises(NoCrossingError):
        pk.find_crossing(m, np.array([1.5, 0.0]), sec, t_max=30.0)


def test_direction_filtering():
    m = pk.make_model("radial")
    up = Section(s=lambda x: x[1], direction=+1)
    down = Section(s=lambda x: x[1], direction=-1)
    t_up, _ = pk.find_crossing(m, np.array([0.0, 1.0]), up, t_max=10.0)
    t_down, _ = pk.find_crossing(m, np.array([0.0, 1.0]), down, t_max=10.0)
    # starting at the top of the circle: downward crossing comes first
    assert abs(t_down - math.pi / 2) < 1e-6
    assert abs(t_up - 3 * math.pi / 2) < 1e-6
