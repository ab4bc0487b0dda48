import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import phasekit as pk
from phasekit import IntegrationError, NoCrossingError, Section
from phasekit.cycles import _jacobian_fn
from phasekit import ode
from phasekit.ode import DEFAULT_TOL, _solver_tol, flow_batch

from conftest import circ_err, spiral_states, with_decaying_axis, within


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


def scipy_run(rhs, x0, t_span, tol, **options):
    """The reference: scipy's own DOP853 at the tolerances `ode` maps tol
    to, with every event terminal as in `ode.solve_ivp`."""
    rtol, atol = _solver_tol(tol)
    for event in options.get("events", ()):
        event.terminal = True
    return solve_ivp(rhs, t_span, x0, method="DOP853", rtol=rtol, atol=atol,
                     **options)


def solve_ivp_endpoint(rhs, x0, t_span, tol):
    """The endpoint as read off a full scipy run."""
    res = scipy_run(rhs, x0, t_span, tol)
    assert res.status == 0
    return res.y[:, -1]


def endpoint(rhs, x0, t_span, tol):
    return ode.solve_ivp(rhs, t_span, x0, tol, endpoint=True).y[:, -1]


def assert_same_run(ours, ref):
    """Every field `ode.solve_ivp` keeps is scipy's, bit for bit."""
    np.testing.assert_array_equal(ours.t, ref.t)
    np.testing.assert_array_equal(ours.y, ref.y)
    assert (ours.status, ours.message, ours.nfev) == (ref.status, ref.message,
                                                      ref.nfev)
    assert len(ours.t_events) == len(ref.t_events or [])
    for mine, theirs in zip(ours.t_events, ref.t_events or []):
        np.testing.assert_array_equal(mine, theirs)
    for mine, theirs in zip(ours.y_events, ref.y_events or []):
        np.testing.assert_array_equal(mine, theirs)


@pytest.mark.parametrize("t_span", [(0.0, 2.5), (0.0, -2.5), (1.0, 4.0)])
def test_endpoint_is_bit_identical_to_solve_ivp(t_span):
    m = pk.make_model("radial")
    rhs = lambda t, x: m.f(x)
    x0 = np.array([0.7, -0.2])
    for tol in [(1e-9, 1e-11), (1e-11, 1e-13)]:
        np.testing.assert_array_equal(endpoint(rhs, x0, t_span, tol),
                                      solve_ivp_endpoint(rhs, x0, t_span, tol))


def test_endpoint_of_a_stack_is_bit_identical_to_solve_ivp():
    m = pk.make_model("spiral")
    x0 = spiral_stack()
    k, dim = x0.shape
    rhs = lambda t, y: m.f_batch(y.reshape(k, dim)).reshape(-1)
    tol = (1e-11, 1e-13)
    want = solve_ivp_endpoint(rhs, x0.reshape(-1), (0.0, 2.0), tol)
    np.testing.assert_array_equal(endpoint(rhs, x0.reshape(-1), (0.0, 2.0), tol),
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
    np.testing.assert_array_equal(endpoint(rhs, y0, (0.0, cyc.period), tol), want)
    mu = np.linalg.eigvals(want[n:].reshape(n, n))
    rest = np.delete(mu, np.argmin(np.abs(mu - 1.0)))
    mu_dom = np.max(np.abs(rest))
    assert pk.floquet_exponent(m, cyc) == float(np.log(mu_dom) / cyc.period)


def escape_outcome(rhs, x0, t_span, r_cap, tol=(1e-11, 1e-13)):
    """How an endpoint run with `escape` ends, checked against scipy's run
    with the same guard as a terminal upward event."""

    def escape(y):
        return float(np.linalg.norm(y) - r_cap)

    def event(t, y):
        return escape(y)

    event.direction = +1
    x0 = np.asarray(x0, dtype=float)
    res = scipy_run(rhs, x0, t_span, tol, events=[event])
    if res.status == -1:
        with pytest.raises(IntegrationError) as info:
            ode.solve_ivp(rhs, t_span, x0, tol, endpoint=True, escape=escape)
        assert str(info.value) == f"integration failed: {res.message}"
        return "failed"
    got = ode.solve_ivp(rhs, t_span, x0, tol, endpoint=True, escape=escape)
    assert got.status == res.status
    # scipy's extra three calls build the interpolant its root search reads
    assert got.nfev == res.nfev - (3 if res.status == 1 else 0)
    if res.status == 1:
        return "escaped"
    assert res.status == 0
    np.testing.assert_array_equal(got.y[:, -1], res.y[:, -1])
    np.testing.assert_array_equal(got.t, res.t[-1:])
    return "finished"


@pytest.mark.parametrize("x0, t_span, outcome", [
    ((1.05, 0.0), (0.0, -6 * math.pi), "escaped"),
    ((1.0 + 1e-6, 0.0), (0.0, -2 * math.pi), "finished"),
    ((3.0, 0.0), (0.0, 2.0), "finished"),        # starts beyond the cap
], ids=["escapes", "stays-inside", "starts-beyond"])
def test_endpoint_escape_guard_matches_a_terminal_event(x0, t_span, outcome):
    m = pk.make_model("spiral")
    assert escape_outcome(lambda t, x: m.f(x), x0, t_span, 2.0) == outcome


def test_endpoint_escape_guard_on_a_blow_up_is_an_integration_error():
    assert escape_outcome(lambda t, x: x ** 2, [1.0], (0.0, 2.0),
                          np.inf) == "failed"


def test_flow_batch_blow_up_is_an_integration_error():
    m = pk.OscillatorModel(name="custom", dim=1, f=lambda x: x ** 2,
                           basin_radius=None)
    with pytest.raises(IntegrationError, match="integration failed"):
        flow_batch(m, np.ones((3, 1)), 2.0)


def test_basin_guard_stops_a_trajectory_on_entry():
    # x' = -x from radius 1 enters the ball of radius 1e-3 at t = ln 1000
    m = pk.make_model("custom", f=lambda x: -x, dim=2, basin_radius=1e-3,
                      vectorized=True)
    at_entry = f"phaseless neighborhood at t = {math.log(1000.0):.6g}$"
    with pytest.raises(pk.PhaselessStateError, match=at_entry):
        pk.integrate(m, [1.0, 0.0], (0.0, 20.0))
    with pytest.raises(pk.PhaselessStateError, match=at_entry):
        pk.flow(m, [1.0, 0.0], 20.0)
    # x[1] decays toward the section x[1] = 0 without reaching it
    with pytest.raises(pk.PhaselessStateError, match="before crossing"):
        pk.find_crossing(m, [1.0, -0.5], Section(lambda x: x[1]), 20.0)


def test_flow_batch_of_an_empty_stack():
    m = pk.make_model("spiral")
    assert flow_batch(m, np.empty((0, 2)), 2.0).shape == (0, 2)


def test_flow_batch_memory_is_bounded(spiral_cycle):
    # keeping every solver step costs ~1240x the stack; the endpoint ~30x
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


def closed_form_errors(model, cycle, period):
    """Errors of the period, the adjoint PRC and the asymptotic phase of 200
    seeded states against the model's closed forms."""
    sens = pk.phase_sensitivity(model, cycle)
    prc = np.max(np.abs(sens.values - model.analytic_prc(sens.grid)))
    pts = spiral_states(200)
    phase = circ_err(pk.asymptotic_phase(model, cycle, pts),
                     model.analytic_phase(pts))
    return abs(cycle.period - period), prc, phase


def test_closed_form_errors_on_spiral(spiral_cycle):
    # RK45 at the callers' tolerances gave 2.45e-9, 2.35e-9 and 4.98e-9 here
    period, prc, phase = closed_form_errors(*spiral_cycle, 2 * math.pi)
    assert period < 1e-10
    assert prc < 3e-10
    assert phase < 5e-10


def test_closed_form_errors_on_stuart_landau():
    # RK45 at the callers' tolerances gave 4.67e-10, 7.71e-10 and 3.93e-9 here
    m = pk.make_model("stuart_landau", omega=3.0, c2=1.0)
    cyc = pk.find_limit_cycle(m, (1.5, 0.1))
    period, prc, phase = closed_form_errors(m, cyc, math.pi)
    assert period < 4.7e-10
    assert prc < 7.8e-10
    assert phase < 4e-9


def test_solver_rtol_below_the_floor_is_a_value_error():
    m = pk.make_model("radial")
    rhs = lambda t, x: m.f(x)
    x0 = np.array([0.7, -0.2])
    runs = [lambda tol: ode.solve_ivp(rhs, (0.0, 1.0), x0, tol),
            lambda tol: endpoint(rhs, x0, (0.0, 1.0), tol),
            lambda tol: pk.flow(m, x0, 1.0, tol=tol)]
    for run in runs:
        with pytest.raises(ValueError, match="floor"):
            run((1e-13, 1e-15))
    # the tightest tolerance the toolkit asks for runs, and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            run((1e-12, 1e-14))


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


def test_flow_and_crossing_take_a_time_dependent_rhs():
    # a plain rhs(t, x) in place of a model: x' = cos t, y' = -y
    def rhs(t, x):
        return np.array([math.cos(t), -x[1]])

    tol = (1e-10, 1e-12)
    x = pk.flow(rhs, np.array([0.0, 1.0]), 1.3, tol=tol)
    np.testing.assert_allclose(x, [math.sin(1.3), math.exp(-1.3)], atol=1e-8)
    sec = Section(s=lambda x: x[0] - 0.5, direction=+1)
    t_star, x_star = pk.find_crossing(rhs, np.array([0.0, 1.0]), sec,
                                      t_max=10.0, tol=tol)
    assert abs(t_star - math.pi / 6) < 1e-8
    assert abs(x_star[1] - math.exp(-math.pi / 6)) < 1e-8
    # from a start on the section, the rhs still sees the true time
    t_star, _ = pk.find_crossing(rhs, np.array([0.5, 1.0]), sec,
                                 t_max=10.0, tol=tol)
    assert abs(t_star - 2 * math.pi) < 1e-8


def test_direction_filtering():
    m = pk.make_model("radial")
    up = Section(s=lambda x: x[1], direction=+1)
    down = Section(s=lambda x: x[1], direction=-1)
    t_up, _ = pk.find_crossing(m, np.array([0.0, 1.0]), up, t_max=10.0)
    t_down, _ = pk.find_crossing(m, np.array([0.0, 1.0]), down, t_max=10.0)
    # starting at the top of the circle: downward crossing comes first
    assert abs(t_down - math.pi / 2) < 1e-6
    assert abs(t_up - 3 * math.pi / 2) < 1e-6


NON_FINITE_SPANS = {
    "flow-nan": lambda m: pk.flow(m, [1.0, 0.0], math.nan),
    "integrate-inf": lambda m: pk.integrate(m, [1.0, 0.0], (0.0, math.inf)),
    "integrate-nan": lambda m: pk.integrate(m, [1.0, 0.0], (0.0, math.nan)),
    "flow_batch-inf": lambda m: flow_batch(m, [[1.0, 0.0]], math.inf),
    "find_crossing-nan": lambda m: pk.find_crossing(
        m, [1.0, 0.5], Section(s=lambda x: x[1]), math.nan),
}


@pytest.mark.parametrize("run", NON_FINITE_SPANS.values(),
                         ids=NON_FINITE_SPANS.keys())
def test_non_finite_time_span_fails_fast(run):
    with within(1.0), pytest.raises(ValueError, match="must be finite"):
        run(pk.make_model("spiral"))


NON_FINITE_STARTS = {
    "flow": lambda m, cyc: pk.flow(m, [1e160, 0.0], 1.0),
    "flow_batch": lambda m, cyc: flow_batch(m, [[1.0, 0.0], [1e160, 0.0]],
                                            1.0),
    "integrate": lambda m, cyc: pk.integrate(m, [1e160, 0.0], (0.0, 1.0)),
    "asymptotic_phase": lambda m, cyc: pk.asymptotic_phase(m, cyc,
                                                           [1e200, 0.0]),
}


@pytest.mark.parametrize("run", NON_FINITE_STARTS.values(),
                         ids=NON_FINITE_STARTS.keys())
def test_non_finite_field_at_the_start_fails_fast(spiral_cycle, run):
    # u . u overflows, so the spiral's field at the start is not finite:
    # the first step would be NaN and the step loop would never end
    with within(5.0), warnings.catch_warnings(), \
            pytest.raises(IntegrationError, match="not finite"):
        warnings.simplefilter("ignore", RuntimeWarning)
        run(*spiral_cycle)


@pytest.mark.parametrize("t_eval, message", [
    ([0.0, 2.0], "not within `t_span`"),
    ([0.5, 0.2], "not properly sorted"),
], ids=["out-of-span", "unsorted"])
def test_bad_sample_times_are_scipys_value_errors(t_eval, message):
    coupling = pk.CouplingFunction(grid=np.linspace(0.0, 2 * math.pi, 8,
                                                    endpoint=False),
                                   values=np.zeros(8), provenance="analytic")
    with pytest.raises(ValueError, match=message):
        pk.simulate_averaged(coupling, 0.1, 0.05, 0.0, (0.0, 1.0),
                             t_eval=np.array(t_eval))


# ---------------------------------------------------------------------------
# The DOP853 port against scipy's, bit for bit
# ---------------------------------------------------------------------------

def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours = getattr(ode, "_" + name)
        theirs = getattr(ref, name)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), name


def relaxation_rhs(mu=1.0):
    m = pk.make_model("relaxation", mu=mu)
    return lambda t, x: m.f(x)


@pytest.mark.parametrize("t_span", [(0.0, 12.0), (0.0, -0.6), (1.0, 7.3)],
                         ids=["forward", "backward", "offset"])
@pytest.mark.parametrize("tol", [(1e-5, 1e-7), (1e-9, 1e-11),
                                 (1e-12, 1e-14)], ids=str)
def test_every_step_and_sample_runs_are_scipys(t_span, tol):
    rhs, x0 = relaxation_rhs(), np.array([2.0, 0.3])
    assert_same_run(ode.solve_ivp(rhs, t_span, x0, tol),
                    scipy_run(rhs, x0, t_span, tol))
    t_eval = np.linspace(*t_span, 37)
    assert_same_run(ode.solve_ivp(rhs, t_span, x0, tol, t_eval=t_eval),
                    scipy_run(rhs, x0, t_span, tol, t_eval=t_eval))


def test_backward_samples_of_a_stack_are_scipys():
    m = pk.make_model("spiral")
    x0 = spiral_stack()
    k, dim = x0.shape
    rhs = lambda t, y: m.f_batch(y.reshape(k, dim)).reshape(-1)
    # the outermost state (radius 1.6) runs off to infinity at t = -0.25
    t_eval = np.linspace(0.0, -0.2, 16)
    tol = (1e-11, 1e-13)
    ours = ode.solve_ivp(rhs, (0.0, -0.2), x0.reshape(-1), tol, t_eval=t_eval)
    assert_same_run(ours, scipy_run(rhs, x0.reshape(-1), (0.0, -0.2), tol,
                                    t_eval=t_eval))
    np.testing.assert_array_equal(ours.t, t_eval)


def test_capped_steps_are_scipys():
    rhs, x0 = relaxation_rhs(), np.array([2.0, 0.3])
    ours = ode.solve_ivp(rhs, (0.0, 3.0), x0, DEFAULT_TOL, max_step=0.05)
    assert_same_run(ours, scipy_run(rhs, x0, (0.0, 3.0), DEFAULT_TOL,
                                    max_step=0.05))


def test_null_and_empty_runs_are_scipys():
    rhs, x0 = relaxation_rhs(), np.array([2.0, 0.3])
    assert_same_run(ode.solve_ivp(rhs, (1.0, 1.0), x0, DEFAULT_TOL),
                    scipy_run(rhs, x0, (1.0, 1.0), DEFAULT_TOL))
    empty = np.empty(0)
    assert_same_run(ode.solve_ivp(lambda t, y: y, (0.0, 1.0), empty,
                                  DEFAULT_TOL),
                    scipy_run(lambda t, y: y, empty, (0.0, 1.0), DEFAULT_TOL))


def section_event(direction):
    def event(t, x):
        return float(x[1])

    event.direction = direction
    return event


@pytest.mark.parametrize("direction", [+1, -1, 0])
@pytest.mark.parametrize("tol", [(1e-9, 1e-11), (1e-12, 1e-14)], ids=str)
def test_terminal_events_are_scipys(direction, tol):
    # forward on relaxation mu = 1, backward on radial (backward relaxation
    # runs away from its cycle)
    for rhs, x0, t_span in ((relaxation_rhs(), [2.0, 0.3], (0.0, 30.0)),
                            (lambda t, x: pk.make_model("radial").f(x),
                             [0.9, 0.3], (0.0, -10.0))):
        x0 = np.array(x0)
        ours = ode.solve_ivp(rhs, t_span, x0, tol,
                             events=[section_event(direction)])
        ref = scipy_run(rhs, x0, t_span, tol,
                        events=[section_event(direction)])
        assert ours.status == 1
        assert_same_run(ours, ref)


def test_find_crossing_is_scipys_event():
    m = pk.make_model("relaxation", mu=1.0)
    rhs = lambda t, x: m.f(x)
    x0 = np.array([2.0, 0.3])
    sec = Section(s=lambda x: x[1], direction=-1)
    t_star, x_star = pk.find_crossing(m, x0, sec, t_max=30.0)
    ref = scipy_run(rhs, x0, (0.0, 30.0), DEFAULT_TOL,
                    events=[section_event(-1)] + ode._basin_events(m))
    assert t_star == ref.t_events[0][0]
    np.testing.assert_array_equal(x_star, ref.y_events[0][0])


def test_basin_events_are_scipys():
    # x' = -x from radius 1 enters the ball of radius 1e-3 at t = ln 1000
    m = pk.make_model("custom", f=lambda x: -x, dim=2, basin_radius=1e-3,
                      vectorized=True)
    rhs = lambda t, x: m.f(x)
    x0 = np.array([1.0, 0.0])
    ours = ode.solve_ivp(rhs, (0.0, 20.0), x0, DEFAULT_TOL,
                         events=ode._basin_events(m))
    ref = scipy_run(rhs, x0, (0.0, 20.0), DEFAULT_TOL,
                    events=ode._basin_events(m))
    assert_same_run(ours, ref)
    root = ref.t_events[0][0]
    assert abs(root - math.log(1000.0)) < 1e-9
    with pytest.raises(pk.PhaselessStateError, match=f"t = {root:.6g}$"):
        pk.integrate(m, x0, (0.0, 20.0))
    # find_crossing's run stops on the basin before the section x[1] = 0.5
    x0 = np.array([1.0, -0.5])
    sec = Section(lambda x: x[1] - 0.5)

    def crossing(t, x):
        return float(sec.s(x))

    crossing.direction = +1
    events = [crossing, *ode._basin_events(m)]
    ref = scipy_run(rhs, x0, (0.0, 20.0), DEFAULT_TOL, events=events)
    assert_same_run(ode.solve_ivp(rhs, (0.0, 20.0), x0, DEFAULT_TOL,
                                  events=events), ref)
    assert ref.status == 1 and ref.t_events[0].size == 0
    assert ref.t_events[1].size == 1
    with pytest.raises(pk.PhaselessStateError, match="before crossing"):
        pk.find_crossing(m, x0, sec, 20.0)


def test_step_underflow_is_scipys_failure():
    # x' = x**2 from 1 blows up at t = 1
    rhs = lambda t, x: x ** 2
    ref = scipy_run(rhs, np.array([1.0]), (0.0, 2.0), DEFAULT_TOL)
    assert ref.status == -1
    with pytest.raises(IntegrationError) as info:
        pk.integrate(rhs, [1.0], (0.0, 2.0))
    assert str(info.value) == f"integration failed: {ref.message}"


def test_section_direction_must_be_a_sign():
    with pytest.raises(ValueError, match="direction must be"):
        Section(s=lambda x: x[1], direction=2)


def test_tangential_crossing_is_rejected():
    # x' = (1, 1e-8) crosses the line x[1] = 0.5 at t = 1 with ds/dt = 1e-8
    rhs = lambda t, x: np.array([1.0, 1e-8])
    sec = Section(s=lambda x: x[1] - 0.5, direction=+1)
    with pytest.raises(pk.TangentialCrossingError, match="nearly tangent"):
        pk.find_crossing(rhs, np.array([0.0, 0.5 - 1e-8]), sec, t_max=5.0)


def test_no_crossing_within_t_max():
    # radial from (0, -1) reaches the upward section x[1] = 0 at t = pi / 2
    m = pk.make_model("radial")
    sec = Section(s=lambda x: x[1], direction=+1)
    x0 = np.array([0.0, -1.0])
    with pytest.raises(NoCrossingError, match=r"in \(0, 1.5\]"):
        pk.find_crossing(m, x0, sec, t_max=1.5)
    t_star, _ = pk.find_crossing(m, x0, sec, t_max=1.6)
    assert abs(t_star - math.pi / 2) < 1e-9


# ---------------------------------------------------------------------------
# The Brent port against scipy.optimize.brentq
# ---------------------------------------------------------------------------

_BRENT_FUNCTIONS = {
    # flat roots: at tight tolerances Brent often runs out of iterations
    "cubic": lambda r: lambda x: (x - r) ** 3,
    "ninth": lambda r: lambda x: (x - r) ** 9,
    "tanh": lambda r: lambda x: math.tanh(50.0 * (x - r)),
    "sine": lambda r: lambda x: math.sin(x - r),   # several roots or none
    "cbrt": lambda r: lambda x: math.copysign(abs(x - r) ** (1 / 3), x - r),
    "step": lambda r: lambda x: 1.0 if x > r else -1.0,
    "tiny": lambda r: lambda x: 1e-300 * (x - r),
}


def brent_outcome(solve, f, a, b, xtol, rtol):
    try:
        return "root", solve(f, a, b, xtol, rtol)
    except (RuntimeError, ValueError) as err:
        return type(err).__name__, None


def test_brent_port_is_scipys_brentq():
    from scipy.optimize import brentq

    def scipy_brentq(f, a, b, xtol, rtol):
        return brentq(f, a, b, xtol=xtol, rtol=rtol)

    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    seen = {}
    # solve_ivp's event tolerances and lock_analysis's
    for xtol, rtol in ((4 * eps, 4 * eps), (1e-14, 8.9e-16)):
        for name, make in _BRENT_FUNCTIONS.items():
            for _ in range(750):
                r = rng.uniform(-1.0, 1.0)
                a = r - 10.0 ** rng.uniform(-8.0, 3.0)
                b = r + 10.0 ** rng.uniform(-8.0, 3.0)
                if rng.random() < 0.5:
                    a, b = b, a
                f = make(r)
                ours = brent_outcome(ode._brentq, f, a, b, xtol, rtol)
                want = brent_outcome(scipy_brentq, f, a, b, xtol, rtol)
                assert ours == want, (name, a, b, xtol, rtol)
                seen[ours[0]] = seen.get(ours[0], 0) + 1
    assert sum(seen.values()) >= 10000
    # converged, out of iterations, and unsigned brackets all occur
    assert min(seen.get(kind, 0)
               for kind in ("root", "RuntimeError", "ValueError")) > 100


def test_brent_port_rejects_nan_values_as_scipy_does():
    from scipy.optimize import brentq

    def f(x):
        return math.nan if x > 0.5 else x - 0.7

    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        ode._brentq(f, 0.0, 1.0, 1e-14, 8.9e-16)
