"""Coupled-network layer: specs, phase models, full-vs-reduced comparisons."""

import numpy as np
import pytest

from phasekit import (
    COUPLING_NAMES,
    NetworkSpec,
    OscillatorModel,
    build_phase_model,
    compare_full_vs_reduced,
    flow,
    lock_analysis,
    make_model,
    network_phases,
    phase_sensitivity,
    simulate_ensemble,
    simulate_full,
    simulate_phase_model,
    sl_prescribed_pair,
    subharmonic_pair,
)
import phasekit.models as models
import phasekit.network as network
import phasekit.ode as ode
from phasekit.network import _phase_rhs

from conftest import scalar_only_radial

TWO_PI = 2.0 * np.pi


def wrap(a):
    return np.mod(np.asarray(a) + np.pi, TWO_PI) - np.pi


@pytest.fixture(scope="module")
def sl_pair():
    """Two identical Stuart-Landau nodes, mutual direct coupling."""
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    return NetworkSpec(models=[m, m], epsilon=0.05,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       coupling="direct")


@pytest.fixture(scope="module")
def sl_pair_pm(sl_pair):
    return build_phase_model(sl_pair)


# ---------------------------------------------------------------------------
# Spec validation and coupling terms
# ---------------------------------------------------------------------------

def test_spec_rejects_malformed_input():
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    with pytest.raises(ValueError, match="adjacency a"):
        NetworkSpec(models=[m, m], epsilon=0.1, a=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="zero diagonal"):
        NetworkSpec(models=[m, m], epsilon=0.1,
                    a=np.array([[0.5, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="nu1"):
        NetworkSpec(models=[m, m], epsilon=0.1, a=np.zeros((2, 2)),
                    b=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="unknown coupling"):
        NetworkSpec(models=[m, m], epsilon=0.1, a=np.zeros((2, 2)),
                    coupling="nonsense")
    with pytest.raises(ValueError, match="one entry per node"):
        NetworkSpec(models=[m, m], epsilon=0.1, a=np.zeros((2, 2)),
                    prescribed_sensitivity=[None])
    with pytest.raises(ValueError, match="models"):
        NetworkSpec(models=[], epsilon=0.1, a=np.zeros((0, 0)))


def test_named_coupling_terms():
    xi = np.array([1.0, 2.0])
    xj = np.array([-3.0, 0.5])
    assert np.array_equal(COUPLING_NAMES["direct"](xi, xj), xj)
    assert np.array_equal(COUPLING_NAMES["diffusive"](xi, xj), xj - xi)
    sq = COUPLING_NAMES["first_component_squared"](xi, xj)
    assert np.allclose(sq, [9.0, 0.0])


@pytest.mark.parametrize("field, value", [
    ("epsilon", np.nan), ("epsilon", np.inf), ("a", np.nan), ("b", np.inf),
    ("c", -np.inf), ("nu1", np.nan), ("nu2", np.inf)])
def test_spec_rejects_non_finite_constants(field, value):
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    kwargs = dict(epsilon=0.1, a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                  b=np.array([[0.0, 0.3], [0.0, 0.0]]), nu1=1.0,
                  c=np.array([[0.0, 0.0], [0.2, 0.0]]), nu2=2.0)
    if field in "abc":
        kwargs[field] = kwargs[field].copy()
        kwargs[field][0, 1] = value
    else:
        kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        NetworkSpec(models=[m, m], **kwargs)


@pytest.mark.parametrize("name", sorted(COUPLING_NAMES))
def test_coupling_operators_match_the_pairwise_sum(name):
    # each named coupling is defined once, as an operator; it and the generic
    # contraction of its pairwise term must both equal sum_j A_ij h(x_i, x_j)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    np.fill_diagonal(a, 0.0)
    a[1, 2] = 0.0
    x = rng.normal(size=(3, 4, 2))
    h = COUPLING_NAMES[name]
    expect = np.zeros_like(x)
    for i in range(4):
        for j in range(4):
            if a[i, j] != 0.0:
                expect[:, i] += a[i, j] * h(x[:, i], x[:, j])
    m = make_model("radial")
    for coupling in (name, h):
        spec = NetworkSpec(models=[m] * 4, epsilon=0.1, a=a, coupling=coupling)
        got = spec.coupling_operator()(a, x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - expect)) < 1e-14


def test_adjacency_at_combines_modulations():
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    a = np.array([[0.0, 0.8], [0.5, 0.0]])
    b = np.array([[0.0, 0.3], [0.0, 0.0]])
    c = np.array([[0.0, -0.4], [0.0, 0.0]])
    spec = NetworkSpec(models=[m, m], epsilon=0.1, a=a, b=b, c=c,
                       nu1=np.sqrt(2.0), nu2=1.0)
    t = 0.7
    expect = a + b * np.cos(np.sqrt(2.0) * t) + c * np.cos(t)
    assert np.allclose(spec.adjacency_at(t), expect, atol=1e-15)
    assert not spec.has_static_adjacency()


# ---------------------------------------------------------------------------
# Full simulation
# ---------------------------------------------------------------------------

def test_full_simulation_decouples_at_zero_coupling():
    ma = make_model("stuart_landau", omega=2.0, c2=1.0)
    mb = make_model("stuart_landau", omega=2.1, c2=1.0)
    spec = NetworkSpec(models=[ma, mb], epsilon=0.0,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       coupling="direct")
    theta0 = np.array([0.3, 1.2])
    t_eval = np.linspace(0.0, 10.0, 60)
    traj = simulate_full(spec, (0.0, 10.0), theta0=theta0, t_eval=t_eval)
    cycles = spec.cycles()
    for i, mdl in enumerate([ma, mb]):
        x0 = cycles[i].gamma_at(theta0[i])
        for k, t in enumerate(t_eval[1:], start=1):
            ref = flow(mdl, x0, t)
            assert np.linalg.norm(traj.states[k, i] - ref) < 1e-7


def detuned_pair(eps, d_omega=0.04):
    ma = make_model("stuart_landau", omega=2.0 - 0.5 * d_omega, c2=1.0)
    mb = make_model("stuart_landau", omega=2.0 + 0.5 * d_omega, c2=1.0)
    return NetworkSpec(models=[ma, mb], epsilon=eps,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       coupling="direct")


def test_ensemble_of_one_is_the_solo_run():
    spec = detuned_pair(0.05)
    t_eval = np.linspace(0.0, 40.0, 50)
    solo = simulate_full(spec, (0.0, 40.0), theta0=[0.2, 1.9], t_eval=t_eval,
                         tol=(1e-7, 1e-9))
    [member] = simulate_ensemble(spec, [spec.epsilon], (0.0, 40.0),
                                 theta0=[0.2, 1.9], t_eval=t_eval,
                                 tol=(1e-7, 1e-9))
    assert np.array_equal(member.times, solo.times)
    assert np.array_equal(member.states, solo.states)


def test_ensemble_members_match_their_solo_runs():
    tol = (1e-7, 1e-9)
    epsilons = (0.0, 0.01, 0.03, 0.06, 0.12)
    specs = [detuned_pair(eps) for eps in epsilons]
    t_eval = np.linspace(0.0, 30.0, 40)
    theta0 = [0.4, 2.5]
    stacked = simulate_ensemble(detuned_pair(1.0), epsilons, (0.0, 30.0),
                                theta0=theta0, t_eval=t_eval, tol=tol)
    assert len(stacked) == len(specs)
    for spec, member in zip(specs, stacked):
        solo = simulate_full(spec, (0.0, 30.0), theta0=theta0, t_eval=t_eval,
                             tol=tol)
        ref = simulate_full(spec, (0.0, 30.0), theta0=theta0, t_eval=t_eval,
                            tol=(1e-11, 1e-13))
        assert member.states.shape == solo.states.shape
        gap = np.max(np.abs(member.states - solo.states))
        assert gap <= 10.0 * tol[0]
        # the sqrt(K) tolerance rule keeps each member as accurate as alone
        err_member = np.max(np.abs(member.states - ref.states))
        err_solo = np.max(np.abs(solo.states - ref.states))
        assert err_member <= err_solo


def per_node_rhs(spec, epsilons, t, y):
    """The stacked network RHS with one field call per node: the reference
    for the per-family evaluation of `network._network_rhs`."""
    eps = np.asarray(epsilons, dtype=float)[:, None, None]
    x = y.reshape(len(eps), spec.n_nodes, -1)
    dx = np.empty_like(x)
    for i, model in enumerate(spec.models):
        dx[:, i] = model.f_batch(x[:, i])
    dx += eps * spec.coupling_operator()(spec.adjacency_at(t), x)
    return dx.reshape(-1)


def sl_field_named(name, omega):
    """A model that make_model did not build: a Stuart-Landau field at
    omega (c2 = 1, so period 2*pi / (omega - 1)) under its own name."""
    field = make_model("stuart_landau", omega=omega, c2=1.0).f
    return OscillatorModel(name=name, dim=2, f=field)


def mixed_networks():
    """Networks whose nodes mix families, parameters and custom models."""
    radial, spiral = make_model("radial"), make_model("spiral")
    sl = [make_model("stuart_landau", omega=w, c2=1.0) for w in (2.0, 2.3)]
    ring = np.roll(np.eye(5), 1, axis=1) + np.roll(np.eye(5), -1, axis=1)
    return {
        "radial/spiral/radial": NetworkSpec(
            models=[radial, spiral, make_model("radial")], epsilon=0.1,
            a=np.ones((3, 3)) - np.eye(3), coupling="diffusive"),
        "scalar-only custom": NetworkSpec(
            models=[radial, scalar_only_radial(), radial, *sl], epsilon=0.1,
            a=0.5 * ring, coupling="direct"),
        "custom models named alike": NetworkSpec(
            models=[sl_field_named("ring", 2.0), sl_field_named("ring", 3.0)],
            epsilon=0.1, a=np.array([[0.0, 1.0], [1.0, 0.0]])),
        "prescribed pair": sl_prescribed_pair(0.02, 0.1),
    }


@pytest.mark.parametrize("case, k", [
    ("ring", 1), ("ring", 3), ("prescribed pair", 1),
    ("radial/spiral/radial", 2), ("scalar-only custom", 2),
    ("custom models named alike", 2)])
def test_family_rhs_matches_the_per_node_rhs_bit_for_bit(case, k):
    spec = modulated_ring() if case == "ring" else mixed_networks()[case]
    epsilons = np.linspace(0.02, 0.1, k)
    rhs = network._network_rhs(spec, epsilons)
    rng = np.random.default_rng(k)
    for t in (0.0, 0.7, 13.1):
        y = rng.normal(scale=1.5, size=k * spec.n_nodes * 2)
        np.testing.assert_array_equal(rhs(t, y),
                                      per_node_rhs(spec, epsilons, t, y))


def circular_trio():
    """Radial, spiral and Stuart-Landau nodes: one circular family."""
    trio = [make_model("radial"), make_model("spiral"),
            make_model("stuart_landau", omega=2.0, c2=1.0)]
    return NetworkSpec(models=trio, epsilon=0.1,
                       a=np.ones((3, 3)) - np.eye(3), coupling="diffusive")


@pytest.mark.parametrize("case, calls, block", [
    ("ring", 2, (1, 4, 2)),
    ("subharmonic pair", 2, (1, 2)),
    ("radial/spiral/stuart_landau", 1, (1, 3, 2))])
def test_each_family_is_evaluated_once_per_rhs_call(monkeypatch, case, calls,
                                                     block):
    shapes = []

    def counted(field):
        def f(*args):
            shapes.append(args[-1].shape)
            return field(*args)
        return f

    # one counter per field, which the circular names share
    counters = {}
    for name, (field, bind) in list(models._FIELDS.items()):
        counter = counters.setdefault(field, counted(field))
        monkeypatch.setitem(models._FIELDS, name, (counter, bind))
    per_eval = []
    real_solve_ivp = ode.solve_ivp

    def counted_solve_ivp(rhs, *args, **kwargs):
        def rhs_counted(t, y):
            before = len(shapes)
            out = rhs(t, y)
            per_eval.append(shapes[before:])
            return out
        return real_solve_ivp(rhs_counted, *args, **kwargs)

    spec = {"ring": modulated_ring,
            "subharmonic pair": lambda: subharmonic_pair(0.02, 0.05),
            "radial/spiral/stuart_landau": circular_trio}[case]()
    spec.cycles()    # shoot the cycles first: count the network's run only
    monkeypatch.setattr(ode, "solve_ivp", counted_solve_ivp)
    traj = simulate_full(spec, (0.0, 2.0))
    assert len(traj.times) > 2 and per_eval
    assert all(seen == [block] * calls for seen in per_eval)


def test_ensemble_needs_finite_epsilons():
    spec = detuned_pair(0.05)
    for epsilons in ([], [0.05, np.nan], [np.inf], 0.05, [[0.05]]):
        with pytest.raises(ValueError, match="nonempty 1-d list of finite"):
            simulate_ensemble(spec, epsilons, (0.0, 1.0))


def test_identical_nodes_stay_synchronized():
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    spec = NetworkSpec(models=[m, m], epsilon=0.3,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       coupling="diffusive")
    t_eval = np.linspace(0.0, 30.0, 120)
    traj = simulate_full(spec, (0.0, 30.0), theta0=[0.7, 0.7], t_eval=t_eval)
    # the diffusive term vanishes on the synchronized manifold, so the nodes
    # track each other and the uncoupled flow
    gap = np.linalg.norm(traj.states[:, 0] - traj.states[:, 1], axis=-1)
    assert gap.max() < 1e-8
    x0 = spec.cycles()[0].gamma_at(0.7)
    ref = flow(m, x0, float(t_eval[-1]))
    assert np.linalg.norm(traj.states[-1, 0] - ref) < 1e-6


def test_network_phases_of_uncoupled_pair_advance_linearly():
    ma = make_model("stuart_landau", omega=2.0, c2=1.0)
    mb = make_model("stuart_landau", omega=2.1, c2=1.0)
    spec = NetworkSpec(models=[ma, mb], epsilon=0.0,
                       a=np.zeros((2, 2)), coupling="direct")
    theta0 = np.array([0.3, 1.2])
    t_eval = np.linspace(0.0, 12.0, 80)
    traj = simulate_full(spec, (0.0, 12.0), theta0=theta0, t_eval=t_eval)
    phases = network_phases(spec, traj)
    omega = np.array([c.omega0 for c in spec.cycles()])
    expect = theta0[None, :] + t_eval[:, None] * omega[None, :]
    assert np.max(np.abs(phases - expect)) < 1e-6


def test_network_phases_settle_once_per_numeric_cycle(monkeypatch):
    # the two equal relaxation nodes share a cycle and one settle; the
    # custom node has its own cycle and its own settle
    relax = [make_model("relaxation", mu=1.0) for _ in range(2)]
    spec = NetworkSpec(models=relax + [sl_field_named("custom", 2.0)],
                       epsilon=0.05, a=np.ones((3, 3)) - np.eye(3),
                       coupling="diffusive")
    t_eval = np.linspace(0.0, 6.0, 40)
    traj = simulate_full(spec, (0.0, 6.0), theta0=[0.3, 2.0, 4.0],
                         t_eval=t_eval)
    cycles = spec.cycles()
    assert cycles[0] is cycles[1] and cycles[2] is not cycles[0]
    settles = []
    settle = network.asymptotic_phase
    monkeypatch.setattr(network, "asymptotic_phase",
                        lambda model, cycle, x: settles.append(len(x))
                        or settle(model, cycle, x))
    got = network_phases(spec, traj)
    assert settles == [2 * len(t_eval), len(t_eval)]
    for i, (model, cycle) in enumerate(zip(spec.models, cycles)):
        solo = settle(model, cycle, traj.states[:, i, :])
        diff = np.angle(np.exp(1j * (got[:, i] - solo)))
        assert np.abs(diff).max() <= 1e-12


def diffusive_where_distinct(xi, xj):
    """xj - xi, but NaN wherever the two states coincide (the diagonal)."""
    same = np.all(xi == xj, axis=-1, keepdims=True)
    return np.where(same, np.nan, xj - xi)


@pytest.mark.parametrize("h", [lambda xi, xj: xj - xi,
                               diffusive_where_distinct])
def test_callable_coupling_reproduces_named_diffusive(h):
    models = [make_model("relaxation"),
              make_model("stuart_landau", omega=2.0, c2=1.0)]
    a = np.array([[0.0, 1.0], [0.6, 0.0]])
    named = NetworkSpec(models=models, epsilon=0.1, a=a, coupling="diffusive")
    custom = NetworkSpec(models=models, epsilon=0.1, a=a, coupling=h)
    t_eval = np.linspace(0.0, 20.0, 40)
    ref = simulate_full(named, (0.0, 20.0), theta0=[0.3, 2.0], t_eval=t_eval)
    got = simulate_full(custom, (0.0, 20.0), theta0=[0.3, 2.0], t_eval=t_eval)
    # zero-weight pairs contribute exactly 0, NaN on the diagonal included
    assert np.all(np.isfinite(got.states))
    assert np.max(np.abs(got.states - ref.states)) < 1e-12
    pm_ref = build_phase_model(named)
    pm = build_phase_model(custom)
    assert pm.edges.keys() == pm_ref.edges.keys()
    for key, cf in pm.edges.items():
        assert np.all(np.isfinite(cf.values))
        assert np.max(np.abs(cf.values - pm_ref.edges[key].values)) < 1e-12


def test_first_component_squared_end_to_end(sl_pair):
    spec = NetworkSpec(models=sl_pair.models, epsilon=0.05, a=sl_pair.a,
                       coupling="first_component_squared")
    # The term (cos^2(s + phi), 0) carries harmonics 0 and 2 only, while the
    # sensitivity (-sin s - cos s, cos s - sin s) carries harmonic 1, so the
    # averaged coupling vanishes for every lag.
    pm = build_phase_model(spec)
    assert set(pm.edges) == {(0, 1), (1, 0)}
    for cf in pm.edges.values():
        assert np.max(np.abs(cf.values)) < 1e-12

    def h(xi, xj):
        return np.stack([xj[..., 0] ** 2, np.zeros_like(xj[..., 0])], axis=-1)

    custom = NetworkSpec(models=sl_pair.models, epsilon=0.05, a=sl_pair.a,
                         coupling=h)
    t_eval = np.linspace(0.0, 20.0, 40)
    ref = simulate_full(custom, (0.0, 20.0), theta0=[0.3, 2.0], t_eval=t_eval)
    got = simulate_full(spec, (0.0, 20.0), theta0=[0.3, 2.0], t_eval=t_eval)
    assert np.max(np.abs(got.states - ref.states)) < 1e-12
    # the coupling pushes only the first component, so the nodes leave the
    # uncoupled cycles
    free = simulate_full(NetworkSpec(models=sl_pair.models, epsilon=0.0,
                                     a=sl_pair.a), (0.0, 20.0),
                         theta0=[0.3, 2.0], t_eval=t_eval)
    assert np.max(np.abs(got.states - free.states)) > 1e-3


def test_coupling_that_does_not_broadcast_is_a_value_error(sl_pair):
    def h(xi, xj):
        # written for one pair of states: a constant push along x
        return np.array([1.0, 0.0])

    spec = NetworkSpec(models=sl_pair.models, epsilon=0.05, a=sl_pair.a,
                       coupling=h)
    with pytest.raises(ValueError, match="broadcast"):
        simulate_full(spec, (0.0, 1.0))
    with pytest.raises(ValueError, match="broadcast"):
        build_phase_model(spec)


# ---------------------------------------------------------------------------
# Phase-model construction
# ---------------------------------------------------------------------------

def test_direct_coupling_edges_match_closed_form(sl_pair_pm):
    # For these nodes the sensitivity is (-sin-cos, cos-sin) and the coupling
    # term is the partner's cycle point, so the circular correlation is
    # independent of the integration variable: qbar(phi) = sin(phi) - cos(phi).
    pm = sl_pair_pm
    assert pm.n_nodes == 2
    assert np.allclose(pm.Omega, [1.0, 1.0], atol=1e-9)
    assert np.array_equal(pm.a_eff, [[0.0, 1.0], [1.0, 0.0]])
    for key in [(0, 1), (1, 0)]:
        cf = pm.edges[key]
        expect = np.sin(cf.grid) - np.cos(cf.grid)
        assert np.max(np.abs(cf.values - expect)) < 1e-5


def test_prescribed_pair_coupling_vanishes_identically():
    spec = sl_prescribed_pair(0.02, 0.2)
    with pytest.warns(UserWarning, match="out of reach"):
        pm = build_phase_model(spec)
    assert pm.prescribed
    worst = max(np.max(np.abs(cf.values)) for cf in pm.edges.values())
    assert worst < 1e-12


def test_diffusive_identical_pair_vanishes_at_zero_lag():
    m = make_model("radial")
    spec = NetworkSpec(models=[m, m], epsilon=0.1,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       coupling="diffusive")
    pm = build_phase_model(spec)
    for cf in pm.edges.values():
        # grid node 0 is exactly zero phase lag, where xj - xi == 0
        assert abs(cf.values[0]) < 1e-14


def test_time_varying_adjacency_averages_to_static_weights():
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    a = np.array([[0.0, 0.8], [0.5, 0.0]])
    b = np.array([[0.0, 0.3], [0.2, 0.0]])
    c = np.array([[0.0, -0.4], [0.1, 0.0]])
    spec = NetworkSpec(models=[m, m], epsilon=0.05, a=a, b=b, c=c,
                       nu1=np.sqrt(2.0), nu2=1.0, coupling="direct")
    pm = build_phase_model(spec)
    static = build_phase_model(
        NetworkSpec(models=[m, m], epsilon=0.05, a=a, coupling="direct"))
    assert np.max(np.abs(pm.a_eff - a)) < 1e-6
    for key in [(0, 1), (1, 0)]:
        assert np.array_equal(pm.edges[key].values, static.edges[key].values)


def test_edges_are_keyed_by_plain_int_pairs_in_row_major_order():
    # a ring whose forward edges are modulated and one edge that exists
    # only through its modulation
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    n = 4
    a, b, c = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 0.5
        b[(i + 1) % n, i] = 0.2
    a[0, 3] = 0.0
    c[0, 2] = -0.1
    spec = NetworkSpec(models=[m] * n, epsilon=0.05, a=a, b=b, c=c,
                       nu1=np.sqrt(2.0), nu2=1.0, coupling="diffusive")
    pm = build_phase_model(spec)
    keys = list(pm.edges)
    assert keys == [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3),
                    (3, 0), (3, 2)]
    assert all(type(i) is int and type(j) is int for i, j in keys)
    assert abs(pm.a_eff[0, 3]) < 1e-6


def test_incommensurate_modulation_requires_both_frequencies():
    # same spec as above but with nu2 rationally related to nu1 is still
    # legal; only missing frequencies are rejected, which is covered by the
    # validation test.  Here: only-b modulation works alone.
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    a = np.array([[0.0, 0.8], [0.0, 0.0]])
    b = np.array([[0.0, 0.5], [0.0, 0.0]])
    spec = NetworkSpec(models=[m, m], epsilon=0.05, a=a, b=b, nu1=1.3,
                       coupling="direct")
    pm = build_phase_model(spec)
    assert abs(pm.a_eff[0, 1] - 0.8) < 1e-6


# ---------------------------------------------------------------------------
# Phase-model simulation
# ---------------------------------------------------------------------------

def test_phase_model_linear_drift_without_coupling():
    ma = make_model("stuart_landau", omega=2.0, c2=1.0)
    mb = make_model("stuart_landau", omega=2.1, c2=1.0)
    spec = NetworkSpec(models=[ma, mb], epsilon=0.0,
                       a=np.zeros((2, 2)), coupling="direct")
    pm = build_phase_model(spec)
    theta0 = np.array([0.4, 2.0])
    t_eval = np.linspace(0.0, 25.0, 50)
    traj = simulate_phase_model(pm, theta0, (0.0, 25.0), t_eval=t_eval)
    expect = theta0[None, :] + t_eval[:, None] * pm.Omega[None, :]
    assert np.max(np.abs(traj.phases - expect)) < 1e-9


def modulated_ring(n=8):
    """The network-reduce benchmark's ring: alternating relaxation and
    Stuart-Landau nodes, diffusive coupling to both neighbours, forward edges
    modulated at sqrt(2) and backward edges at 1."""
    models = [make_model("relaxation", mu=1.0) if i % 2 == 0 else
              make_model("stuart_landau", omega=round(1.94 + 0.01 * i, 10),
                         c2=1.0)
              for i in range(n)]
    a, b, c = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        nxt = (i + 1) % n
        a[i, nxt] = a[nxt, i] = 0.5
        b[nxt, i] = 0.2
        c[i, nxt] = -0.1
    return NetworkSpec(models=models, epsilon=0.05, a=a, b=b, c=c,
                       nu1=np.sqrt(2.0), nu2=1.0, coupling="diffusive")


def edge_average_per_shift(z_vals, pts_i, pts_j, h):
    """The edge average with one h call per phase shift: the reference for
    the one-call `network._edge_average`."""
    out = np.empty(len(z_vals))
    for k in range(len(z_vals)):
        hv = np.asarray(h(pts_i, np.roll(pts_j, -k, axis=0)), dtype=float)
        out[k] = np.mean(np.sum(z_vals * hv, axis=1))
    return out


@pytest.mark.parametrize("coupling", [*COUPLING_NAMES, "custom"])
@pytest.mark.parametrize("dim", [2, 3])
def test_edge_average_matches_the_per_shift_loop_bit_for_bit(coupling, dim):
    h = COUPLING_NAMES.get(coupling, lambda xi, xj: np.sin(xj) * xi - xj * xj)
    z_vals, pts_i, pts_j = np.random.default_rng(dim).normal(size=(3, 64,
                                                                    dim))
    np.testing.assert_array_equal(
        network._edge_average(z_vals, pts_i, pts_j, h),
        edge_average_per_shift(z_vals, pts_i, pts_j, h))


@pytest.mark.parametrize("edges", ["ring", "none"])
def test_phase_rhs_matches_the_per_edge_sum(edges, sl_pair):
    if edges == "ring":
        pm = build_phase_model(modulated_ring())
        assert len(pm.edges) == 16
    else:
        pm = build_phase_model(NetworkSpec(models=sl_pair.models,
                                           epsilon=0.05, a=np.zeros((2, 2))))
        assert not pm.edges
    rhs = _phase_rhs(pm)
    rng = np.random.default_rng(2)
    for _ in range(50):
        th = rng.uniform(-20.0, 20.0, pm.n_nodes)
        want = pm.Omega.copy()
        for (i, j), cf in pm.edges.items():
            want[i] += pm.epsilon * pm.a_eff[i, j] * float(cf(th[j] - th[i]))
        np.testing.assert_allclose(rhs(0.0, th), want, rtol=0, atol=1e-14)


def test_phase_model_equivariant_under_common_shift(sl_pair_pm):
    pm = sl_pair_pm
    theta0 = np.array([0.2, 1.1])
    delta = 0.83
    t_eval = np.linspace(0.0, 40.0, 120)
    base = simulate_phase_model(pm, theta0, (0.0, 40.0), t_eval=t_eval)
    shifted = simulate_phase_model(pm, theta0 + delta, (0.0, 40.0),
                                   t_eval=t_eval)
    assert np.max(np.abs(shifted.phases - base.phases - delta)) < 1e-8


def test_pair_lock_matches_fixed_point_analysis():
    # detuned twin: psi = theta1 - theta0 obeys
    #   dpsi/dt = d_omega + eps * (qbar(-psi) - qbar(psi)) = d_omega - 2 eps sin(psi)
    d_omega, eps = 0.04, 0.05
    ma = make_model("stuart_landau", omega=2.0 - 0.5 * d_omega, c2=1.0)
    mb = make_model("stuart_landau", omega=2.0 + 0.5 * d_omega, c2=1.0)
    spec = NetworkSpec(models=[ma, mb], epsilon=eps,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       coupling="direct")
    pm = build_phase_model(spec)

    cf01 = pm.edges[(0, 1)]

    def combination(psi):
        return cf01(-np.asarray(psi)) - cf01(np.asarray(psi))

    res = lock_analysis(d_omega, eps, combination)
    assert res.locked
    stable = [p for p, ok in res.fixed_points if ok]
    assert len(stable) == 1
    psi_star = stable[0]
    assert abs(psi_star - np.arcsin(d_omega / (2.0 * eps))) < 1e-4

    t_end = 600.0
    t_eval = np.linspace(0.0, t_end, 400)
    traj = simulate_phase_model(pm, [0.0, 0.1], (0.0, t_end), t_eval=t_eval)
    psi = traj.phases[:, 1] - traj.phases[:, 0]
    tail = psi[-50:]
    assert np.max(np.abs(wrap(tail - psi_star))) < 1e-4
    assert abs(tail[-1] - tail[0]) < 1e-6


# ---------------------------------------------------------------------------
# Full-vs-reduced comparisons
# ---------------------------------------------------------------------------

def test_comparison_tracks_detuned_pair_at_first_order():
    d_omega, eps = 0.02, 0.05
    ma = make_model("stuart_landau", omega=2.0 - 0.5 * d_omega, c2=1.0)
    mb = make_model("stuart_landau", omega=2.0 + 0.5 * d_omega, c2=1.0)
    spec = NetworkSpec(models=[ma, mb], epsilon=eps,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       coupling="direct")
    report = compare_full_vs_reduced(spec, horizon_mult=1.0)
    assert not report.prescribed
    assert report.max_error < 2.0 * eps
    assert report.rms_error <= report.max_error


def test_prescribed_pair_defeats_first_order_reduction():
    # the full pair locks (common drift) while the reduced model predicts
    # free drift at the detuning, so the comparison exposes the failure
    d_omega, eps = 0.02, 0.2
    spec = sl_prescribed_pair(d_omega, eps)
    with pytest.warns(UserWarning, match="out of reach"):
        report = compare_full_vs_reduced(spec, horizon_mult=4.0)
    assert report.prescribed
    assert report.max_error > 0.5

    # drift gaps from the settled tail (the first part of the run is the
    # full pair's locking transient)
    tail = slice(-len(report.times) // 3, None)
    t = report.times[tail]

    def gap_slope(theta):
        psi = theta[tail, 1] - theta[tail, 0]
        return np.polyfit(t, psi, 1)[0]

    assert abs(gap_slope(report.theta_full)) < 2e-3
    assert abs(gap_slope(report.theta_reduced) - d_omega) < 1e-3


@pytest.mark.parametrize("prescribe_even, calls", [(False, 5), (True, 4)])
def test_build_phase_model_runs_one_adjoint_per_distinct_cycle(
        monkeypatch, prescribe_even, calls):
    import phasekit._parallel as parallel
    import phasekit.network as network

    n = 8
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 0.5
    # the network-reduce benchmark's ring: one relaxation model on the even
    # nodes, four distinct Stuart-Landau models on the odd ones
    models = [make_model("relaxation", mu=1.0) if i % 2 == 0
              else make_model("stuart_landau",
                              omega=round(1.94 + 0.01 * i, 10), c2=1.0)
              for i in range(n)]
    pres = None
    if prescribe_even:
        def z(th):
            return 1j * np.exp(1j * np.asarray(th))

        pres = [z if i % 2 == 0 else None for i in range(n)]
    spec = NetworkSpec(models=models, epsilon=0.05, a=a, coupling="diffusive",
                       prescribed_sensitivity=pres)
    cycles = spec.cycles()
    built = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_cpu_count", lambda w=workers: w)
        with monkeypatch.context() as mp:
            # the adjoints run in this process at any worker count
            seen = []

            def counting(model, cycle, *args, **kwargs):
                seen.append(id(cycle))
                return phase_sensitivity(model, cycle, *args, **kwargs)

            mp.setattr(network, "phase_sensitivity", counting)
            pm = build_phase_model(spec)
        assert len(seen) == calls == len(set(seen))
        assert pm.prescribed == prescribe_even
        built[workers] = pm
    for key, cf in built[1].edges.items():
        np.testing.assert_array_equal(cf.values, built[2].edges[key].values)
    if prescribe_even:
        return
    # a node sharing node 0's cycle gets the edges of its own adjoint
    assert cycles[4] is cycles[0]
    own = phase_sensitivity(models[4], cycles[4]).values
    for j in (3, 5):
        np.testing.assert_array_equal(
            built[2].edges[(4, j)].values,
            network._edge_average(own, cycles[4].points, cycles[j].points,
                                  spec.coupling_fn()))


def unshot_sl_pair(monkeypatch):
    """A fresh two-node spec whose cycles may not be shot."""
    def shoot(model):
        raise AssertionError("a cycle was shot")

    monkeypatch.setattr(network, "_shoot", shoot)
    m = make_model("stuart_landau", omega=2.0, c2=1.0)
    return NetworkSpec(models=[m, m], epsilon=0.05,
                       a=np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("theta0", [[0.0], [0.0, 1.0, 2.0], [np.nan, 0.0],
                                    [[0.0, 1.0]]],
                         ids=["short", "long", "nan", "matrix"])
def test_bad_theta0_fails_before_shooting(monkeypatch, theta0):
    spec = unshot_sl_pair(monkeypatch)
    for run in (
            lambda: simulate_full(spec, (0.0, 1.0), theta0=theta0),
            lambda: simulate_ensemble(spec, [0.01, 0.02], (0.0, 1.0),
                                      theta0=theta0),
            lambda: compare_full_vs_reduced(spec, theta0=theta0)):
        with pytest.raises(ValueError,
                           match="theta0 must be a list of 2 finite"):
            run()


@pytest.mark.parametrize("n_samples", [0, 1])
def test_comparison_needs_two_samples(monkeypatch, n_samples):
    spec = unshot_sl_pair(monkeypatch)
    with pytest.raises(ValueError, match="n_samples must be at least 2"):
        compare_full_vs_reduced(spec, n_samples=n_samples)


@pytest.mark.parametrize("horizon_mult", [0.0, -1.0])
def test_comparison_needs_a_positive_horizon(sl_pair, horizon_mult):
    with pytest.raises(ValueError, match="horizon_mult"):
        compare_full_vs_reduced(sl_pair, horizon_mult=horizon_mult)


def test_a_spec_shoots_each_distinct_model_once(monkeypatch):
    import phasekit._parallel as parallel

    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    shot = []
    real_shoot = network._shoot

    def shoot(model):
        shot.append(model)
        return real_shoot(model)

    monkeypatch.setattr(network, "_shoot", shoot)
    custom = scalar_only_radial()

    def spec():
        # equal built-ins share a cycle; custom models go by identity
        models = [make_model("stuart_landau", omega=2.0, c2=1.0), custom,
                  make_model("stuart_landau", omega=2.0, c2=1.0), custom,
                  scalar_only_radial()]
        return NetworkSpec(models=models, epsilon=0.1, a=np.zeros((5, 5)))

    first, second = spec(), spec()
    cycles = first.cycles()
    assert len(shot) == 3
    assert cycles[0] is cycles[2] and cycles[1] is cycles[3]
    assert len({id(c) for c in cycles}) == 3
    assert first.cycles() is cycles
    # a second spec of equal models shoots its own cycles, to the same bits
    again = second.cycles()
    assert len(shot) == 6
    for mine, theirs in zip(again, cycles):
        assert mine is not theirs
        np.testing.assert_array_equal(mine.points, theirs.points)


def test_custom_models_named_alike_keep_their_own_cycles():
    # models that make_model did not build are keyed by identity, whatever
    # their name, so each node gets the cycle of its own field
    spec = mixed_networks()["custom models named alike"]
    cycles = spec.cycles()
    assert cycles[0] is not cycles[1]
    np.testing.assert_allclose([c.period for c in cycles],
                               [TWO_PI, np.pi], rtol=1e-9)
    assert [nodes for nodes, _ in network._node_fields(spec.models)] == [0, 1]


def test_prescribed_sensitivity_as_real_vectors():
    base = sl_prescribed_pair(0.02, 0.1)
    z_curve = base.prescribed_sensitivity[0]

    def rows(th):                       # (M, dim)
        z = z_curve(th)
        return np.stack([z.real, z.imag], axis=-1)

    def with_curve(curve):
        return NetworkSpec(models=base.models, epsilon=base.epsilon, a=base.a,
                           coupling=base.coupling,
                           prescribed_sensitivity=[curve, curve])

    # the prescribed curve cancels the coupling, hence the warning
    with pytest.warns(UserWarning, match="out of reach"):
        want = build_phase_model(base)
    for curve in (rows, lambda th: rows(th).T):
        with pytest.warns(UserWarning, match="out of reach"):
            got = build_phase_model(with_curve(curve))
        assert got.prescribed
        assert set(got.edges) == set(want.edges)
        for key, cf in want.edges.items():
            np.testing.assert_array_equal(got.edges[key].values, cf.values)
    # complex samples go through the same shape rule as real ones
    for curve in (lambda th: np.zeros(3), lambda th: 1j,
                  lambda th: np.ones((3, len(th)), dtype=complex)):
        with pytest.raises(ValueError, match="unexpected shape"):
            build_phase_model(with_curve(curve))
