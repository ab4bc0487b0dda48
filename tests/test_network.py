"""Coupled-network layer: specs, phase models, full-vs-reduced comparisons."""

import numpy as np
import pytest

from phasekit import (
    COUPLING_NAMES,
    NetworkSpec,
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
)

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
    [member] = simulate_ensemble([spec], (0.0, 40.0), theta0=[0.2, 1.9],
                                 t_eval=t_eval, tol=(1e-7, 1e-9))
    assert np.array_equal(member.times, solo.times)
    assert np.array_equal(member.states, solo.states)


def test_ensemble_members_match_their_solo_runs():
    tol = (1e-7, 1e-9)
    specs = [detuned_pair(eps) for eps in (0.0, 0.01, 0.03, 0.06, 0.12)]
    t_eval = np.linspace(0.0, 30.0, 40)
    theta0 = [0.4, 2.5]
    stacked = simulate_ensemble(specs, (0.0, 30.0), theta0=theta0,
                                t_eval=t_eval, tol=tol)
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


def test_ensemble_members_may_differ_only_in_epsilon():
    base = detuned_pair(0.05)
    # equal models built separately are the same network
    simulate_ensemble([base, detuned_pair(0.1)], (0.0, 1.0))
    other_model = detuned_pair(0.05, d_omega=0.08)
    other_adjacency = NetworkSpec(models=base.models, epsilon=0.05,
                                  a=np.array([[0.0, 2.0], [1.0, 0.0]]),
                                  coupling="direct")
    other_coupling = NetworkSpec(models=base.models, epsilon=0.05, a=base.a,
                                 coupling="diffusive")
    for other in (other_model, other_adjacency, other_coupling):
        with pytest.raises(ValueError, match="only epsilon"):
            simulate_ensemble([base, other], (0.0, 1.0))
    with pytest.raises(ValueError, match="at least one"):
        simulate_ensemble([], (0.0, 1.0))


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
            if workers == 1:
                # the serial loop runs in this process: count the adjoints
                seen = []

                def counting(model, cycle, *args, **kwargs):
                    seen.append(id(cycle))
                    return phase_sensitivity(model, cycle, *args, **kwargs)

                mp.setattr(network, "phase_sensitivity", counting)
            else:
                # forked workers hide their calls: count the cycles handed
                # to the one map build_phase_model makes
                maps = []

                def recording(fn, items):
                    items = list(items)
                    maps.append(items)
                    return parallel.pmap(fn, items)

                mp.setattr(network, "pmap", recording)
                seen = None
            pm = build_phase_model(spec)
        if seen is None:
            assert len(maps) == 1
            seen = [id(cycle) for _, cycle in maps[0]]
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


@pytest.mark.parametrize("horizon_mult", [0.0, -1.0])
def test_comparison_needs_a_positive_horizon(sl_pair, horizon_mult):
    with pytest.raises(ValueError, match="horizon_mult"):
        compare_full_vs_reduced(sl_pair, horizon_mult=horizon_mult)
