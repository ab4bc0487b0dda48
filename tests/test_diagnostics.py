"""Synchrony measures, threshold bisection, and scaling fits."""

import math

import numpy as np
import pytest

import phasekit.diagnostics as diag
import phasekit.network as network
from phasekit import (
    CouplingRangeError,
    NetworkSpec,
    NetworkTrajectory,
    SUBHARMONIC_WEIGHTS,
    build_phase_model,
    critical_coupling,
    lock_psi_series,
    make_model,
    order_ratio,
    scaling_fit,
    sl_prescribed_pair,
    subharmonic_bracket,
    sync_measure,
)


def detuned_sl_pair(d_omega: float, eps: float, kappa: float = 1.0) -> NetworkSpec:
    ma = make_model("stuart_landau", omega=2.0 - 0.5 * d_omega, c2=1.0)
    mb = make_model("stuart_landau", omega=2.0 + 0.5 * d_omega, c2=1.0)
    return NetworkSpec(models=[ma, mb], epsilon=eps,
                       a=np.array([[0.0, kappa], [kappa, 0.0]]),
                       coupling="direct")


# ---------------------------------------------------------------------------
# sync_measure on synthetic series
# ---------------------------------------------------------------------------

def test_clean_drift_is_measured_and_invariant():
    t = np.linspace(0.0, 100.0, 501)
    rate = 0.02
    psi = rate * t + 0.001 * np.sin(1.3 * t)
    rep = sync_measure(t, psi)
    assert abs(rep.S - rate) / rate < 0.02
    assert not rep.locked
    assert abs(rep.drift - rate) < 1e-3
    # invariant under constant offsets, time translation, and sign flips
    assert sync_measure(t, psi + 5.0).S == pytest.approx(rep.S, rel=1e-12)
    assert sync_measure(t + 37.0, psi).S == pytest.approx(rep.S, rel=1e-12)
    assert sync_measure(t, -psi).S == pytest.approx(rep.S, rel=1e-12)


def test_locked_tail_is_flagged_with_its_phase():
    t = np.linspace(0.0, 100.0, 501)
    psi = 0.7 + 0.2 * np.exp(-0.05 * t)
    rep = sync_measure(t, psi)
    assert rep.locked
    assert rep.slips == 0
    assert rep.S < rep.threshold
    assert abs(rep.psi_star - 0.7) < 0.01


def test_phase_slips_are_counted():
    t = np.linspace(0.0, 100.0, 501)
    rep = sync_measure(t, 0.15 * t)
    assert not rep.locked
    assert rep.slips >= 1


def test_sync_measure_rejects_malformed_series():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(ValueError, match="matching 1-d"):
        sync_measure(t, np.zeros(49))
    with pytest.raises(ValueError, match="transient_frac"):
        sync_measure(t, np.zeros(50), transient_frac=1.0)
    with pytest.raises(ValueError, match="too few"):
        sync_measure(t[:4], np.zeros(4), transient_frac=0.5)


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_sync_measure_needs_a_positive_threshold(threshold):
    # a flat series is locked under any positive threshold
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(ValueError, match="threshold must be positive"):
        sync_measure(t, np.full_like(t, 0.7), threshold=threshold)


def test_threshold_scales_with_natural_frequency():
    t = np.linspace(0.0, 100.0, 501)
    psi = np.full_like(t, 1.0)
    rep = sync_measure(t, psi, natural_freq=7.0)
    assert rep.threshold == pytest.approx(7e-3)
    assert rep.locked


# ---------------------------------------------------------------------------
# lock_psi_series on a real pair
# ---------------------------------------------------------------------------

def test_uncoupled_pair_drifts_at_its_detuning():
    d_omega = 0.02
    spec = detuned_sl_pair(d_omega, eps=0.0, kappa=0.0)
    times, psi, omega_ref = lock_psi_series(spec, t_sim=200.0)
    assert omega_ref == pytest.approx(1.0 - 0.5 * d_omega, abs=1e-9)
    rep = sync_measure(times, psi, natural_freq=omega_ref)
    assert not rep.locked
    assert abs(rep.S - d_omega) < 1e-4
    assert abs(rep.drift - d_omega) < 1e-5


def test_default_strobe_aliases_whole_turns_away():
    # sampling once per rotation of identical nodes leaves a constant series
    spec = detuned_sl_pair(0.0, eps=0.0, kappa=0.0)
    times, psi, _ = lock_psi_series(spec, t_sim=120.0)
    assert np.max(np.abs(psi - psi[0])) < 1e-6


def test_resonance_weights_select_the_slow_combination():
    # sampled well inside each rotation the combination -2*theta_0 + theta_1
    # of an identical pair drifts at omega_1 - 2 * omega_0 = -1
    spec = detuned_sl_pair(0.0, eps=0.0, kappa=0.0)
    times, psi, _ = lock_psi_series(spec, t_sim=60.0, weights=(-2.0, 1.0),
                                    strobe_period=0.5)
    slope = np.polyfit(times, psi, 1)[0]
    assert abs(slope - (-1.0)) < 1e-6


# ---------------------------------------------------------------------------
# critical_coupling bisection
# ---------------------------------------------------------------------------

def test_bracket_endpoints_must_straddle_the_transition():
    d_omega = 0.02
    # first-order threshold for this pair sits near d_omega / 2 = 0.01
    spec = detuned_sl_pair(d_omega, 0.0)
    with pytest.raises(CouplingRangeError) as info:
        critical_coupling(spec, 0.02, 0.05, t_sim=150.0)
    assert info.value.side == "below"
    with pytest.raises(CouplingRangeError) as info:
        critical_coupling(spec, 0.001, 0.004, t_sim=150.0)
    assert info.value.side == "above"


def test_bisection_finds_the_first_order_threshold():
    d_omega = 0.02
    res = critical_coupling(detuned_sl_pair(d_omega, 0.0), 0.004, 0.04,
                            rel_width=0.25, t_sim=300.0)
    assert 0.006 < res.eps_c < 0.016
    lo, hi = res.bracket
    assert lo < res.eps_c < hi
    assert (hi - lo) / res.eps_c <= 0.25
    assert res.n_runs == len(res.reports)
    assert not res.reports[0.004].locked
    assert res.reports[0.04].locked


def analytic_ensemble(sizes):
    """Stand-in for the stacked simulation: locked iff eps >= d/2.

    Nodes sit on their unit-circle cycles; a drifting member's second node
    runs ahead at the detuning d.  Records each stack's member count.
    """
    def fake(spec, epsilons, t_span, theta0=None, t_eval=None, tol=None):
        sizes.append(len(epsilons))
        d = spec.models[1].params["omega"] - spec.models[0].params["omega"]
        out = []
        for eps in epsilons:
            psi = np.zeros_like(t_eval) if eps >= 0.5 * d else d * t_eval
            states = np.zeros((len(t_eval), 2, 2))
            states[:, 0, 0] = 1.0
            states[:, 1, 0] = np.cos(psi)
            states[:, 1, 1] = np.sin(psi)
            out.append(NetworkTrajectory(times=t_eval.copy(), states=states))
        return out

    return fake


def test_bisection_threshold_grows_with_detuning(monkeypatch):
    sizes = []
    monkeypatch.setattr(diag, "simulate_ensemble", analytic_ensemble(sizes))
    eps_c = {}
    for d in (0.01, 0.02, 0.04):
        res = critical_coupling(detuned_sl_pair(d, 0.0), 0.1 * d, 2.0 * d,
                                rel_width=0.02)
        eps_c[d] = res.eps_c
        assert abs(res.eps_c - 0.5 * d) / (0.5 * d) < 0.05
    assert eps_c[0.01] < eps_c[0.02] < eps_c[0.04]
    assert sizes and max(sizes) <= 32


def test_stacks_stay_within_the_member_cap(monkeypatch):
    sizes = []
    monkeypatch.setattr(diag, "simulate_ensemble", analytic_ensemble(sizes))
    d = 0.02
    res = critical_coupling(detuned_sl_pair(d, 0.0), 0.1 * d, 2.0 * d,
                            rel_width=1e-8)
    assert diag.STACK_CAP == 32
    assert max(sizes) <= 32
    assert len(sizes) > 1          # the tree is deeper than one stack
    lo, hi = res.bracket
    assert lo <= 0.5 * d <= hi
    assert (hi - lo) / res.eps_c <= 1e-8
    # two endpoints plus one run per halving of 1.9 d down to 1e-8 relative
    assert res.n_runs == len(res.reports) == 2 + math.ceil(
        math.log2(1.9 * d / (1e-8 * 0.5 * d)))


def sequential_bisection(factory, lo, hi, rel_width, t_sim):
    """Plain one-run-per-verdict bisection over lock_psi_series."""
    verdicts = {}

    def locked(eps):
        times, psi, omega_ref = lock_psi_series(factory(eps), t_sim=t_sim)
        verdicts[eps] = sync_measure(times, psi, natural_freq=omega_ref).locked
        return verdicts[eps]

    assert not locked(lo) and locked(hi)
    while (hi - lo) / (0.5 * (lo + hi)) > rel_width:
        mid = 0.5 * (lo + hi)
        if locked(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi), verdicts


def test_stacked_bisection_matches_sequential_bisection():
    d_omega = 0.02
    factory = lambda e: detuned_sl_pair(d_omega, e)
    res = critical_coupling(factory(0.0), 0.004, 0.04, rel_width=0.1,
                            t_sim=300.0)
    eps_c, bracket, verdicts = sequential_bisection(
        factory, 0.004, 0.04, 0.1, t_sim=300.0)
    assert res.eps_c == eps_c
    assert res.bracket == bracket
    assert set(res.reports) == set(verdicts)
    assert {e: r.locked for e, r in res.reports.items()} == verdicts


def test_invalid_bracket_is_rejected():
    with pytest.raises(ValueError, match="eps_lo"):
        critical_coupling(detuned_sl_pair(0.02, 0.0), 0.05, 0.01)


# ---------------------------------------------------------------------------
# scaling_fit
# ---------------------------------------------------------------------------

def test_power_law_fit_recovers_synthetic_data():
    x = np.array([0.01, 0.02, 0.04, 0.08])
    half = scaling_fit(x, 2.7 * np.sqrt(x))
    assert half.exponent == pytest.approx(0.5, abs=1e-12)
    assert half.prefactor == pytest.approx(2.7, rel=1e-12)
    assert half.r_squared == pytest.approx(1.0, abs=1e-12)
    linear = scaling_fit(x, 0.3 * x)
    assert linear.exponent == pytest.approx(1.0, abs=1e-12)
    assert linear.prefactor == pytest.approx(0.3, rel=1e-12)


def test_power_law_fit_rejects_bad_data():
    with pytest.raises(ValueError, match="at least two"):
        scaling_fit([1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        scaling_fit([0.1, -0.2], [1.0, 2.0])


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0], [1.0, math.inf]),
    ([1.0, math.inf], [1.0, 2.0]),
    ([1.0, math.nan], [1.0, 2.0]),
    ([1.0, 2.0], [math.nan, 2.0]),
])
def test_power_law_fit_rejects_non_finite_data(x, y):
    # y = inf would fit exponent NaN with r_squared 1.0; a NaN x would fail
    # inside LAPACK
    with pytest.raises(ValueError, match="finite"):
        scaling_fit(x, y)


def test_power_law_fit_needs_two_distinct_x_values():
    with pytest.raises(ValueError, match="distinct"):
        scaling_fit([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# order_ratio
# ---------------------------------------------------------------------------

def test_order_ratio_measures_force_balance():
    pm = build_phase_model(detuned_sl_pair(0.0, eps=0.05))
    scale = 0.05 * np.sqrt(2.0)   # eps * max |sin - cos|
    assert order_ratio(pm, d_omega=scale) == pytest.approx(0.0, abs=1e-3)
    assert order_ratio(pm, d_omega=2.0 * scale) == pytest.approx(1.0, abs=2e-3)


def test_prescribed_pair_needs_beyond_first_order_locking():
    with pytest.warns(UserWarning, match="out of reach"):
        pm = build_phase_model(sl_prescribed_pair(0.02, 0.2))
    # default detuning comes from the node frequency spread
    assert order_ratio(pm) > 1e10


# ---------------------------------------------------------------------------
# resonance sweep plumbing
# ---------------------------------------------------------------------------

def test_subharmonic_bracket_tracks_the_square_root_law():
    lo, hi = subharmonic_bracket(0.02)
    assert lo < 0.0493 < hi            # calibrated threshold at this detuning
    for d_small, d_big in [(0.01, 0.02), (0.02, 0.04), (0.04, 0.08)]:
        assert subharmonic_bracket(d_small)[1] < subharmonic_bracket(d_big)[1]
        ratio = subharmonic_bracket(d_big)[0] / subharmonic_bracket(d_small)[0]
        assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert SUBHARMONIC_WEIGHTS == (-2, 1)


@pytest.mark.parametrize("rel_width", [0.0, -1.0, math.nan])
def test_non_positive_rel_width_is_rejected_before_any_run(monkeypatch,
                                                           rel_width):
    # rel_width 0 used to run all 60 bisections down to adjacent floats, and
    # a negative t_sim ran every member for the minimum 8 strobe periods
    def no_run(*args, **kwargs):
        raise AssertionError("a cycle was shot or a network integrated")

    monkeypatch.setattr(network, "_shoot", no_run)
    monkeypatch.setattr(diag, "simulate_ensemble", no_run)
    monkeypatch.setattr(diag, "simulate_full", no_run)
    spec = detuned_sl_pair(0.02, 0.1)
    with pytest.raises(ValueError, match="rel_width"):
        critical_coupling(spec, 0.001, 0.2, rel_width=rel_width)
    for name in ("t_sim", "strobe_period", "threshold"):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            critical_coupling(spec, 0.001, 0.2, **{name: rel_width})
    for name in ("t_sim", "strobe_period"):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            lock_psi_series(spec, **{name: rel_width})
