"""Acceptance suite: one check per headline capability, with a printed
PASS/FAIL line each.

Run it alone with `pytest tests/test_acceptance.py -v -s`; the sweep-backed
checks share one session fixture so the slow simulations run once.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import phasekit as pk
from phasekit import (
    SUBHARMONIC_WEIGHTS,
    build_phase_model,
    critical_coupling,
    lock_analysis,
    order_ratio,
    scaling_fit,
    sl_prescribed_pair,
    subharmonic_bracket,
    subharmonic_pair,
    subharmonic_strobe,
)

from conftest import circ_err

TWO_PI = 2 * math.pi


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {label}: FAIL", flush=True)
        raise
    print(f"[ACCEPTANCE] {label}: PASS", flush=True)


SWEEP_DETUNINGS = (0.01, 0.02, 0.04, 0.08)


@pytest.fixture(scope="session")
def threshold_sweep():
    """Critical coupling of the 2:1 pair at each detuning (run once)."""
    def threshold(d):
        lo, hi = subharmonic_bracket(d)
        spec = subharmonic_pair(d, lo)
        strobe = subharmonic_strobe(spec)
        t_sim = max(1500.0, 25.0 / d)
        return critical_coupling(spec, lo, hi, rel_width=0.05,
                                 t_sim=t_sim, weights=SUBHARMONIC_WEIGHTS,
                                 strobe_period=strobe, tol=(1e-6, 1e-8))

    return {d: threshold(d) for d in SWEEP_DETUNINGS}


def test_prc_matches_closed_form_gradients(radial_cycle, spiral_cycle,
                                           radial_sens, spiral_sens):
    with criterion("phase response curves match closed-form gradients "
                   "(max err <= 1e-4)"):
        for sens, closed_form in [
            (radial_sens,
             lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1)),
            (spiral_sens,
             lambda th: np.stack([np.cos(th) - np.sin(th),
                                  np.cos(th) + np.sin(th)], axis=-1)),
        ]:
            grid = sens.grid
            assert len(grid) >= 256
            worst = np.max(np.abs(sens.values - closed_form(grid)))
            assert worst <= 1e-4


def test_spiral_isochron_identity_holds_across_radii(spiral_cycle):
    with criterion("log-spiral isochron identity on 500 points off the cycle "
                   "(<= 1e-4)"):
        model, cycle = spiral_cycle
        theta = math.pi / 4
        iso = pk.compute_isochron(model, cycle, theta, (0.3, 2.0),
                                  n_points=500)
        assert len(iso.points) >= 500
        r = np.hypot(iso.points[:, 0], iso.points[:, 1])
        phi = np.arctan2(iso.points[:, 1], iso.points[:, 0])
        # the phase of this model is the polar angle advanced by log-radius
        resid = np.angle(np.exp(1j * (phi + np.log(r) - theta)))
        assert np.max(np.abs(resid)) <= 1e-4
        assert r.min() <= 0.31 and r.max() >= 1.99


def test_sinusoidal_forcing_averages_to_half_cosine(radial_cycle, radial_sens):
    with criterion("resonant sinusoidal forcing averages to half-cosine "
                   "(<= 1e-6)"):
        _, cycle = radial_cycle
        pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0, component=0)
        cf = pk.average_periodic(radial_sens, cycle, pert, 1.0)
        worst = np.max(np.abs(cf.values - 0.5 * np.cos(cf.grid)))
        assert worst <= 1e-6


def test_lock_fixed_points_sit_at_arcsin_positions():
    with criterion("sinusoidal lock fixed points at arcsin positions "
                   "(<= 1e-8)"):
        coupling = lambda psi: -np.sin(psi)
        for ratio in (0.25, 0.5, 0.9):
            res = lock_analysis(ratio, 1.0, coupling)
            assert res.locked
            stable = [p for p, ok in res.fixed_points if ok]
            unstable = [p for p, ok in res.fixed_points if not ok]
            assert len(stable) == 1 and len(unstable) == 1
            assert abs(stable[0] - math.asin(ratio)) <= 1e-8
            assert abs(unstable[0] - (math.pi - math.asin(ratio))) <= 1e-8
        res = lock_analysis(1.5, 1.0, coupling)
        assert not res.locked
        assert res.fixed_points == []
        assert res.condition_value == pytest.approx(1.5)


def test_reduction_error_scales_linearly_with_amplitude(radial_cycle,
                                                        radial_sens):
    with criterion("reduction error scales linearly in forcing amplitude "
                   "(slope 1 +/- 0.25)"):
        model, cycle = radial_cycle
        theta0 = 0.3
        eps_list = [0.1, 0.05, 0.025]
        errs = []
        for eps in eps_list:
            pert = pk.sinusoidal_forcing(omega=1.0, amplitude=eps)
            horizon = 1.0 / eps
            t_eval = np.linspace(0.0, horizon, 80)
            sol = solve_ivp(pk.forced_rhs(model, pert), (0.0, horizon),
                            cycle.gamma_at(theta0), t_eval=t_eval,
                            rtol=1e-10, atol=1e-12)
            th_full = pk.asymptotic_phase(model, cycle, sol.y.T)
            red = pk.simulate_reduced(radial_sens, cycle, pert, theta0,
                                      (0.0, horizon), t_eval=t_eval)
            errs.append(circ_err(th_full, red.theta))
        assert errs[0] > errs[1] > errs[2]
        fit = scaling_fit(np.array(eps_list), np.array(errs))
        assert abs(fit.exponent - 1.0) <= 0.25
        assert fit.r_squared > 0.95


def test_prescribed_sensitivity_pair_has_vanishing_coupling():
    with criterion("prescribed-sensitivity pair averages to zero coupling "
                   "(<= 1e-10) though the full pair locks"):
        spec = sl_prescribed_pair(0.02, 0.2)
        with pytest.warns(UserWarning):
            pm = build_phase_model(spec)
        assert pm.prescribed
        worst = max(np.max(np.abs(cf.values)) for cf in pm.edges.values())
        assert worst <= 1e-10
        assert order_ratio(pm) >= 1e10


def test_subharmonic_locking_threshold_at_reference_detuning(threshold_sweep):
    with criterion("2:1 locking threshold at detuning 0.02 inside "
                   "[0.035, 0.065]"):
        res = threshold_sweep[0.02]
        assert 0.035 <= res.eps_c <= 0.065
        lo, hi = res.bracket
        assert (hi - lo) / res.eps_c <= 0.05
        # the bisection saw both phases of the pair
        assert any(rep.locked for rep in res.reports.values())
        assert any(not rep.locked for rep in res.reports.values())


def test_locking_threshold_follows_square_root_scaling(threshold_sweep):
    with criterion("locking threshold scales as detuning**0.5 "
                   "(exponent 0.5 +/- 0.1)"):
        d = np.array(SWEEP_DETUNINGS)
        eps_c = np.array([threshold_sweep[x].eps_c for x in SWEEP_DETUNINGS])
        assert np.all(np.diff(eps_c) > 0.0)
        fit = scaling_fit(d, eps_c)
        assert abs(fit.exponent - 0.5) <= 0.1
        assert fit.r_squared > 0.97


def test_modulated_adjacency_averages_to_static_mean():
    with criterion("incommensurately modulated adjacency averages to its "
                   "static mean (<= 1e-6)"):
        m = pk.make_model("stuart_landau", omega=2.0, c2=1.0)
        a = np.array([[0.0, 0.8], [0.5, 0.0]])
        b = np.array([[0.0, 0.3], [0.2, 0.0]])
        c = np.array([[0.0, -0.4], [0.1, 0.0]])
        modulated = pk.NetworkSpec(models=[m, m], epsilon=0.05, a=a, b=b, c=c,
                                   nu1=math.sqrt(2.0), nu2=1.0,
                                   coupling="direct")
        pm = build_phase_model(modulated)
        static = build_phase_model(
            pk.NetworkSpec(models=[m, m], epsilon=0.05, a=a,
                           coupling="direct"))
        assert np.max(np.abs(pm.a_eff - a)) <= 1e-6
        for key in [(0, 1), (1, 0)]:
            assert np.array_equal(pm.edges[key].values,
                                  static.edges[key].values)


def test_structural_properties_hold(radial_cycle, spiral_cycle, sl_cycle,
                                    radial_sens, spiral_sens):
    with criterion("structural properties: flow group law, phase foliation, "
                   "sensitivity normalization, contraction exponents"):
        rng = np.random.default_rng(2026)

        # flow composition: advancing by t then s equals advancing by t + s
        model, cycle = radial_cycle
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 2)
            if np.hypot(*x) < 0.3:
                continue
            t, s = rng.uniform(0.2, 3.0, 2)
            once = pk.flow(model, x, t + s)
            twice = pk.flow(model, pk.flow(model, x, t), s)
            assert np.linalg.norm(once - twice) < 1e-6

        # phase foliation: the asymptotic phase advances at exactly omega0
        sp_model, sp_cycle = spiral_cycle
        ang = rng.uniform(0.0, TWO_PI, 50)
        rad = rng.uniform(0.5, 1.8, 50)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        t_flow = 1.7
        flowed = np.stack([pk.flow(sp_model, p, t_flow,
                                   tol=(1e-11, 1e-13)) for p in pts])
        before = pk.asymptotic_phase(sp_model, sp_cycle, pts)
        after = pk.asymptotic_phase(sp_model, sp_cycle, flowed)
        assert circ_err(after, before + sp_cycle.omega0 * t_flow) < 1e-5

        # sensitivity normalization: Z . f = omega0 all along the cycle
        for (mdl, cyc), sens in [(radial_cycle, radial_sens),
                                 (spiral_cycle, spiral_sens)]:
            fvals = np.stack([mdl.f(p) for p in cyc.points])
            dot = np.einsum("ij,ij->i", sens.values, fvals)
            assert np.max(np.abs(dot - cyc.omega0)) < 1e-6

        # transverse contraction exponent of every built-in planar model
        for mdl, cyc in [radial_cycle, spiral_cycle, sl_cycle]:
            assert abs(pk.floquet_exponent(mdl, cyc) - (-2.0)) < 1e-4

        # the numeric phase map agrees with the closed form off the cycle
        th = pk.asymptotic_phase(sp_model, sp_cycle, pts)
        want = np.array([sp_model.analytic_phase(p) for p in pts])
        assert circ_err(th, want) < 1e-5
