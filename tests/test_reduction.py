import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import phasekit as pk
from phasekit import (
    CouplingFunction,
    MeanValueError,
    Perturbation,
    average_periodic,
    lock_analysis,
    mean_value,
)

from conftest import circ_err

TWO_PI = 2 * math.pi


def test_gamma_instantaneous_example(radial_cycle, radial_sens):
    _, cyc = radial_cycle
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0)
    v = pk.gamma_instantaneous(radial_sens, cyc, pert, math.pi / 2,
                               math.pi / 2)
    assert abs(v - (-1.0)) < 1e-7


def test_gamma_instantaneous_zero_cases(radial_cycle, radial_sens):
    _, cyc = radial_cycle
    zero = Perturbation(p=lambda x, t: np.zeros(2), period=1.0, amplitude=1.0)
    for th, t in [(0.3, 0.0), (2.2, 5.5)]:
        assert pk.gamma_instantaneous(radial_sens, cyc, zero, th, t) == 0.0
    # forcing along the flow-orthogonal direction of Z(theta)
    theta = 0.8
    z = radial_sens(theta)
    perp = np.array([z[1], -z[0]])
    ortho = Perturbation(p=lambda x, t: perp, period=1.0, amplitude=1.0)
    assert abs(pk.gamma_instantaneous(radial_sens, cyc, ortho, theta, 0.4)) < 1e-7


def test_simulate_reduced_unperturbed(radial_cycle, radial_sens):
    _, cyc = radial_cycle
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=0.0)
    t_eval = np.linspace(0.0, 12.0, 50)
    red = pk.simulate_reduced(radial_sens, cyc, pert, 0.7, (0.0, 12.0),
                              t_eval=t_eval)
    assert circ_err(red.theta, 0.7 + cyc.omega0 * t_eval) < 1e-9


def test_reduced_tracks_full_model(radial_cycle, radial_sens):
    # max reduced-vs-full phase error stays below 2 eps over horizon 1/eps
    m, cyc = radial_cycle
    errs = {}
    for eps in (0.05, 0.025):
        pert = pk.sinusoidal_forcing(omega=1.0, amplitude=eps)
        horizon = 1.0 / eps
        t_eval = np.linspace(0.0, horizon, 60)
        sol = solve_ivp(pk.forced_rhs(m, pert), (0.0, horizon),
                        cycle_state(cyc, 0.3), t_eval=t_eval,
                        rtol=1e-10, atol=1e-12)
        th_full = pk.asymptotic_phase(m, cyc, sol.y.T)
        red = pk.simulate_reduced(radial_sens, cyc, pert, 0.3,
                                  (0.0, horizon), t_eval=t_eval)
        errs[eps] = circ_err(th_full, red.theta)
        assert errs[eps] <= 2.0 * eps
    # halving eps roughly halves the error
    ratio = errs[0.05] / errs[0.025]
    assert 1.4 < ratio < 2.6


def cycle_state(cyc, theta):
    return cyc.gamma_at(theta)


def test_average_periodic_half_cosine(radial_cycle, radial_sens):
    _, cyc = radial_cycle
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0)
    q = average_periodic(radial_sens, cyc, pert, 1.0)
    want = 0.5 * np.cos(q.grid)
    # bound: what 64-point Gauss-Legendre panels on the interpolants reached
    # here; the node sum must be no less accurate
    assert np.max(np.abs(q.values - want)) <= 3.91e-12
    assert q.provenance == "periodic_average"


def test_average_periodic_zero_forcing(radial_cycle, radial_sens):
    _, cyc = radial_cycle
    zero = Perturbation(p=lambda x, t: np.zeros(2), period=TWO_PI,
                        amplitude=1.0)
    q = average_periodic(radial_sens, cyc, zero, 1.0)
    assert np.max(np.abs(q.values)) < 1e-12


def test_average_periodic_nonresonant(radial_cycle, radial_sens):
    # second-harmonic forcing against a first-harmonic sensitivity averages out
    _, cyc = radial_cycle
    pert = pk.sinusoidal_forcing(omega=2.0, amplitude=1.0)
    q = average_periodic(radial_sens, cyc, pert, 1.0)
    assert np.max(np.abs(q.values)) < 1e-6


@pytest.fixture(scope="module")
def relaxation_pairs():
    """(cycle, sensitivity) of the relaxation oscillator at mu = 1 and 3."""
    out = {}
    for mu in (1.0, 3.0):
        model = pk.make_model("relaxation", mu=mu)
        cycle = pk.find_limit_cycle(model, (2.0, 0.0))
        out[mu] = cycle, pk.phase_sensitivity(model, cycle)
    return out


def test_average_periodic_subharmonic_forcing_averages_to_zero(
        relaxation_pairs):
    # every harmonic of Z . p sits at n * w0 +- w0/8 (or w0/3): none is zero
    cycle, sens = relaxation_pairs[3.0]
    w0 = cycle.omega0
    pert = pk.sinusoidal_forcing(omega=w0 / 8.0, amplitude=1.0)
    q = average_periodic(sens, cycle, pert, w0)
    assert np.max(np.abs(q.values)) <= 1e-12

    cycle, sens = relaxation_pairs[1.0]
    w0 = cycle.omega0

    def p(x, t):
        return np.stack([x[..., 0] ** 2 * np.sin(w0 * t / 3.0),
                         x[..., 1] * np.cos(w0 * t / 3.0)], axis=-1)

    pert = Perturbation(p=p, period=3.0 * TWO_PI / w0, amplitude=1.0)
    q = average_periodic(sens, cycle, pert, w0)
    assert np.max(np.abs(q.values)) <= 1e-12
    assert q.provenance == "periodic_average"


def test_average_periodic_over_two_frame_periods(relaxation_pairs):
    # p = (0, (x0 + x0^2) sin^2(1.5 w0 t)) declared with period
    # 4 pi / (3 w0): two frame periods per three forcing periods.  With
    # s = psi + w0 t, sin^2(1.5 w0 t) = (1 - cos 3(s - psi)) / 2, so for
    # g = Z_1 (gamma_0 + gamma_0^2), Gamma_bar(psi) = -<g>/2 +
    # Re(G_3 e^{3 i psi}) / 2 with G_3 = <g e^{-3is}>, both means taken on
    # 4096 interpolant samples off the grid nodes
    cycle, sens = relaxation_pairs[1.0]
    w0 = cycle.omega0

    def p(x, t):
        return np.stack([np.zeros_like(x[..., 0]),
                         (x[..., 0] + x[..., 0] ** 2)
                         * np.sin(1.5 * w0 * t) ** 2], axis=-1)

    pert = Perturbation(p=p, period=2.0 * TWO_PI / (1.5 * w0), amplitude=1.0)
    q = average_periodic(sens, cycle, pert, w0)
    s = TWO_PI * (np.arange(4096) + 0.37) / 4096
    x0 = cycle.gamma_at(s)[:, 0]
    g = sens(s)[:, 1] * (x0 + x0 ** 2)
    g3 = np.mean(g * np.exp(-3j * s))
    want = -0.5 * np.mean(g) + 0.5 * np.real(g3 * np.exp(3j * q.grid))
    assert np.ptp(q.values) > 0.1 and np.max(np.abs(q.values)) > 0.2
    assert np.max(np.abs(q.values - want)) <= 1e-12


def test_average_periodic_spiral_closed_form(spiral_cycle, spiral_sens):
    # bound: see test_average_periodic_half_cosine
    _, cycle = spiral_cycle
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0)
    q = average_periodic(spiral_sens, cycle, pert, 1.0)
    want = 0.5 * (np.cos(q.grid) + np.sin(q.grid))
    assert np.max(np.abs(q.values - want)) <= 6.53e-12


def test_average_periodic_reads_a_sensitivity_on_another_grid(radial_cycle,
                                                              radial_sens):
    _, cycle = radial_cycle
    coarse = pk.PhaseSensitivity(grid=radial_sens.grid[::2].copy(),
                                 values=radial_sens.values[::2].copy(),
                                 omega0=radial_sens.omega0)
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0)
    q = average_periodic(coarse, cycle, pert, 1.0)
    assert len(q.grid) == 256
    assert np.max(np.abs(q.values - 0.5 * np.cos(q.grid))) <= 1e-10


@pytest.mark.parametrize("omega", [math.inf, math.nan, 0.0, -1.0])
def test_average_periodic_rejects_a_bad_frame_frequency(radial_cycle,
                                                        radial_sens, omega):
    _, cycle = radial_cycle
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0)
    with pytest.raises(ValueError, match="omega_force"):
        average_periodic(radial_sens, cycle, pert, omega)


def test_mean_value_quasiperiodic():
    nu1, nu2 = 1.0, math.sqrt(2.0)
    g = lambda t: 0.7 + 0.5 * np.cos(nu1 * t) + 0.3 * np.cos(nu2 * t)
    assert abs(mean_value(g, tol=1e-6) - 0.7) < 1e-5


def test_mean_value_constant():
    assert mean_value(lambda t: np.full_like(np.asarray(t, float), 3.25)) \
        == pytest.approx(3.25, abs=1e-12)


def test_mean_value_sin_squared():
    g = lambda t: np.sin(t) ** 2
    assert abs(mean_value(g, tol=1e-7) - 0.5) < 1e-6


def test_mean_value_needs_a_signal_over_arrays_of_times():
    # a scalar-only g fails on its first call instead of being looped over
    calls = []

    def g(t):
        calls.append(np.shape(t))
        return math.cos(t)

    with pytest.raises(TypeError):
        mean_value(g)
    assert len(calls) == 1 and calls[0][0] > 1


def test_mean_value_nonconvergent():
    # secular growth never settles; the error carries the last estimate
    with pytest.raises(MeanValueError) as info:
        mean_value(lambda t: 0.001 * np.asarray(t, float), t_max=1e4,
                   tol=1e-9)
    assert info.value.estimate is not None


def test_lock_analysis_arcsin():
    for ratio in (0.25, 0.5, 0.9):
        res = lock_analysis(ratio, 1.0, lambda psi: -np.sin(psi))
        assert res.locked
        stable = [p for p, s in res.fixed_points if s]
        unstable = [p for p, s in res.fixed_points if not s]
        assert len(stable) == 1 and len(unstable) == 1
        assert abs(stable[0] - math.asin(ratio)) < 1e-8
        assert abs(unstable[0] - (math.pi - math.asin(ratio))) < 1e-8


def test_lock_analysis_zero_detuning():
    res = lock_analysis(0.0, 0.6, lambda psi: -np.sin(psi))
    stable = [p for p, s in res.fixed_points if s]
    unstable = [p for p, s in res.fixed_points if not s]
    assert abs(stable[0]) < 1e-8 or abs(stable[0] - TWO_PI) < 1e-8
    assert abs(unstable[0] - math.pi) < 1e-8


def test_lock_analysis_of_coupling_samples():
    grid = TWO_PI * np.arange(64) / 64
    res = lock_analysis(0.5, 1.0, -np.sin(grid))
    stable = [p for p, s in res.fixed_points if s]
    unstable = [p for p, s in res.fixed_points if not s]
    assert abs(stable[0] - math.asin(0.5)) < 1e-8
    assert abs(unstable[0] - (math.pi - math.asin(0.5))) < 1e-8


@pytest.mark.parametrize("delta, locked", [(0.0, True), (0.3, False)])
def test_lock_analysis_without_coupling(delta, locked):
    res = lock_analysis(delta, 0.0, lambda psi: -np.sin(psi))
    assert res.locked == locked
    assert res.fixed_points == []
    assert res.condition_value == math.inf


@pytest.mark.parametrize("delta, eps", [(math.nan, 0.1), (0.1, math.inf),
                                        (-math.inf, 1.0), (0.2, math.nan)])
def test_lock_analysis_rejects_non_finite_inputs(delta, eps):
    with pytest.raises(ValueError, match="delta and eps must be finite"):
        lock_analysis(delta, eps, np.sin)


def test_lock_analysis_out_of_range():
    res = lock_analysis(1.4, 1.0, lambda psi: -np.sin(psi))
    assert not res.locked
    assert res.fixed_points == []
    assert res.condition_value == pytest.approx(1.4)


def test_lock_analysis_alternation(radial_cycle, radial_sens):
    # stable and unstable roots alternate around the circle
    _, cyc = radial_cycle
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0)
    q = average_periodic(radial_sens, cyc, pert, 1.0)
    res = lock_analysis(0.1, 0.4, q)
    assert res.locked
    flags = [s for _, s in res.fixed_points]
    assert all(a != b for a, b in zip(flags, flags[1:]))


def test_lock_analysis_coupling_function_input():
    grid = TWO_PI * np.arange(256) / 256
    q = CouplingFunction(grid=grid, values=-np.sin(grid),
                         provenance="analytic")
    res = lock_analysis(0.5, 1.0, q)
    stable = [p for p, s in res.fixed_points if s]
    assert abs(stable[0] - math.asin(0.5)) < 1e-6


def test_simulate_averaged_matches_reduced_slow_phase(radial_cycle,
                                                      radial_sens):
    # the averaged slow phase shadows the reduced equation's slow phase
    _, cyc = radial_cycle
    eps = 0.05
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=eps)
    q = average_periodic(radial_sens, cyc, pert, 1.0)
    horizon = 1.0 / eps
    t_eval = np.linspace(0.0, horizon, 60)
    red = pk.simulate_reduced(radial_sens, cyc, pert, 0.4, (0.0, horizon),
                              t_eval=t_eval)
    avg = pk.simulate_averaged(q, cyc.omega0 - 1.0, eps, 0.4,
                               (0.0, horizon), t_eval=t_eval)
    slow_red = red.theta - 1.0 * t_eval
    assert circ_err(slow_red, avg.theta) < 2.0 * eps
