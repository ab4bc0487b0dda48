"""First-order phase reduction of a forced oscillator and its averaging.

Conventions.  The reduced phase obeys

    d theta / dt = omega0 + eps * Z(theta) . p(gamma(theta), t),

and for near-resonant periodic forcing with frame frequency Omega the slow
phase psi = theta - Omega * t obeys, after averaging,

    d psi / dt = (omega0 - Omega) - eps * Gamma_bar(psi).

`average_periodic` returns Gamma_bar in exactly that drag form, so a positive
Gamma_bar at psi slows the slow phase down.  `lock_analysis` is a plain
root-finder on Delta + eps * q(psi) and makes no assumption about where q came
from; when analyzing the forced equation above, pass q = -Gamma_bar.

Averaging.  Commensurate forcing is averaged by one trapezoid sum over the
cycle's grid nodes (`average_periodic`), which is exponentially accurate for
smooth periodic integrands, so an average that vanishes identically comes out
zero to rounding; other forcing falls back to the windowed `mean_value`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .models import TWO_PI, OscillatorModel, Perturbation, wrap_phase
from . import ode
from .cycles import LimitCycle, PeriodicInterpolant
from .phase import PhaseSensitivity

__all__ = [
    "CouplingFunction",
    "LockResult",
    "MeanValueError",
    "gamma_instantaneous",
    "simulate_reduced",
    "simulate_averaged",
    "average_periodic",
    "mean_value",
    "lock_analysis",
    "forced_rhs",
]


_PHASE_SIM_TOL = (1e-10, 1e-12)   # of simulate_reduced and simulate_averaged


class MeanValueError(RuntimeError):
    """Windowed mean did not converge; carries the last estimate and spread."""

    def __init__(self, message, estimate=None, spread=None):
        super().__init__(message)
        self.estimate = estimate
        self.spread = spread


@dataclass
class CouplingFunction:
    """Averaged coupling sampled on a uniform phase grid."""

    grid: np.ndarray
    values: np.ndarray
    provenance: str  # "periodic_average", "mean_value", or "analytic"
    _interp: PeriodicInterpolant = field(init=False, repr=False)

    def __post_init__(self):
        self._interp = PeriodicInterpolant(np.asarray(self.values, dtype=float))

    def __call__(self, psi):
        return self._interp(np.asarray(wrap_phase(psi), dtype=float))

    @property
    def max_abs(self) -> float:
        dense = self(np.linspace(0.0, TWO_PI, 2048, endpoint=False))
        return float(np.max(np.abs(dense)))


def _eval_forcing(pert: Perturbation, x: np.ndarray, t: float) -> np.ndarray:
    """Evaluate p on a stack of states at one time, tolerating scalar-only p."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(pert.p(x, t), dtype=float)
    if out.shape == x.shape:
        return out
    if x.ndim == 2 and out.shape == (x.shape[1],):
        return np.broadcast_to(out, x.shape)
    return np.stack([np.asarray(pert.p(xi, t), dtype=float) for xi in x])


def forced_rhs(model: OscillatorModel, pert: Perturbation) -> Callable:
    """rhs(t, x) = f(x) + eps * p(x, t) for use with the integrators."""
    eps = pert.amplitude

    def rhs(t, x):
        return np.asarray(model.f(x), dtype=float) + eps * np.asarray(
            pert.p(np.asarray(x, dtype=float), t), dtype=float)

    return rhs


def gamma_instantaneous(sens: PhaseSensitivity, cycle: LimitCycle,
                        pert: Perturbation, theta: float, t: float) -> float:
    """Instantaneous phase forcing Z(theta) . p(gamma(theta), t)."""
    theta = float(wrap_phase(theta))
    z = sens(theta)
    x = cycle.gamma_at(theta)
    return float(z @ np.asarray(pert.p(x, t), dtype=float))


@dataclass
class ReducedTrajectory:
    times: np.ndarray
    theta: np.ndarray  # unwrapped phase


def simulate_reduced(sens: PhaseSensitivity, cycle: LimitCycle,
                     pert: Perturbation, theta0: float, t_span,
                     t_eval=None) -> ReducedTrajectory:
    """Integrate the scalar reduced phase equation at `_PHASE_SIM_TOL`.

    d theta / dt = omega0 + eps * Z(theta) . p(gamma(theta), t) with
    eps = pert.amplitude.  Accuracy of the first-order reduction degrades
    linearly in eps; amplitudes above 0.3 trigger a warning.
    """
    eps = pert.amplitude
    if abs(eps) > 0.3:
        warnings.warn(
            f"forcing amplitude {eps:g} exceeds 0.3; the first-order reduction "
            "is not expected to track the full model", stacklevel=2)
    omega0 = cycle.omega0

    def rhs(t, y):
        return np.array([omega0 + eps * gamma_instantaneous(sens, cycle, pert,
                                                             y[0], t)])

    res = ode.solve_ivp(rhs, (float(t_span[0]), float(t_span[1])),
                        np.array([float(theta0)]), _PHASE_SIM_TOL,
                        t_eval=t_eval)
    return ReducedTrajectory(times=res.t.copy(), theta=res.y[0].copy())


def simulate_averaged(coupling: CouplingFunction, delta: float, eps: float,
                      psi0: float, t_span, t_eval=None) -> ReducedTrajectory:
    """Integrate the averaged slow-phase equation
    d psi / dt = delta - eps * Gamma_bar(psi) (drag convention), at
    `_PHASE_SIM_TOL`."""

    def rhs(t, y):
        return np.array([delta - eps * float(coupling(y[0]))])

    res = ode.solve_ivp(rhs, (float(t_span[0]), float(t_span[1])),
                        np.array([float(psi0)]), _PHASE_SIM_TOL,
                        t_eval=t_eval)
    return ReducedTrajectory(times=res.t.copy(), theta=res.y[0].copy())


# --- averaging --------------------------------------------------------------

def average_periodic(sens: PhaseSensitivity, cycle: LimitCycle,
                     pert: Perturbation, omega_force: float) -> CouplingFunction:
    """Average the instantaneous forcing over time in the frame rotating at
    omega_force, on the cycle's phase grid.

    Gamma_bar(psi) = -(1/T) integral of Z(psi + Omega t) . p(gamma(psi +
    Omega t), t) dt, the drag form of the averaged slow-phase equation (see
    module docstring).  When T_p / t_f = p/q with q < 100, t_f = 2 pi / Omega
    the frame period, the average runs over the common period p * t_f as the
    trapezoid sum over the N = M * p times t_k = k * t_f / M, M the cycle's
    grid size.  At t_k every frame phase psi_j + Omega t_k is grid node
    (j + k) mod M, so Z (`sens` at the nodes) and gamma (`cycle.points`)
    are read only at nodes:

        Gamma_bar_j = -(1/N) sum_k Z_{(j+k) mod M} . p(gamma_{(j+k) mod M}, t_k).

    The sum is exact for every harmonic of the common period below N, hence
    exponentially accurate for smooth periodic integrands (Trefethen &
    Weideman, SIAM Review 56, 2014).  Other forcing is averaged with
    `mean_value`.  An omega_force that is not finite and positive is a
    ValueError.
    """
    omega = float(omega_force)
    if not (np.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega_force must be finite and positive, got "
                         f"{omega_force!r}")
    m = cycle.grid_size
    psi = TWO_PI * np.arange(m) / m
    t_frame = TWO_PI / omega

    def integrand_at(t):
        phases = psi + omega * t
        z = sens(phases)
        x = cycle.gamma_at(phases)
        p = _eval_forcing(pert, x, t)
        return np.sum(z * p, axis=1)

    if pert.period is not None:
        ratio = pert.period / t_frame
        frac = Fraction(ratio).limit_denominator(99)
        if frac.numerator > 0 and abs(ratio - float(frac)) <= 1e-9 * max(1.0, ratio):
            z = sens(psi)
            n = m * frac.numerator
            acc = np.zeros(m)
            for k in range(n):
                v = np.sum(z * _eval_forcing(pert, cycle.points, k * t_frame / m),
                           axis=1)
                acc += np.roll(v, -k)
            return CouplingFunction(grid=psi, values=-acc / n,
                                    provenance="periodic_average")

    # Incommensurate (or undeclared) forcing: quasi-periodic mean per node.
    def g(t_arr):
        t_arr = np.atleast_1d(np.asarray(t_arr, dtype=float))
        return np.stack([integrand_at(float(t)) for t in t_arr])

    vals = mean_value(g, t_max=2e5, tol=1e-7)
    return CouplingFunction(grid=psi, values=-np.asarray(vals),
                            provenance="mean_value")


def _gl_panel_nodes(a: float, b: float, panel: float):
    """Composite 16-point Gauss-Legendre nodes and weights on [a, b]."""
    n_panels = max(1, int(np.ceil((b - a) / panel)))
    edges = np.linspace(a, b, n_panels + 1)
    xi, wgt = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * xi[None, :]).reshape(-1)
    w = (half[:, None] * wgt[None, :]).reshape(-1)
    return t, w


def mean_value(g: Callable, t_max: float = 4e6, tol: float = 1e-6,
               panel: float = 1.0):
    """Long-time mean of a bounded signal g(t) by geometrically growing windows.

    Window averages over [0, W], W = 64 * 2^k, are compared until two
    successive estimates differ by less than tol.  Composite Gauss-Legendre
    quadrature keeps the quadrature error far below the window truncation
    error for signals with frequencies up to a few rad per time unit.  Raises
    MeanValueError (carrying the last estimate and spread) when the budget
    t_max is exhausted first.  g takes a 1-d array of times and returns its
    values stacked along the first axis.
    """
    integral = None
    prev_mean = None
    spread = None
    spread_prev = None
    w_edge = 0.0
    window = 64.0
    while window <= t_max * (1.0 + 1e-12):
        t_nodes, wts = _gl_panel_nodes(w_edge, window, panel)
        chunk = 1 << 18
        for i0 in range(0, len(t_nodes), chunk):
            vals = np.asarray(g(t_nodes[i0:i0 + chunk]), dtype=float)
            contrib = np.tensordot(wts[i0:i0 + chunk], vals, axes=(0, 0))
            integral = contrib if integral is None else integral + contrib
        w_edge = window
        mean = integral / window
        if prev_mean is not None:
            spread_prev = spread
            spread = float(np.max(np.abs(mean - prev_mean)))
            # Two consecutive small spreads guard against an oscillatory tail
            # happening to line up across one doubling.
            if spread < tol and spread_prev is not None and spread_prev < tol:
                return mean if np.ndim(mean) else float(mean)
        prev_mean = mean
        window *= 2.0
    est = prev_mean if prev_mean is not None else np.nan
    raise MeanValueError(
        f"windowed mean did not converge to {tol:g} within t_max = {t_max:g} "
        f"(last spread {spread if spread is not None else float('nan'):.3e})",
        estimate=est, spread=spread)


# --- locking ----------------------------------------------------------------

@dataclass
class LockResult:
    locked: bool
    fixed_points: list          # [(psi, stable_bool)], sorted by psi
    condition_value: float      # |Delta| / eps


CouplingLike = Union[CouplingFunction, Callable, Sequence, np.ndarray]
_N_SCAN = 4096   # points of lock_analysis's sign scan


def _as_coupling_callable(coupling: CouplingLike):
    if isinstance(coupling, CouplingFunction):
        return coupling
    if callable(coupling):
        return lambda psi: np.asarray(coupling(np.asarray(psi)), dtype=float)
    values = np.asarray(coupling, dtype=float)
    interp = PeriodicInterpolant(values)
    return lambda psi: interp(np.asarray(wrap_phase(psi), dtype=float))


def lock_analysis(delta: float, eps: float,
                  coupling: CouplingLike) -> LockResult:
    """Fixed points of d psi / dt = delta + eps * q(psi) on [0, 2*pi).

    Roots are located by a sign scan over `_N_SCAN` = 4096 points, each
    bracketed sign change refined with Brent's method (`ode._brentq`); a root
    is stable when the right-hand side has negative slope there.  Stable and
    unstable points alternate around the circle whenever the locking
    inequality is strict.  A non-finite delta or eps raises ValueError.
    """
    delta, eps = float(delta), float(eps)
    if not (np.isfinite(delta) and np.isfinite(eps)):
        raise ValueError(f"delta and eps must be finite, got {delta!r}, "
                         f"{eps!r}")
    q = _as_coupling_callable(coupling)

    def rhs(psi):
        return delta + eps * np.asarray(q(psi), dtype=float)

    cond = abs(delta) / eps if eps != 0.0 else np.inf
    if eps == 0.0:
        return LockResult(locked=(delta == 0.0), fixed_points=[],
                          condition_value=cond)

    psi_scan = np.linspace(0.0, TWO_PI, _N_SCAN, endpoint=False)
    vals = rhs(psi_scan)
    # a node counts as a root when the rhs there is lost in float noise;
    # the wrap interval re-evaluates its far end at 2*pi itself because q
    # is only periodic up to rounding (sin(2*pi) != sin(0) in floats)
    f_floor = 1e-13 * (abs(delta) + abs(eps) * float(np.max(np.abs(vals))))
    roots = []
    for i in range(_N_SCAN):
        a = psi_scan[i]
        b = psi_scan[i + 1] if i + 1 < _N_SCAN else TWO_PI
        fa = vals[i]
        fb = vals[i + 1] if i + 1 < _N_SCAN else float(rhs(TWO_PI))
        if abs(fa) <= f_floor:
            roots.append(float(a))
        elif fa * fb < 0.0 and abs(fb) > f_floor:
            roots.append(ode._brentq(lambda p: float(rhs(p)), a, b,
                                     1e-14, 8.9e-16))
    # Deduplicate on the circle (wrap-around and floor/bracket double hits).
    roots = sorted(np.mod(np.asarray(roots, dtype=float), TWO_PI))
    merged = []
    for r in roots:
        if merged and r - merged[-1] < 1e-9:
            continue
        merged.append(r)
    if len(merged) > 1 and TWO_PI - merged[-1] + merged[0] < 1e-9:
        merged.pop()
    roots = merged
    fixed_points = []
    h = TWO_PI / (8 * _N_SCAN)
    for r in roots:
        slope = float(rhs(r + h) - rhs(r - h)) / (2.0 * h)
        fixed_points.append((float(r), slope < 0.0))
    return LockResult(locked=len(fixed_points) > 0, fixed_points=fixed_points,
                      condition_value=cond)
