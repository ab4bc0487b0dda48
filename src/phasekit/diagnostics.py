"""Synchronization diagnostics: lock detection, threshold sweeps, scaling fits.

Lock detection works on a sampled phase difference series.  For forced or
coupled systems the series should be sampled stroboscopically (once per
nominal rotation) so that a locked state shows up as a flat tail; dense
sampling carries the within-cycle wobble of the coupling and would swamp a
tight flatness threshold.  `critical_coupling` runs that pipeline on one
network and bisects the locking threshold in its coupling strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .models import TWO_PI, wrap_phase
from .network import (
    NetworkSpec,
    NetworkTrajectory,
    PhaseModel,
    network_phases,
    simulate_ensemble,
    simulate_full,
)

__all__ = [
    "SyncReport",
    "CriticalCouplingResult",
    "CouplingRangeError",
    "sync_measure",
    "lock_psi_series",
    "critical_coupling",
    "ScalingFit",
    "scaling_fit",
    "order_ratio",
]


@dataclass(frozen=True)
class SyncReport:
    """Verdict on one sampled phase-difference series.

    S is the root-mean-square of the phase-difference velocity over the
    measurement tail (centered differences on the unwrapped signal); slips is
    the net number of full turns the tail winds through.  Locked means the
    velocity stays below threshold and the tail winds zero net turns.
    """

    S: float
    locked: bool
    slips: int
    psi_star: Optional[float]
    threshold: float
    drift: float

    def __bool__(self):
        return self.locked


def sync_measure(times, phase_diff, transient_frac: float = 0.5,
                 natural_freq: float = 1.0,
                 threshold: Optional[float] = None) -> SyncReport:
    """Classify a phase-difference series as locked or drifting.

    phase_diff must be continuously unwrapped (no artificial 2*pi jumps).
    The first transient_frac of the samples is discarded; velocities come
    from centered differences on the remaining tail, and S is their RMS.  A
    clean drift at rate d gives S = d; a locked tail gives S near zero.
    threshold defaults to 1e-3 times the natural frequency, making the test
    dimensionally consistent; a threshold given must be positive (else
    ValueError).
    """
    times = np.asarray(times, dtype=float)
    psi = np.asarray(phase_diff, dtype=float)
    if times.shape != psi.shape or times.ndim != 1:
        raise ValueError("times and phase_diff must be matching 1-d arrays")
    if not 0.0 <= transient_frac < 1.0:
        raise ValueError("transient_frac must lie in [0, 1)")
    _check_positive(threshold=threshold)
    k0 = int(np.floor(transient_frac * len(psi)))
    tail = psi[k0:]
    t_tail = times[k0:]
    if len(tail) < 4:
        raise ValueError("too few samples left after discarding the transient")
    if threshold is None:
        threshold = 1e-3 * abs(natural_freq)
    vel = (tail[2:] - tail[:-2]) / (t_tail[2:] - t_tail[:-2])
    spread = float(np.sqrt(np.mean(vel ** 2)))
    slips = int(np.round((tail[-1] - tail[0]) / TWO_PI))
    span = float(t_tail[-1] - t_tail[0])
    drift = float((tail[-1] - tail[0]) / span) if span > 0.0 else 0.0
    locked = bool(spread < threshold and slips == 0)
    psi_star = None
    if locked:
        psi_star = float(wrap_phase(np.arctan2(np.mean(np.sin(tail)),
                                               np.mean(np.cos(tail)))))
    return SyncReport(S=spread, locked=locked, slips=slips, psi_star=psi_star,
                      threshold=float(threshold), drift=drift)


def _check_positive(**values):
    """ValueError for any value given that is not > 0 (NaN included)."""
    for name, value in values.items():
        if value is not None and not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def _strobe_times(spec: NetworkSpec, epsilon: float, t_sim: Optional[float],
                  strobe_period: Optional[float]):
    """(t_eval, omega_ref): the stroboscopic sample times of one run."""
    omega_ref = float(min(c.omega0 for c in spec.cycles()))
    if strobe_period is None:
        strobe_period = TWO_PI / omega_ref
    if t_sim is None:
        eps = abs(epsilon)
        t_sim = max(10.0 / eps if eps > 0.0 else 500.0, 500.0)
    n = max(int(np.floor(t_sim / strobe_period)), 8)
    return strobe_period * np.arange(n + 1), omega_ref


def _slow_phase(spec: NetworkSpec, traj: NetworkTrajectory, weights):
    phases = network_phases(spec, traj)
    return weights[0] * phases[:, 0] + weights[1] * phases[:, 1]


_LOCK_TOL = (1e-7, 1e-9)   # (rtol, atol) of the locking runs by default


def lock_psi_series(spec: NetworkSpec, t_sim: Optional[float] = None,
                    weights=(-1.0, 1.0),
                    strobe_period: Optional[float] = None):
    """Stroboscopic slow-phase series of nodes 0 and 1 of a coupled network.

    Runs the network from phase zero on every node cycle, at `_LOCK_TOL`.
    Samples once per strobe_period (default: one rotation of the slowest
    node, so every node phase advances by a near-integer number of turns
    between samples) and returns (times, psi, omega_ref) with

        psi = weights[0] * theta_0 + weights[1] * theta_1

    on the unwrapped node phases.  The default weights give the plain phase
    difference; integer weights like (-2, 1) track a p:q resonance
    combination instead.  A t_sim or strobe_period that is given must be
    positive (else ValueError).
    """
    _check_positive(t_sim=t_sim, strobe_period=strobe_period)
    t_eval, omega_ref = _strobe_times(spec, spec.epsilon, t_sim, strobe_period)
    traj = simulate_full(spec, (0.0, float(t_eval[-1])), t_eval=t_eval,
                         tol=_LOCK_TOL)
    return t_eval, _slow_phase(spec, traj, weights), omega_ref


class CouplingRangeError(RuntimeError):
    """The locking transition is outside the scanned coupling range."""

    def __init__(self, message: str, side: str):
        super().__init__(message)
        self.side = side

    def __reduce__(self):
        # pickle with both arguments, so the error can leave a worker process
        return type(self), (*self.args, self.side)


@dataclass
class CriticalCouplingResult:
    eps_c: float
    bracket: tuple
    n_runs: int
    reports: dict              # epsilon -> SyncReport


# Most members one stacked integration carries.  A bisection tree larger than
# this is integrated in rounds, so memory stays bounded for any rel_width.
STACK_CAP = 32
_MAX_BISECTIONS = 60   # most steps critical_coupling bisects


def _bisection_tree(lo: float, hi: float, rel_width: float, depth: int):
    """Midpoints a bisection of (lo, hi) may classify, breadth first.

    The stopping rule depends on the bracket alone, so every midpoint the
    bisection could reach within `depth` steps is known before any verdict.
    """
    level = [(lo, hi)]
    for _ in range(depth):
        below = []
        for a, b in level:
            mid = 0.5 * (a + b)
            if (b - a) / mid > rel_width:
                yield mid
                below += [(a, mid), (mid, b)]
        level = below


def critical_coupling(spec: NetworkSpec, eps_lo: float, eps_hi: float,
                      rel_width: float = 0.05,
                      t_sim: Optional[float] = None,
                      weights=(-1.0, 1.0),
                      strobe_period: Optional[float] = None,
                      tol=_LOCK_TOL,
                      threshold: Optional[float] = None) -> CriticalCouplingResult:
    """Bisect the smallest coupling strength that phase-locks a network.

    Every run is spec at its own epsilon (spec.epsilon is not read) and
    shares the spec's node cycles.  It starts from phase zero on the node
    cycles, and its verdict is `sync_measure`, with its default transient,
    on the slow phase of nodes 0 and 1 as `lock_psi_series` forms it.  The
    endpoints must straddle the transition: a locked lower endpoint raises
    CouplingRangeError(side="below"), an unlocked upper endpoint
    side="above".  Bisection stops when the bracket is narrower than
    rel_width relative to its midpoint, or after `_MAX_BISECTIONS` = 60
    steps.  rel_width, and t_sim, strobe_period and threshold when given,
    must be positive; otherwise ValueError is raised before any run.

    The runs are integrated speculatively.  Because the stopping rule
    depends only on the bracket, the endpoints and every midpoint the
    bisection could reach are enumerated first and integrated as one
    `simulate_ensemble` stack (with its sqrt(K) tolerance rule, so each
    member is at least as accurate as a solo run).  The bisection then walks
    the finished trajectories as a sequential one would, measuring the slow
    phase only of the members it visits; reports and n_runs cover exactly
    those.  A stack holds at most STACK_CAP = 32 members, taken breadth
    first; a bisection that walks past them integrates the next round,
    rooted at the bracket it has reached.
    """
    if not 0.0 < eps_lo < eps_hi:
        raise ValueError("need 0 < eps_lo < eps_hi")
    _check_positive(rel_width=rel_width, t_sim=t_sim,
                    strobe_period=strobe_period, threshold=threshold)
    reports = {}
    runs = {}          # eps -> (t_eval, omega_ref, trajectory)

    def integrate(members):
        grids = [_strobe_times(spec, eps, t_sim, strobe_period)
                 for eps in members]
        # members share a strobe, so each grid is a prefix of the longest
        t_eval = max((g[0] for g in grids), key=len)
        trajs = simulate_ensemble(spec, members, (0.0, float(t_eval[-1])),
                                  t_eval=t_eval, tol=tol)
        for eps, (times, omega_ref), traj in zip(members, grids, trajs):
            m = len(times)
            runs[eps] = (times, omega_ref, NetworkTrajectory(
                times=traj.times[:m], states=traj.states[:m]))

    def classify(eps: float) -> SyncReport:
        times, omega_ref, traj = runs.pop(eps)
        psi = _slow_phase(spec, traj, weights)
        rep = sync_measure(times, psi, natural_freq=omega_ref,
                           threshold=threshold)
        reports[eps] = rep
        return rep

    integrate([eps_lo, eps_hi] + list(islice(
        _bisection_tree(eps_lo, eps_hi, rel_width, _MAX_BISECTIONS),
        STACK_CAP - 2)))
    if classify(eps_lo).locked:
        raise CouplingRangeError(
            f"already locked at the lower end eps = {eps_lo:g}; "
            "the transition lies below the scanned range", side="below")
    if not classify(eps_hi).locked:
        raise CouplingRangeError(
            f"still drifting at the upper end eps = {eps_hi:g}; "
            "the transition lies above the scanned range", side="above")

    lo, hi = eps_lo, eps_hi
    for step in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if (hi - lo) / mid <= rel_width:
            break
        if mid not in runs:
            integrate(list(islice(
                _bisection_tree(lo, hi, rel_width, _MAX_BISECTIONS - step),
                STACK_CAP)))
        if classify(mid).locked:
            hi = mid
        else:
            lo = mid
    eps_c = 0.5 * (lo + hi)
    return CriticalCouplingResult(eps_c=eps_c, bracket=(lo, hi),
                                  n_runs=len(reports), reports=reports)


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    r_squared: float


def scaling_fit(x, y) -> ScalingFit:
    """Least-squares power-law fit y = prefactor * x**exponent (log-log).

    Data that are not finite, not positive, or whose x values are all equal
    are a ValueError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("power-law fit needs finite data")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit needs strictly positive data")
    if np.all(x == x[0]):
        raise ValueError("power-law fit needs at least two distinct x values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return ScalingFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                      r_squared=r2)


def order_ratio(pm: PhaseModel, d_omega: Optional[float] = None) -> float:
    """Residual detuning left over by first-order coupling, in units of it.

    (detuning - eps * max coupling) / (eps * max coupling).  Non-positive
    means first-order locking is within reach; a large value means any
    observed locking must come from beyond-first-order effects.
    """
    if d_omega is None:
        d_omega = float(pm.Omega.max() - pm.Omega.min())
    first_order = abs(pm.epsilon) * pm.max_coupling_scale()
    return (abs(d_omega) - first_order) / max(first_order, 1e-30)
