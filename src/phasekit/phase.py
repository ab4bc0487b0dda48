"""Asymptotic phase, isochrons, and phase sensitivity (response curves).

The asymptotic phase of a state is computed by letting the flow carry it onto
the cycle in whole-period steps: the phase is invariant under time-T maps, so
the projection of the settled endpoint is already the answer, with no
back-rotation bookkeeping.  Isochrons are grown from the cycle by the inverse
route: seed points a few microns off the cycle along the isochron tangent and
map them outward with whole backward periods, which preserves their phase
while the contraction rate amplifies the offset to the requested distance.
The two sides of the cycle are mapped independently, in forked worker
processes (`_parallel.pmap`), with the same bits as a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import TWO_PI, OscillatorModel, wrap_phase
from ._parallel import pmap
from .ode import IntegrationError, _endpoint, _run_solver, flow_batch
from .cycles import LimitCycle, PeriodicInterpolant, _jacobian_fn

__all__ = [
    "PhaseConvergenceError",
    "IsochronError",
    "Isochron",
    "PhaseSensitivity",
    "asymptotic_phase",
    "compute_isochron",
    "phase_sensitivity",
]

# Integration tolerance for phase geometry; loose tolerances here leak straight
# into every downstream phase estimate.
_GEOM_TOL = (1e-11, 1e-13)


class PhaseConvergenceError(RuntimeError):
    """State did not reach the cycle within the settle budget."""


class IsochronError(RuntimeError):
    """Isochron continuation failed (divergence or unreachable target)."""


def _settle_budget(cycle: LimitCycle) -> int:
    lam = abs(cycle.floquet) if cycle.floquet else 1.0
    return int(max(10, np.ceil(12.0 / lam)))


def asymptotic_phase(model: OscillatorModel, cycle: LimitCycle, x,
                     dist_tol: float = 1e-9, ivp_tol=_GEOM_TOL):
    """Asymptotic phase theta in [0, 2*pi) of one state or a stack of states.

    x may be (dim,) or (K, dim); the stack is settled in one batched
    integration.  States inside the excluded phaseless neighborhood are
    rejected; states that fail to approach the cycle within the settle budget
    raise PhaseConvergenceError.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :].copy() if single else x.copy()
    model.check_basin(pts)

    theta, dist = cycle.project(pts)
    theta = np.atleast_1d(theta)
    dist = np.atleast_1d(dist)
    done = dist < dist_tol
    budget = _settle_budget(cycle)
    for _ in range(budget):
        if np.all(done):
            break
        active = ~done
        pts[active] = flow_batch(model, pts[active], cycle.period, ivp_tol)
        th_a, d_a = cycle.project(pts[active])
        theta[active] = np.atleast_1d(th_a)
        dist[active] = np.atleast_1d(d_a)
        done = dist < dist_tol
    if not np.all(done):
        worst = float(dist.max())
        raise PhaseConvergenceError(
            f"{int((~done).sum())} state(s) did not settle to the cycle within "
            f"{budget} periods (worst residual distance {worst:.2e})"
        )
    return float(theta[0]) if single else theta


@dataclass
class Isochron:
    """Sampled level set of the asymptotic phase."""

    theta: float
    points: np.ndarray          # (n, dim), ordered along the curve
    extent: tuple               # (min, max) norm of the stored points
    phase_residual: float = 0.0  # max |phase(point) - theta| over checked points


@dataclass
class PhaseSensitivity:
    """Gradient of the asymptotic phase along the cycle (response curve)."""

    grid: np.ndarray            # phases theta_k
    values: np.ndarray          # (M, dim) gradient at gamma(theta_k)
    omega0: float
    method: str
    _interp: PeriodicInterpolant = field(init=False, repr=False)

    def __post_init__(self):
        self._interp = PeriodicInterpolant(self.values)

    def __call__(self, theta):
        return self._interp(np.asarray(wrap_phase(theta), dtype=float))


def _isochron_tangent(cycle: LimitCycle, sens: PhaseSensitivity, theta: float):
    """Unit isochron tangent at gamma(theta), oriented away from the cycle's
    interior (outward)."""
    z = sens(theta)
    w = np.array([-z[1], z[0]])
    w /= np.linalg.norm(w)
    outward = cycle.gamma_at(theta) - cycle.points.mean(axis=0)
    if float(w @ outward) < 0.0:
        w = -w
    return w


def compute_isochron(model: OscillatorModel, cycle: LimitCycle, theta: float,
                     radial_range=(0.3, 2.0), n_points: int = 100,
                     sens: Optional[PhaseSensitivity] = None,
                     validate: bool = True) -> Isochron:
    """Sample the isochron of phase theta across the given range of |x|.

    Planar models only.  Points within ~1e-4 of the cycle come from direct
    seeding along the isochron tangent; farther points seed microscopically
    close to the cycle and are carried outward by whole backward periods
    (which leave the phase untouched), with a secant pass on the seed size so
    the achieved radii land on the requested grid; the inner and outer sides
    are mapped in two worker processes.  The cycle point gamma(theta)
    is always included and points are ordered by radius.  n_points must be
    at least 1.
    """
    if model.dim != 2:
        raise IsochronError("isochron sampling implemented for planar models")
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points!r}")
    theta = float(wrap_phase(theta))
    g0 = cycle.gamma_at(theta)
    r_lo, r_hi = float(radial_range[0]), float(radial_range[1])
    if r_lo > r_hi:
        raise ValueError("radial_range must be (low, high)")
    if model.basin_radius is not None and r_lo < model.basin_radius:
        raise IsochronError(
            f"requested radius {r_lo:g} reaches into the phaseless neighborhood"
        )
    if r_lo == r_hi and abs(r_lo - np.linalg.norm(g0)) < 1e-12:
        return Isochron(theta=theta, points=g0[None, :].copy(),
                        extent=(r_lo, r_hi))
    if sens is None:
        sens = phase_sensitivity(model, cycle, method="adjoint")
    w = _isochron_tangent(cycle, sens, theta)
    r_cycle = float(np.linalg.norm(g0))
    s_lin = 1e-4

    targets = np.linspace(r_lo, r_hi, n_points)
    d_t = np.abs(targets - r_cycle)          # distance from the cycle
    side = np.where(targets >= r_cycle, 1.0, -1.0)

    direct = d_t <= s_lin
    pts = np.empty((n_points, 2))
    pts[direct] = g0[None, :] + (side[direct] * d_t[direct])[:, None] * w[None, :]

    r_cap = 4.0 * max(r_hi, float(np.linalg.norm(cycle.points, axis=1).max()))
    sides = [(sgn, (~direct) & (side == sgn)) for sgn in (1.0, -1.0)]
    sides = [(sgn, sel) for sgn, sel in sides if np.any(sel)]

    def map_side(job):
        sgn, sel = job
        return _map_isochron_side(model, cycle, g0, sgn * w, d_t[sel],
                                  r_cycle, s_lin, r_cap)

    for (_, sel), side_pts in zip(sides, pmap(map_side, sides)):
        pts[sel] = side_pts

    pts = np.vstack([pts, g0[None, :]])
    radii = np.linalg.norm(pts, axis=1)
    order = np.argsort(radii)
    pts = pts[order]
    radii = radii[order]

    residual = 0.0
    if validate:
        phases = asymptotic_phase(model, cycle, pts)
        diff = np.abs(_circ_diff(phases, theta))
        residual = float(diff.max())
        if residual >= 1e-4:
            raise IsochronError(
                f"isochron validation failed: max phase error {residual:.2e}"
            )
    return Isochron(theta=theta, points=pts,
                    extent=(float(radii.min()), float(radii.max())),
                    phase_residual=residual)


def _probe_backward(model, cycle, x0, n_periods, r_cap):
    """Backward-map one seed; return achieved distance-from-origin or None if
    the trajectory escapes past r_cap (overshoot) or the solver breaks down."""

    def rhs(t, y):
        return np.asarray(model.f(y), dtype=float)

    def escape(t, y):
        return float(np.linalg.norm(y) - r_cap)

    escape.terminal = True
    escape.direction = +1
    try:
        res = _run_solver(rhs, x0, (0.0, -n_periods * cycle.period), _GEOM_TOL,
                          events=[escape])
    except IntegrationError:
        return None
    if res.status == 1:
        return None
    return float(np.linalg.norm(res.y[:, -1]))


def _map_isochron_side(model, cycle, g0, w, d_targets, r_cycle, s_lin, r_cap):
    """Map one side's targets (distances from the cycle, all > s_lin) onto the
    isochron by whole backward periods.

    The seed-size-to-achieved-distance curve is monotone but strongly
    nonlinear, and too-large outward seeds escape to infinity in less than a
    period; so the largest target's seed is located first by a cap-guarded
    bracketed search, every sample of the curve is collected along the way,
    and all remaining targets are then predicted by log-log interpolation and
    polished with clamped ratio corrections in one batch per pass.
    """
    lam, t_per = cycle.floquet, cycle.period
    d_max, d_min = float(d_targets.max()), float(d_targets.min())
    m = max(1, int(np.ceil((np.log(d_max) - np.log(s_lin)) / (abs(lam) * t_per))))
    amp = np.exp(lam * t_per * m)

    def seed_point(s):
        return g0 + s * w

    def probe(s):
        return _probe_backward(model, cycle, seed_point(s), m, r_cap)

    samples = []  # (seed size, achieved distance)

    def classified_probe(s):
        rad = probe(s)
        if rad is None:
            return np.inf
        d = abs(rad - r_cycle)
        samples.append((s, d))
        return d

    # Low anchor: deep in the linear regime the gain is exp(|lam| T m) exactly.
    s_low = min(d_min, s_lin) * amp
    if not np.isfinite(classified_probe(s_low)):
        raise IsochronError("backward mapping failed at the smallest seed")

    # Bracket the seed of the farthest target: grow from a deliberate
    # undershoot, shrinking away from escapes.
    s_lo_br = d_lo_br = s_hi_br = d_hi_br = None
    s = 0.3 * d_max * amp
    for _ in range(80):
        d_here = classified_probe(s)
        if d_here < d_max:
            s_lo_br, d_lo_br = s, d_here
        else:
            s_hi_br, d_hi_br = s, d_here
        if s_lo_br is not None and s_hi_br is not None:
            break
        if s_lo_br is None:
            s = s / 2.5
            continue
        if s >= s_lin * 0.999999:
            raise IsochronError(
                "farthest target unreachable: seed budget exhausted at the "
                "linear-seeding limit; widen the mapping depth"
            )
        s = min(s * 1.6, s_lin)
    if s_lo_br is None or s_hi_br is None:
        raise IsochronError("could not bracket the farthest target's seed")

    # Log-log bisection/secant until the far target is hit to 0.1%.
    for _ in range(40):
        if abs(d_lo_br - d_max) / d_max < 1e-3:
            break
        if np.isfinite(d_hi_br) and d_hi_br > 0.0:
            f_lo = np.log(d_lo_br / d_max)
            f_hi = np.log(d_hi_br / d_max)
            t_mid = min(0.9, max(0.1, f_lo / (f_lo - f_hi)))
            s_mid = np.exp(np.log(s_lo_br)
                           + t_mid * (np.log(s_hi_br) - np.log(s_lo_br)))
        else:
            s_mid = np.sqrt(s_lo_br * s_hi_br)
        d_mid = classified_probe(s_mid)
        if d_mid < d_max:
            s_lo_br, d_lo_br = s_mid, d_mid
        else:
            s_hi_br, d_hi_br = s_mid, d_mid
    if not np.isfinite(d_hi_br) and abs(d_lo_br - d_max) / d_max > 0.05:
        raise IsochronError("farthest target sits too close to the escape "
                            "boundary to resolve")
    s_star = s_hi_br if (np.isfinite(d_hi_br)
                         and abs(d_hi_br - d_max) < abs(d_lo_br - d_max)) \
        else s_lo_br

    # Predict every target from the sampled curve, then polish in batches.
    samples.sort()
    s_arr = np.array([p[0] for p in samples])
    d_arr = np.array([p[1] for p in samples])
    keep = np.concatenate([[True], np.diff(d_arr) > 0])
    s_arr, d_arr = s_arr[keep], d_arr[keep]
    seeds = np.exp(np.interp(np.log(d_targets), np.log(d_arr), np.log(s_arr)))
    seeds = np.minimum(seeds, s_star)
    out = None
    for _ in range(3):
        out = flow_batch(model, g0[None, :] + seeds[:, None] * w[None, :],
                         -m * t_per, _GEOM_TOL)
        achieved = np.abs(np.linalg.norm(out, axis=1) - r_cycle)
        rel = np.abs(achieved - d_targets) / d_targets
        if rel.max() < 1e-3:
            break
        seeds = np.minimum(seeds * (d_targets / np.maximum(achieved, 1e-300)),
                           s_star)
    return out


def _circ_diff(a, b):
    """Circular difference a - b wrapped into (-pi, pi]."""
    return np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi


def phase_sensitivity(model: OscillatorModel, cycle: LimitCycle,
                      method: str = "adjoint",
                      periodic_tol: float = 1e-8,
                      max_periods: int = 25) -> PhaseSensitivity:
    """Phase response curve Z(theta) on the cycle grid, normalized so that
    Z . f = omega0 at every node.

    method="adjoint" integrates the adjoint variational equation backward in
    time until the solution is periodic to periodic_tol, then rescales each
    node.  method="finite_difference" perturbs each grid point by
    h = 1e-5 * scale in every coordinate and differences the asymptotic phase.
    """
    if method == "adjoint":
        return _prc_adjoint(model, cycle, periodic_tol, max_periods)
    if method == "finite_difference":
        return _prc_finite_difference(model, cycle)
    raise ValueError(f"unknown phase sensitivity method {method!r}")


def _prc_adjoint(model, cycle, periodic_tol, max_periods):
    jac = _jacobian_fn(model)
    omega0 = cycle.omega0
    t_period = cycle.period

    def rhs(s, w):
        # Backward time s = -t: dW/ds = +Df(gamma(-s))^T W.
        x = cycle.gamma_at(-omega0 * s)
        return jac(x).T @ w

    f0 = np.asarray(model.f(cycle.anchor), dtype=float)
    w = omega0 * f0 / float(f0 @ f0)
    converged = False
    for _ in range(max_periods):
        w_next = _endpoint(rhs, w, (0.0, t_period), _GEOM_TOL)
        if np.linalg.norm(w_next - w) <= periodic_tol * np.linalg.norm(w_next):
            w = w_next
            converged = True
            break
        w = w_next
    if not converged:
        raise PhaseConvergenceError(
            f"adjoint iteration not periodic to {periodic_tol:g} within "
            f"{max_periods} periods"
        )

    # One more backward period, sampled so node k carries phase theta_k.
    m = cycle.grid_size
    s_nodes = t_period - cycle.grid / omega0      # s for theta_k, k = 0..M-1
    order = np.argsort(s_nodes)
    res = _run_solver(rhs, w, (0.0, t_period), _GEOM_TOL, t_eval=s_nodes[order])
    values = np.empty((m, model.dim))
    values[order] = res.y.T
    # theta_0 sample sits at s = T; the converged w is that sample.
    values[0] = w
    return _normalized_sensitivity(model, cycle, values, "adjoint")


def _prc_finite_difference(model, cycle):
    m = cycle.grid_size
    dim = model.dim
    pts = cycle.points
    scale = max(1.0, float(np.linalg.norm(pts, axis=1).max()))
    h = 1e-5 * scale
    probes = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        probes.append(pts + e)
        probes.append(pts - e)
    stack = np.vstack(probes)
    phases = asymptotic_phase(model, cycle, stack)
    values = np.empty((m, dim))
    for i in range(dim):
        plus = phases[2 * i * m:(2 * i + 1) * m]
        minus = phases[(2 * i + 1) * m:(2 * i + 2) * m]
        values[:, i] = _circ_diff(plus, minus) / (2.0 * h)
    return _normalized_sensitivity(model, cycle, values, "finite_difference")


def _normalized_sensitivity(model, cycle, values, method):
    f_nodes = model.f_batch(cycle.points)
    dot = np.sum(values * f_nodes, axis=1)
    if np.any(np.abs(dot) < 1e-12):
        raise PhaseConvergenceError("degenerate sensitivity: Z . f vanished")
    values = values * (cycle.omega0 / dot)[:, None]
    return PhaseSensitivity(grid=cycle.grid.copy(), values=values,
                            omega0=cycle.omega0, method=method)
