"""Asymptotic phase, isochrons, and phase sensitivity (response curves).

The asymptotic phase of a state is computed by letting the flow carry it onto
the cycle in whole-period steps: the phase is invariant under time-T maps, so
the projection of the settled endpoint is already the answer, with no
back-rotation bookkeeping.  Each projection runs Newton from the state's
nearest grid node on the cycle's per-node Taylor jets, until the state's own
step is at most 1e-12, so a settled state projects to the same bits alone as
in any batch.  Before the first flow only the states whose nearest node
lies within the cycle's longest grid chord plus the settled distance are
projected: no other state can already sit that close to the cycle.  A
large batch is settled in the row blocks `LimitCycle.project` uses, each
block whole, flows and projections alike, in its own task of
`_parallel.pmap`; a block's bits depend on that block alone, so they do not
depend on the worker count.

Isochrons are grown from the cycle as invariant curves of the backward
time-T map: a seed off the cycle along the isochron tangent keeps its phase
under whole backward periods while the contraction rate amplifies its
offset.  Radius need not be monotone along an isochron, so each requested
radius is taken where the branch of mapped seeds first crosses it: a
bisection bounds the seeds, one sampled batch brackets every crossing, and a
batched regula falsi closes the brackets.  The two sides of the cycle are
mapped in forked worker processes (`_parallel.pmap`), with the same bits as
a serial run.  A radius within 1e-4 of the cycle point's is placed where the
isochron tangent line crosses it.

The adjoint sensitivity integrates nothing: it is the kernel of a Fourier
collocation matrix on the cycle grid (Trefethen 2000, ch. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import TWO_PI, OscillatorModel, wrap_phase
from ._parallel import pmap
from . import ode
from .ode import IntegrationError, _as_rhs, flow_batch
from .cycles import (LimitCycle, PeriodicInterpolant, _jacobian_fn,
                     _map_blocks)

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
_SETTLED_DIST = 1e-9   # asymptotic_phase's distance from the cycle when done
_COLLOCATION_MAX_SIZE = 2048   # largest grid_size * dim the adjoint takes
_COLLOCATION_RESIDUAL = 1e-8   # largest |L z| / |L| of its null vector
_ISOCHRON_PASSES = 30          # most bisection steps or regula falsi passes


class PhaseConvergenceError(RuntimeError):
    """State did not reach the cycle within the settle budget."""


class IsochronError(RuntimeError):
    """Isochron continuation failed (divergence or unreachable target)."""


def _settle_budget(cycle: LimitCycle) -> int:
    lam = abs(cycle.floquet) if cycle.floquet else 1.0
    return int(max(10, np.ceil(12.0 / lam)))


def asymptotic_phase(model: OscillatorModel, cycle: LimitCycle, x):
    """Asymptotic phase theta in [0, 2*pi) of one state or a stack of states.

    x may be (dim,) or (K, dim).  The stack is cut into the row blocks of
    `LimitCycle.project`, and each block is settled whole in one task of
    `pmap` (`_settle_block`): two or more blocks run in forked worker
    processes.  A stacked flow shares its adaptive step across its rows, so
    a state's bits depend on its block but not on the worker count.  States
    inside the excluded phaseless neighborhood are rejected; states that
    fail to approach the cycle within the settle budget raise
    PhaseConvergenceError, counted over all blocks with the worst distance.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    model.check_basin(pts)

    budget = _settle_budget(cycle)
    theta, dist = _map_blocks(
        lambda lo, hi: _settle_block(model, cycle, pts[lo:hi], budget),
        len(pts))
    done = dist < _SETTLED_DIST
    if not np.all(done):
        worst = float(dist.max())
        raise PhaseConvergenceError(
            f"{int((~done).sum())} state(s) did not settle to the cycle within "
            f"{budget} periods (worst residual distance {worst:.2e})"
        )
    return float(theta[0]) if single else theta


def _settle_block(model, cycle, pts, budget):
    """(theta, dist) of a block flowed at `_GEOM_TOL` as one stack, a period
    at a time for at most `budget` periods, until each state projects within
    `_SETTLED_DIST` = 1e-9 of the cycle.  The first pass refines only the
    states that can already lie that close (`LimitCycle._project_block`)."""
    pts = pts.copy()
    theta, dist = cycle._project_block(
        pts, cycle._longest_chord + _SETTLED_DIST)
    done = dist < _SETTLED_DIST
    for _ in range(budget):
        if np.all(done):
            break
        active = ~done
        pts[active] = flow_batch(model, pts[active], cycle.period, _GEOM_TOL)
        theta[active], dist[active] = cycle.project(pts[active])
        done = dist < _SETTLED_DIST
    return theta, dist


@dataclass
class Isochron:
    """Sampled level set of the asymptotic phase."""

    theta: float
    points: np.ndarray          # (n, dim), ordered along the curve
    phase_residual: float = 0.0  # max |phase(point) - theta| over checked points


@dataclass
class PhaseSensitivity:
    """Gradient of the asymptotic phase along the cycle (response curve)."""

    grid: np.ndarray            # phases theta_k
    values: np.ndarray          # (M, dim) gradient at gamma(theta_k)
    omega0: float
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
                     sens: Optional[PhaseSensitivity] = None) -> Isochron:
    """Sample the isochron of phase theta across the given range of |x|.

    Planar models only.  A radius r within 1e-4 of |gamma(theta)| is placed
    where the isochron tangent line through gamma(theta) crosses |x| = r on
    r's side of the cycle; a radius the line does not reach there is mapped
    with its side.  Each farther radius r is the first crossing of
    |x| = r by the branch that whole backward periods map tangent seeds
    onto, hit within 1e-3 * |r - |gamma(theta)||; the inner and outer sides
    are mapped in two worker processes.  A side whose farthest target the
    contraction rate's depth cannot reach is mapped again one period deeper,
    while its smallest seed stays well above roundoff; a side whose
    crossings cannot be bracketed or closed raises IsochronError.  The cycle
    point gamma(theta) is always included and points are ordered by radius.
    A non-finite theta, a radial_range that is not two finite numbers (low,
    high) and an n_points that is not an integer of at least 1 raise
    ValueError.  Every point's asymptotic phase is then checked: the largest
    error is phase_residual, and one of 1e-4 or more raises IsochronError.
    """
    if model.dim != 2:
        raise IsochronError("isochron sampling implemented for planar models")
    if not isinstance(n_points, (int, np.integer)) or n_points < 1:
        raise ValueError(f"n_points must be an integer >= 1, got {n_points!r}")
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    bounds = np.asarray(radial_range, dtype=float)
    if bounds.shape != (2,) or not np.all(np.isfinite(bounds)):
        raise ValueError(f"radial_range must be two finite numbers, "
                         f"got {radial_range!r}")
    r_lo, r_hi = float(bounds[0]), float(bounds[1])
    if r_lo > r_hi:
        raise ValueError("radial_range must be (low, high)")
    theta = float(wrap_phase(theta))
    g0 = cycle.gamma_at(theta)
    if model.basin_radius is not None and r_lo < model.basin_radius:
        raise IsochronError(
            f"requested radius {r_lo:g} reaches into the phaseless neighborhood"
        )
    if r_lo == r_hi and abs(r_lo - np.linalg.norm(g0)) < 1e-12:
        return Isochron(theta=theta, points=g0[None, :].copy())
    if sens is None:
        sens = phase_sensitivity(model, cycle, method="adjoint")
    w = _isochron_tangent(cycle, sens, theta)
    r_cycle = float(np.linalg.norm(g0))
    s_lin = 1e-4

    targets = np.linspace(r_lo, r_hi, n_points)
    off = targets - r_cycle                  # signed distance from the cycle
    reach = np.array([_tangent_reach(g0, w, r) if abs(d) <= s_lin else np.nan
                      for r, d in zip(targets, off)])
    direct = ~np.isnan(reach)
    pts = np.empty((n_points, 2))
    pts[direct] = g0 + reach[direct, None] * w

    r_cap = 4.0 * max(r_hi, float(np.linalg.norm(cycle.points, axis=1).max()))
    sides = [(sgn, ~direct & (sgn * off > 0)) for sgn in (1.0, -1.0)]
    sides = [(sgn, sel) for sgn, sel in sides if np.any(sel)]

    def map_side(job):
        sgn, sel = job
        return _map_isochron_side(model, cycle, g0, w, targets[sel], sgn,
                                  s_lin, r_cap)

    for (_, sel), side_pts in zip(sides, pmap(map_side, sides)):
        pts[sel] = side_pts

    pts = np.vstack([pts, g0[None, :]])
    pts = pts[np.argsort(np.linalg.norm(pts, axis=1))]

    phases = asymptotic_phase(model, cycle, pts)
    residual = float(np.abs(_circ_diff(phases, theta)).max())
    if residual >= 1e-4:
        raise IsochronError(
            f"isochron validation failed: max phase error {residual:.2e}"
        )
    return Isochron(theta=theta, points=pts, phase_residual=residual)


def _tangent_reach(g0, w, r):
    """The t nearest 0 with |g0 + t w| = r and the sign of r - |g0| (w a
    unit vector), or NaN when the tangent line does not reach radius r on
    that side."""
    b = float(g0 @ w)
    r0 = float(np.linalg.norm(g0))
    c = (r0 - r) * (r0 + r)                  # t**2 + 2 b t + c = 0
    disc = b * b - c
    if disc < 0.0:
        return np.nan
    far = -b - np.copysign(np.sqrt(disc), b)
    roots = [t for t in ((c / far, far) if far else (0.0,))
             if t * (r - r0) >= 0.0]
    return min(roots, key=abs) if roots else np.nan


def _probe_backward(model, cycle, x0, n_periods, r_cap):
    """Backward-map one seed; return achieved distance-from-origin, or inf
    if the trajectory escapes past r_cap, overflows or breaks the solver."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            end = ode.solve_ivp(_as_rhs(model)[0],
                                (0.0, -n_periods * cycle.period), x0,
                                _GEOM_TOL, endpoint=True,
                                escape=lambda y: np.linalg.norm(y) - r_cap)
    except (IntegrationError, FloatingPointError):
        return np.inf
    return np.inf if end.status == 1 else float(np.linalg.norm(end.y[:, -1]))


def _map_isochron_side(model, cycle, g0, w, targets, sgn, s_lin, r_cap):
    """Map one side's target radii, each more than s_lin from |gamma(theta)|,
    onto the branch of seeds g0 + s * sgn * w by whole backward periods.

    The depth m starts at the periods the linear contraction rate needs to
    carry s_lin out to the farthest target.  Inside a cycle the backward gain
    saturates toward the focus, so while s_lin falls short of that target m
    grows by one, as long as the smallest seed d_min * exp(lam * T * m) stays
    at or above 1e3 * eps * |gamma(theta)|; below that the seed is lost to
    roundoff in g0 + s * w, and IsochronError names the depths tried.
    """
    lam, t_per = cycle.floquet, cycle.period
    d_t = np.abs(targets - np.linalg.norm(g0))
    d_max, d_min = float(d_t.max()), float(d_t.min())
    m = max(1, int(np.ceil((np.log(d_max) - np.log(s_lin)) / (abs(lam) * t_per))))
    floor = 1e3 * np.finfo(float).eps * float(np.linalg.norm(g0))
    tried = []
    while True:
        out = _map_isochron_depth(model, cycle, g0, w, targets, sgn, s_lin,
                                  r_cap, m)
        if out is not None:
            return out
        tried.append(m)
        m += 1
        smallest = d_min * np.exp(lam * t_per * m)
        if smallest < floor:
            raise IsochronError(
                f"farthest target unreachable from seeds below {s_lin:g} "
                f"after {', '.join(map(str, tried))} backward periods; "
                f"{m} periods would shrink the smallest seed to "
                f"{smallest:.1e}, below roundoff at |gamma| = "
                f"{np.linalg.norm(g0):.3g}")


def _map_isochron_depth(model, cycle, g0, w, targets, sgn, s_lin, r_cap, m):
    """_map_isochron_side at m backward periods; None when the seed s_lin
    does not carry the branch past the farthest target.

    Each target r is the branch's first crossing of |x| = r, a root in log s
    of sgn * (|x(s)| - r) for the point x(s) seed s maps to (an escape
    counts as radius inf).  A bisection on the escape-guarded probe, down
    from s_lin toward s_lin * exp(lam T m), finds a seed s_far that lands
    past the farthest target by at most 5% of its distance d_max.  One batch
    of 2n + 16 geometric seeds up to s_far, from below the linear and the
    s_far-scaled seed of the nearest target, brackets each first crossing,
    and a batched Illinois regula falsi closes each bracket to 1e-3 of the
    target's distance, one batch per pass.
    """
    d_t = np.abs(targets - np.linalg.norm(g0))
    d_max, d_min = float(d_t.max()), float(d_t.min())
    r_far = float(targets[np.argmax(d_t)])
    step, log_amp = sgn * w, cycle.floquet * cycle.period * m

    def rho_far(log_s):
        x0 = g0 + np.exp(log_s) * step
        return sgn * (_probe_backward(model, cycle, x0, m, r_cap) - r_far)

    def branch(log_s, r):
        try:
            with np.errstate(over="raise", invalid="raise"):
                pts = flow_batch(model, g0 + np.exp(log_s)[:, None] * step,
                                 -m * cycle.period, _GEOM_TOL)
        except (IntegrationError, FloatingPointError) as exc:
            raise IsochronError(f"backward map of {len(log_s)} seeds over "
                                f"{m} periods failed: {exc}") from None
        return pts, sgn * (np.linalg.norm(pts, axis=-1) - r)

    lo, hi = np.log(s_lin) + log_amp, np.log(s_lin)
    rho_hi = rho_far(hi)
    if rho_hi < 0:
        return None
    for _ in range(_ISOCHRON_PASSES):
        if rho_hi <= 0.05 * d_max:
            break
        mid = 0.5 * (lo + hi)
        rho = rho_far(mid)
        lo, hi, rho_hi = (mid, hi, rho_hi) if rho < 0 else (lo, mid, rho)
    else:
        raise IsochronError(f"no finite branch point just past radius "
                            f"{r_far:g} after {m} periods")

    log_lo = min(np.log(d_min) + log_amp, hi + np.log(d_min / d_max)) - np.log(2)
    log_s = np.linspace(log_lo, hi, 2 * len(targets) + 16)
    rho = branch(log_s, targets[:, None])[1]         # (n, samples)
    k = np.argmax(rho >= 0, axis=1)                  # first crossing, or 0
    if np.any(k == 0):
        raise IsochronError(f"the sampled branch does not bracket every "
                            f"target radius after {m} periods")
    pair = np.stack([k - 1, k])                      # rows: below, past
    ends, vals = log_s[pair], rho[np.arange(len(k)), pair]
    last = np.full(len(k), -1)
    out, todo = np.empty((len(k), 2)), np.arange(len(k))
    for _ in range(_ISOCHRON_PASSES):
        if todo.size == 0:
            return out
        (a, b), (fa, fb) = ends[:, todo], vals[:, todo]
        c = b - fb * (b - a) / (fb - fa)             # fa < 0 <= fb
        pts, fc = branch(c, targets[todo])
        end = (fc >= 0).astype(int)
        # Illinois: an end kept twice in a row has its value halved
        vals[1 - end, todo] *= np.where(end == last[todo], 0.5, 1.0)
        ends[end, todo], vals[end, todo], last[todo] = c, fc, end
        hit = np.abs(fc) <= 1e-3 * d_t[todo]
        out[todo[hit]] = pts[hit]
        todo = todo[~hit]
    raise IsochronError(f"{todo.size} isochron point(s) missed their radius "
                        f"after {_ISOCHRON_PASSES} passes")


def _circ_diff(a, b):
    """Circular difference a - b wrapped into (-pi, pi]."""
    return np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi


def phase_sensitivity(model: OscillatorModel, cycle: LimitCycle,
                      method: str = "adjoint") -> PhaseSensitivity:
    """Phase response curve Z(theta) on the cycle grid, normalized so that
    Z . f = omega0 at every node.

    method="adjoint" takes Z, rescaled node by node, as the kernel of the
    collocation matrix L = D (x) I + blockdiag(Df(gamma_k)^T) / omega0 of
    dZ/dtheta = -Df(gamma)^T Z / omega0 (D differentiates Fourier series),
    found by QR.  A cycle that does not fit its field leaves |L z| / |L|
    (max norms) above 1e-8: PhaseConvergenceError.  grid_size * dim above
    2048 raises ValueError before L is built.  method="finite_difference"
    has no such limit: it perturbs each grid point by h = 1e-5 * scale in
    every coordinate and differences the asymptotic phase.
    """
    if method == "adjoint":
        return _prc_adjoint(model, cycle)
    if method == "finite_difference":
        return _prc_finite_difference(model, cycle)
    raise ValueError(f"unknown phase sensitivity method {method!r}")


def _prc_adjoint(model, cycle):
    m, dim = cycle.grid_size, model.dim
    if m * dim > _COLLOCATION_MAX_SIZE:
        raise ValueError(f"adjoint needs grid_size * dim <= "
                         f"{_COLLOCATION_MAX_SIZE}, got {m} * {dim}")
    jac = _jacobian_fn(model)
    # D[i, j] = (-1)**(i - j) cot((i - j) pi / M) / 2, exactly skew
    nodes = np.arange(m)
    lag = np.subtract.outer(nodes, nodes)
    col = np.r_[0.0, 0.5 * (-1.0) ** nodes[1:] / np.tan(nodes[1:] * np.pi / m)]
    lmat = np.zeros((m * dim, m * dim))
    blocks = lmat.reshape(m, dim, m, dim)
    for a in range(dim):
        blocks[:, a, :, a] = np.sign(lag) * col[np.abs(lag)]
    blocks[nodes, :, nodes, :] = np.array(
        [jac(x).T for x in cycle.points]) / cycle.omega0
    # f(gamma_k) weights the one dependency among L's rows; with the row of
    # largest weight factored last, Q's last column spans L's kernel
    last = int(np.argmax(np.abs(model.f_batch(cycle.points))))
    lmat[[last, -1]] = lmat[[-1, last]]
    z = np.linalg.qr(lmat.T, mode="complete")[0][:, -1]
    residual = np.abs(lmat @ z).max() / np.abs(lmat).sum(axis=1).max()
    if residual > _COLLOCATION_RESIDUAL:
        raise PhaseConvergenceError(f"adjoint residual {residual:.1e}: the "
                                    "cycle does not fit its field")
    return _normalized_sensitivity(model, cycle, z.reshape(m, dim))


def _prc_finite_difference(model, cycle):
    pts = cycle.points
    h = 1e-5 * max(1.0, float(np.linalg.norm(pts, axis=1).max()))
    # stack rows: pts + h e_0, pts - h e_0, pts + h e_1, ...
    stack = np.concatenate([pts + sign * e for e in h * np.eye(model.dim)
                            for sign in (1.0, -1.0)])
    phases = asymptotic_phase(model, cycle, stack).reshape(model.dim, 2, -1)
    values = _circ_diff(phases[:, 0], phases[:, 1]) / (2.0 * h)
    return _normalized_sensitivity(model, cycle, values.T.copy())


def _normalized_sensitivity(model, cycle, values):
    f_nodes = model.f_batch(cycle.points)
    dot = np.sum(values * f_nodes, axis=1)
    if np.any(np.abs(dot) < 1e-12):
        raise PhaseConvergenceError("degenerate sensitivity: Z . f vanished")
    values = values * (cycle.omega0 / dot)[:, None]
    return PhaseSensitivity(grid=cycle.grid.copy(), values=values,
                            omega0=cycle.omega0)
