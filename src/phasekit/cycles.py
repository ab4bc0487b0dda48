"""Limit cycle location, parameterization, and Floquet analysis.

The cycle is located by Newton shooting on a Poincare section chart and stored
on a uniform grid in phase theta = omega0 * t, theta in [0, 2*pi).  Phase zero
sits at the section crossing with the largest first coordinate, so repeated
runs land on the same parameterization.

The interpolant's complex products run in row blocks small enough for
OpenBLAS to keep on one thread, so their bits do not depend on the BLAS
thread count.  `LimitCycle` keeps, next to its interpolant, a Taylor jet of
the interpolant at every grid node.  `LimitCycle.project` finds each row's
nearest grid node and runs Newton from it, evaluating the cycle and its
first two derivatives by Horner on the jet of the node nearest the current
phase; each row stops on its own step, so a row's bits depend on that row
alone.  Stacks are projected in blocks of `_PROJECT_CHUNK` rows, and a
stack of two or more blocks is projected in forked worker processes
(`_parallel.pmap`) with the same bits.  `asymptotic_phase` settles its
stack in the same blocks, one worker task per block; the task's first
projection refines only the rows that can lie within its settled distance
of the cycle (see `LimitCycle._project_block`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._parallel import pmap
from .models import TWO_PI, OscillatorModel, wrap_phase
from . import ode
from .ode import DEFAULT_TOL, Section, find_crossing

__all__ = [
    "PeriodicInterpolant",
    "LimitCycle",
    "ShootingError",
    "UnstableCycleError",
    "find_limit_cycle",
    "floquet_exponent",
]


# Rows per block in LimitCycle.project: its nearest-node search holds
# (rows, grid_size) arrays, about 4 MB each at the default 256-point grid.
# A row's projection has the same bits in any block, so blocking leaves the
# result unchanged, and the blocks of a stack can run in worker processes.
_PROJECT_CHUNK = 2048

# Terms of the per-node Taylor jets that LimitCycle.project evaluates.  At
# most half a node spacing from its node the remainder is below
# (pi/2)**24 / 24! ~ 8e-20 of the sum of |coefficients| of the interpolant.
_JET_TERMS = 24
_NEWTON_STEP = 1e-12   # a row's projection stops after a step this small
_NEWTON_MAX = 16       # most Newton steps of one row

# Largest rows * harmonics * d of one complex product in PeriodicInterpolant.
# OpenBLAS runs products this small on one thread, so their bits do not
# depend on the BLAS thread count.
_SMALL_PRODUCT = 32768


def _row_blocks(n, size):
    """(lo, hi) bounds of blocks of `size` rows covering n rows.

    Never leaves one row alone (unless n is 1): numpy's one-row product path
    rounds differently from the same row inside a larger product, so a lone
    last row joins the block before it, which then has size + 1 rows.
    """
    bounds = []
    lo = 0
    while lo < n:
        hi = n if lo + size + 1 >= n else lo + size
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _product_blocks(rows, width):
    """Row blocks of a product of `rows` rows by `width` = harmonics * d
    complex entries: at most _SMALL_PRODUCT entries, or three rows."""
    return _row_blocks(rows, max(3, _SMALL_PRODUCT // width) - 1)


def _map_blocks(fn, n):
    """fn(lo, hi) over the `_PROJECT_CHUNK` row blocks of n rows, one block
    per `pmap` task; the (theta, dist) pairs it returns, joined."""
    parts = pmap(lambda b: fn(*b), _row_blocks(n, _PROJECT_CHUNK))
    if not parts:
        return np.empty(0), np.empty(0)
    return tuple(np.concatenate(p) for p in zip(*parts))


class ShootingError(RuntimeError):
    """Newton shooting failed to converge or hit a singular return map."""


class UnstableCycleError(RuntimeError):
    """Located periodic orbit is not asymptotically stable."""


class PeriodicInterpolant:
    """Trigonometric interpolation of 2*pi-periodic data on a uniform grid.

    values has shape (M,) or (M, d), sampled at theta_k = 2*pi*k/M.  Evaluation
    and differentiation use the full Fourier representation, so interpolation
    is spectrally accurate for smooth data and reproduces samples at the nodes
    to roundoff.

    The value and the derivative of order p are the real parts of one-sided
    Fourier sums over k = 0..M/2 with weights w_k (i k)^p.  rfft of real
    samples gives a Nyquist coefficient whose imaginary part is exactly 0,
    so the real part of the k = M/2 term already is the pure cosine.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        self._scalar = values.ndim == 1
        if self._scalar:
            values = values[:, None]
        self.m, self.d = values.shape
        if self.m % 2 != 0:
            raise ValueError("grid size must be even")
        self.values = values
        coeff = np.fft.rfft(values, axis=0) / self.m
        # Interior harmonics appear twice in the full spectrum.
        weights = coeff.copy()
        weights[1:-1] *= 2.0
        self._weights = weights                 # (m/2+1, d)
        self._k = np.arange(self.m // 2 + 1)    # harmonic numbers

    def _phases(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.exp(1j * np.multiply.outer(theta, self._k))  # (..., K)

    def __call__(self, theta):
        return self._value(self._phases(theta))

    def derivative(self, theta, order: int = 1):
        return self._derivative(self._phases(theta), order)

    def jet(self, theta):
        """(value, first, second derivative) at theta from one phase table.

        Bit-identical to separate __call__ and derivative calls, at a third
        of the complex exponentials.
        """
        e = self._phases(theta)
        return self._value(e), self._derivative(e, 1), self._derivative(e, 2)

    def _node_jets(self, terms):
        """(m, terms, d) Taylor coefficients at the grid nodes: entry j at
        node n is D^j f(theta_n) * h**j / j!, with h = 2*pi/m the node
        spacing, so that f(theta_n + u * h) = sum_j entry_j * u**j."""
        ratio = 1j * (TWO_PI / self.m) * self._k[:, None] / np.arange(1, terms)
        scale = np.cumprod(np.hstack([np.ones((len(self._k), 1)), ratio]),
                           axis=1)                          # (K, terms)
        w = (scale[:, :, None] * self._weights[:, None, :]).reshape(
            len(self._k), terms * self.d)
        nodes = TWO_PI * np.arange(self.m) / self.m
        # one block's exponentials at a time: no (m, m/2+1) table is held
        out = np.empty((self.m, terms * self.d))
        for lo, hi in _product_blocks(self.m, len(self._k) * w.shape[-1]):
            out[lo:hi] = np.real(self._phases(nodes[lo:hi]) @ w)
        return out.reshape(self.m, terms, self.d)

    @staticmethod
    def _product(e, w):
        """e @ w, in `_product_blocks` of the rows (e's second-to-last axis)."""
        if e.ndim > 1:
            blocks = _product_blocks(e.shape[-2], e.shape[-1] * w.shape[-1])
            if len(blocks) > 1:
                return np.concatenate([e[..., lo:hi, :] @ w
                                       for lo, hi in blocks], axis=-2)
        return e @ w

    def _value(self, e):
        out = np.real(self._product(e, self._weights))
        return out[..., 0] if self._scalar else out

    def _derivative(self, e, order):
        out = np.real(self._product(
            e, self._weights * (1j * self._k[:, None]) ** order))
        return out[..., 0] if self._scalar else out


@dataclass
class LimitCycle:
    """Periodic orbit sampled uniformly in phase (equivalently, in time)."""

    period: float
    grid: np.ndarray          # phases theta_k = 2*pi*k/M
    points: np.ndarray        # (M, dim) states, points[k] = gamma(theta_k)
    anchor: np.ndarray        # gamma(0), on the section
    floquet: float            # nontrivial Floquet exponent, < 0
    _interp: PeriodicInterpolant = field(init=False, repr=False)
    _jets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._interp = PeriodicInterpolant(self.points)
        self._jets = self._interp._node_jets(_JET_TERMS)

    @property
    def omega0(self) -> float:
        return TWO_PI / self.period

    @property
    def grid_size(self) -> int:
        return len(self.grid)

    def gamma_at(self, theta):
        """Cycle point at phase theta (wrapped); exact at grid nodes."""
        theta = np.asarray(theta, dtype=float)
        th = wrap_phase(theta)
        out = self._interp(th)
        # Snap phases that hit a grid node so nodal queries are bit-exact.
        step = TWO_PI / self.grid_size
        idx = np.round(th / step).astype(int) % self.grid_size
        on_node = np.abs(th - np.round(th / step) * step) < 1e-13
        if out.ndim == 1:
            if on_node:
                out = self.points[int(idx)].copy()
        elif np.any(on_node):
            out[on_node] = self.points[idx[on_node]]
        return out

    @property
    def _longest_chord(self) -> float:
        """Longest distance between neighbouring grid points, wrapping round."""
        steps = np.roll(self.points, -1, axis=0) - self.points
        return float(np.linalg.norm(steps, axis=1).max())

    def project(self, x):
        """Orthogonal projection onto the cycle: (theta, distance).

        Accepts a single state (dim,) or a stack (K, dim).  theta solves
        (x - gamma(theta)) . gamma'(theta) = 0 by Newton from the closest
        grid node, each row until its own step is at most 1e-12 (at most 16
        steps); see `_newton`.  A single state gets the bits of its row in
        a stack.  Stacks are projected in blocks of about _PROJECT_CHUNK
        rows, so memory stays bounded for any K; a stack of two or more
        blocks is projected in forked worker processes (`_parallel.pmap`),
        one block per task, with the same bits as a serial run.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        theta, dist = _map_blocks(
            lambda lo, hi: self._project_block(pts[lo:hi], np.inf), len(pts))
        if single:
            return float(theta[0]), float(dist[0])
        return theta, dist

    def _nearest_nodes(self, pts):
        """Index of each row's nearest grid node, and its squared distance.

        The squared distances are summed one coordinate at a time over
        (rows, M) arrays.  Below 8 coordinates numpy's sum over the axis of
        a (rows, M, dim) array adds in this same order, so the bits agree.
        """
        d2 = np.subtract.outer(pts[:, 0], self.points[:, 0]) ** 2
        for i in range(1, pts.shape[1]):
            d2 += np.subtract.outer(pts[:, i], self.points[:, i]) ** 2
        nearest = np.argmin(d2, axis=1)
        return nearest, d2[np.arange(len(pts)), nearest]

    def _project_block(self, pts, reach):
        """project of a (K, dim) block, refining only the rows whose nearest
        grid node lies within `reach` (theta NaN, distance inf for the rest).
        Every interpolant point lies within about half of `_longest_chord`
        of a node, so a row left out at reach = `_longest_chord` + tol could
        not project within tol of the cycle."""
        nearest, d2 = self._nearest_nodes(pts)
        theta = np.full(len(pts), np.nan)
        dist = np.full(len(pts), np.inf)
        # a NaN row is not "far" and is refined, as every row once was
        rows = np.flatnonzero(~(d2 > reach * reach))
        theta[rows], dist[rows] = self._newton(pts[rows], nearest[rows])
        return theta, dist

    def _newton(self, pts, nodes):
        """Newton on (x - gamma(theta)) . gamma'(theta) = 0 from the grid
        nodes `nodes`: (theta, dist).

        Each row steps until its own step is at most _NEWTON_STEP, or
        _NEWTON_MAX times, so its bits depend on that row alone.  gamma and
        its first two derivatives come by Horner from the Taylor jet of the
        node nearest the current theta (`_taylor`), in units of the node
        spacing h.
        """
        h = TWO_PI / self.grid_size
        theta = self.grid[nodes]
        todo = np.arange(len(pts))
        for _ in range(_NEWTON_MAX):
            if not todo.size:
                break
            g, g1, g2 = self._taylor(theta[todo], second=True)
            r = pts[todo] - g
            step = h * _rowdot(r, g1) / (_rowdot(g1, g1) - _rowdot(r, g2))
            theta[todo] += step
            todo = todo[np.abs(step) > _NEWTON_STEP]
        theta = wrap_phase(theta)
        r = pts - self._taylor(theta)
        return theta, np.sqrt(_rowdot(r, r))

    def _taylor(self, theta, second=False):
        """gamma at theta by Horner on the nearest node's jet; with
        `second`, also its first and second derivatives in units of the
        node spacing, (gamma, h gamma', h**2 gamma'')."""
        s = theta / (TWO_PI / self.grid_size)
        node = np.rint(s)
        u = (s - node)[:, None]
        node[np.isnan(u[:, 0])] = 0.0      # a NaN theta gives NaN values
        c = self._jets[node.astype(int) % self.grid_size]
        g = c[:, -1]
        g1 = g2 = np.zeros_like(g)
        for j in range(_JET_TERMS - 2, -1, -1):
            if second:
                g2 = g2 * u + g1
                g1 = g1 * u + g
            g = g * u + c[:, j]
        return (g, g1, 2.0 * g2) if second else g


def _rowdot(a, b):
    """Row-wise dot product, summed one coordinate at a time so that a row's
    bits do not depend on the other rows."""
    out = a[:, 0] * b[:, 0]
    for i in range(1, a.shape[1]):
        out += a[:, i] * b[:, i]
    return out


def _section_y(x):
    """The section's function: the second coordinate."""
    return x[1]


_SECTION = Section(s=_section_y, direction=+1)   # x[1] = 0, crossed upward
_CROSSING_T_MAX = 200.0   # longest wait for a crossing while shooting
_MAX_NEWTON = 50          # shooting's Newton iterations


def _onto_section(x):
    """A copy of x moved along e1 onto the section x[1] = 0 (an x[1]
    already below 1e-12 in size is kept)."""
    x = np.array(x, dtype=float)
    if abs(x[1]) >= 1e-12:
        x[1] = 0.0
    return x


def _default_guess(model: OscillatorModel) -> np.ndarray:
    """Shooting start for a model given without a guess."""
    if model.name == "relaxation":
        return np.array([2.0, 0.0])
    return np.array([1.5, 0.1]) if model.dim == 2 else np.ones(model.dim)


def find_limit_cycle(model: OscillatorModel, guess, tol: float = 1e-10,
                     grid_size: int = 256,
                     ivp_tol=DEFAULT_TOL) -> LimitCycle:
    """Locate a stable limit cycle by Newton shooting on a section chart.

    The section is `_SECTION`, x[1] = 0 crossed upward; each crossing is
    searched for up to `_CROSSING_T_MAX` = 200 time units, and Newton gets
    `_MAX_NEWTON` = 50 iterations.  Returns the cycle sampled at grid_size
    phases, anchored so that phase zero is the orbit's one upward crossing
    of the section: Newton converges on a fixed point of the first-return
    map, so the orbit meets the section upward nowhere else.  Raises
    ShootingError when Newton stalls or the return map has a unit
    multiplier, UnstableCycleError when the orbit's nontrivial Floquet
    exponent is nonnegative, FloatingPointError when that exponent cannot be
    resolved (see floquet_exponent), and ValueError, before any
    integration, when grid_size is not a positive even integer or tol is not
    positive.

    Between nodes the cycle is the nodes' trigonometric interpolant.
    Relaxation at mu = 3 is under-resolved at the default 256 points: off a
    DOP853 orbit at rtol 2.3e-14 by about 1e-10 between nodes at default
    tolerances, and by 3e-11 (nodes 8e-13) when shot to tol 1e-12 (mu = 1:
    5e-13; mu = 3 at 512 points: 1e-12).
    """
    if not (isinstance(grid_size, (int, np.integer)) and grid_size > 0
            and grid_size % 2 == 0):
        raise ValueError(
            f"grid_size must be a positive even integer, got {grid_size!r}")
    if not tol > 0.0:
        raise ValueError(f"shooting tol must be positive, got {tol!r}")
    guess = np.asarray(guess, dtype=float)
    model.check_basin(guess)

    # Land on the section first.
    _, x_sec = find_crossing(model, guess, _SECTION, _CROSSING_T_MAX,
                             tol=ivp_tol)
    # the section's tangent space: every axis but e1
    chart = np.delete(np.eye(len(x_sec)), 1, axis=1)
    n_chart = chart.shape[1]
    scale = max(1.0, float(np.linalg.norm(x_sec)))
    fd_step = 1e-6 * scale
    period = None

    x_base = x_sec
    converged = False
    for _ in range(_MAX_NEWTON):
        period, x_ret = find_crossing(model, x_base, _SECTION, _CROSSING_T_MAX,
                                      tol=ivp_tol)
        if period < 1e-6:
            raise ShootingError(f"degenerate return time {period:.3e}")
        resid = chart.T @ (x_ret - x_base)
        if np.linalg.norm(resid) < tol * scale:
            converged = True
            break
        jac = np.empty((n_chart, n_chart))
        for j in range(n_chart):
            dx = chart[:, j] * fd_step
            _, xp = find_crossing(model, _onto_section(x_base + dx),
                                  _SECTION, _CROSSING_T_MAX, tol=ivp_tol)
            _, xm = find_crossing(model, _onto_section(x_base - dx),
                                  _SECTION, _CROSSING_T_MAX, tol=ivp_tol)
            jac[:, j] = (chart.T @ (xp - xm)) / (2 * fd_step)
        jac = jac - np.eye(n_chart)
        if abs(np.linalg.det(jac)) < 1e-8:
            raise ShootingError(
                "singular return-map derivative (multiplier at unity); "
                "the orbit is not transversally hyperbolic"
            )
        step = np.linalg.solve(jac, -resid)
        x_base = _onto_section(x_base + chart @ step)
    if not converged:
        raise ShootingError(f"shooting did not converge in {_MAX_NEWTON} iterations")

    # Sample one period from the anchor x_base, uniformly in time.
    t_nodes = period * np.arange(grid_size) / grid_size
    tight = (min(ivp_tol[0], 1e-10), min(ivp_tol[1], 1e-12))
    points = ode.solve_ivp(lambda t, x: model.f(x), (0.0, period), x_base,
                           tight, t_eval=t_nodes).y.T.copy()
    grid = TWO_PI * np.arange(grid_size) / grid_size

    cycle = LimitCycle(period=float(period), grid=grid, points=points,
                       anchor=x_base.copy(), floquet=0.0)
    lam = floquet_exponent(model, cycle)
    if lam >= 0.0:
        raise UnstableCycleError(
            f"periodic orbit found but not asymptotically stable "
            f"(Floquet exponent {lam:+.4g})"
        )
    cycle.floquet = float(lam)
    return cycle


def _jacobian_fn(model: OscillatorModel):
    if model.jacobian is not None:
        return lambda x: np.asarray(model.jacobian(x), dtype=float)

    def fd_jac(x):
        x = np.asarray(x, dtype=float)
        n = len(x)
        scale = max(1.0, float(np.linalg.norm(x)))
        h = 1e-6 * scale
        cols = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            cols.append((model.f(x + e) - model.f(x - e)) / (2 * h))
        return np.column_stack(cols)

    return fd_jac


def floquet_exponent(model: OscillatorModel, cycle: LimitCycle) -> float:
    """Nontrivial Floquet exponent lambda of the cycle.

    For a planar cycle the trivial exponent is zero, so Liouville's formula
    gives lambda = (1/T) * integral over one period of trace Df(gamma(t)).
    cycle.points is uniform in time, so the mean of the trace over the grid
    is the periodic trapezoid rule, which is spectrally accurate; this runs
    no integration.  The Jacobian is the model's own, else finite
    differences.

    For dim > 2 the variational equation is integrated over one period, and
    lambda = log|mu| / T for the largest monodromy eigenvalue mu apart from
    the one nearest the trivial multiplier 1.  Raises FloatingPointError when
    |mu| < 1e-12, where the eigenvalue is roundoff rather than a multiplier.
    """
    jac = _jacobian_fn(model)
    if model.dim == 2:
        traces = [np.trace(jac(x)) for x in cycle.points]
        return float(np.mean(traces))

    n = model.dim

    def rhs(t, y):
        x = y[:n]
        phi = y[n:].reshape(n, n)
        dx = np.asarray(model.f(x), dtype=float)
        dphi = jac(x) @ phi
        return np.concatenate([dx, dphi.reshape(-1)])

    y0 = np.concatenate([cycle.anchor, np.eye(n).reshape(-1)])
    y1 = ode.solve_ivp(rhs, (0.0, cycle.period), y0, (1e-10, 1e-13),
                       endpoint=True).y[:, -1]
    mu = np.linalg.eigvals(y1[n:].reshape(n, n))
    rest = np.delete(mu, np.argmin(np.abs(mu - 1.0)))
    mu_dom = abs(rest[np.argmax(np.abs(rest))])
    if mu_dom < 1e-12:
        raise FloatingPointError(
            f"nontrivial monodromy multiplier {mu_dom:.3e} is below roundoff; "
            f"its Floquet exponent cannot be resolved over one period"
        )
    return float(np.log(mu_dom) / cycle.period)
