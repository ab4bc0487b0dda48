"""Limit cycle location, parameterization, and Floquet analysis.

The cycle is located by Newton shooting on a Poincare section chart and stored
on a uniform grid in phase theta = omega0 * t, theta in [0, 2*pi).  Phase zero
sits at the section crossing with the largest first coordinate, so repeated
runs land on the same parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import TWO_PI, OscillatorModel, wrap_phase
from .ode import DEFAULT_TOL, Section, find_crossing, _endpoint, _run_solver

__all__ = [
    "PeriodicInterpolant",
    "LimitCycle",
    "ShootingError",
    "UnstableCycleError",
    "find_limit_cycle",
    "floquet_exponent",
]


# Rows per block in LimitCycle.project: its nearest-node search holds a
# (rows, grid_size, dim) array, about 8 MB at the default 256-point grid.
# With single-threaded BLAS a row's product has the same bits in any block of
# two or more rows, so blocking leaves the result unchanged; threaded BLAS
# moves the last bits with its thread count, blocked or not.
_PROJECT_CHUNK = 2048


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
        return np.exp(1j * np.multiply.outer(theta, self._k))  # (..., K)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self._value(self._phases(theta), theta)

    def derivative(self, theta, order: int = 1):
        theta = np.asarray(theta, dtype=float)
        return self._derivative(self._phases(theta), theta, order)

    def jet(self, theta):
        """(value, first, second derivative) at theta from one phase table.

        Bit-identical to separate __call__ and derivative calls, at a third
        of the complex exponentials.
        """
        theta = np.asarray(theta, dtype=float)
        e = self._phases(theta)
        return (self._value(e, theta), self._derivative(e, theta, 1),
                self._derivative(e, theta, 2))

    def _value(self, e, theta):
        out = np.real(e @ self._weights)
        # Nyquist term must enter as a pure cosine for a real interpolant.
        nyq = self._weights[-1].real
        out += np.multiply.outer(
            np.cos(theta * self._k[-1]) - np.real(e[..., -1]), nyq
        )
        return out[..., 0] if self._scalar else out

    def _derivative(self, e, theta, order):
        w = self._weights * (1j * self._k[:, None]) ** order
        out = np.real(e @ w)
        # d/dtheta of the Nyquist cosine, replacing the complex-exponential row.
        kn = self._k[-1]
        nyq = self._weights[-1].real
        if order % 4 == 0:
            tru = np.cos(theta * kn) * kn ** order
        elif order % 4 == 1:
            tru = -np.sin(theta * kn) * kn ** order
        elif order % 4 == 2:
            tru = -np.cos(theta * kn) * kn ** order
        else:
            tru = np.sin(theta * kn) * kn ** order
        raw = np.real((1j * kn) ** order * e[..., -1])
        out += np.multiply.outer(tru - raw, nyq)
        return out[..., 0] if self._scalar else out


@dataclass
class LimitCycle:
    """Periodic orbit sampled uniformly in phase (equivalently, in time)."""

    model: OscillatorModel
    period: float
    grid: np.ndarray          # phases theta_k = 2*pi*k/M
    points: np.ndarray        # (M, dim) states, points[k] = gamma(theta_k)
    anchor: np.ndarray        # gamma(0), on the section
    floquet: float            # nontrivial Floquet exponent, < 0
    section: Section
    _interp: PeriodicInterpolant = field(init=False, repr=False)

    def __post_init__(self):
        self._interp = PeriodicInterpolant(self.points)

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

    def velocity_at(self, theta):
        """d gamma / d theta; the vector field on the cycle is omega0 * this."""
        return self._interp.derivative(np.asarray(wrap_phase(theta), dtype=float))

    def project(self, x):
        """Orthogonal projection onto the cycle: (theta, distance).

        Accepts a single state (dim,) or a stack (K, dim).  theta solves
        (x - gamma(theta)) . gamma'(theta) = 0 near the closest grid node.
        Stacks are projected in blocks of about _PROJECT_CHUNK rows, so
        memory stays bounded for any K.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        n = len(pts)
        theta = np.empty(n)
        dist = np.empty(n)
        lo = 0
        while lo < n:
            # Never leave one row alone: numpy's one-row product path rounds
            # differently from the same row inside a larger product.
            hi = n if lo + _PROJECT_CHUNK + 1 >= n else lo + _PROJECT_CHUNK
            theta[lo:hi], dist[lo:hi] = self._project_chunk(pts[lo:hi])
            lo = hi
        if single:
            return float(theta[0]), float(dist[0])
        return theta, dist

    def _project_chunk(self, pts):
        d2 = ((pts[:, None, :] - self.points[None, :, :]) ** 2).sum(axis=2)
        theta = self.grid[np.argmin(d2, axis=1)].astype(float)
        for _ in range(4):
            g, dg, d2g = self._interp.jet(theta)
            res = ((pts - g) * dg).sum(axis=1)
            slope = -(dg * dg).sum(axis=1) + ((pts - g) * d2g).sum(axis=1)
            theta = theta - res / slope
        theta = wrap_phase(theta)
        return theta, np.linalg.norm(pts - self._interp(theta), axis=1)


def _section_chart(section: Section, x, fd_step=1e-7):
    """Orthonormal basis of the section tangent space at x (columns)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    grad = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = fd_step
        grad[i] = (float(section.s(x + e)) - float(section.s(x - e))) / (2 * fd_step)
    norm = np.linalg.norm(grad)
    if norm == 0.0:
        raise ShootingError("section gradient vanishes at the working point")
    grad /= norm
    # Complete grad to an orthonormal basis; drop the gradient direction.
    basis = np.linalg.qr(np.column_stack([grad, np.eye(n)]))[0]
    return grad, basis[:, 1:n]


def _reproject_to_section(section, x, grad, tol=1e-12):
    x = np.array(x, dtype=float)
    for _ in range(5):
        val = float(section.s(x))
        if abs(val) < tol:
            break
        x -= val * grad
    return x


def _section_y(x):
    """The default section's function: the second coordinate."""
    return x[1]


def _default_section() -> Section:
    """The section find_limit_cycle uses when none is given: x[1] = 0, upward."""
    return Section(s=_section_y, direction=+1)


def _default_guess(model: OscillatorModel) -> np.ndarray:
    """Shooting start for a model given without a guess."""
    if model.name == "relaxation":
        return np.array([2.0, 0.0])
    return np.array([1.5, 0.1]) if model.dim == 2 else np.ones(model.dim)


def find_limit_cycle(model: OscillatorModel, guess, section: Optional[Section] = None,
                     tol: float = 1e-10, grid_size: int = 256,
                     t_max: float = 200.0, max_iter: int = 50,
                     ivp_tol=DEFAULT_TOL) -> LimitCycle:
    """Locate a stable limit cycle by Newton shooting on a section chart.

    Returns the cycle sampled at grid_size phases, anchored so that phase zero
    is the section crossing with the largest first coordinate (ties broken by
    the second coordinate).  Raises ShootingError when Newton stalls or the
    return map has a unit multiplier, UnstableCycleError when the orbit's
    nontrivial Floquet exponent is nonnegative, FloatingPointError when that
    exponent cannot be resolved (see floquet_exponent), and ValueError when
    grid_size is not a positive even integer.
    """
    if not (isinstance(grid_size, (int, np.integer)) and grid_size > 0
            and grid_size % 2 == 0):
        raise ValueError(
            f"grid_size must be a positive even integer, got {grid_size!r}")
    if section is None:
        section = _default_section()
    guess = np.asarray(guess, dtype=float)
    model.check_basin(guess)

    # Land on the section first.
    _, x_sec = find_crossing(model, guess, section, t_max, tol=ivp_tol)
    grad, chart = _section_chart(section, x_sec)
    n_chart = chart.shape[1]
    scale = max(1.0, float(np.linalg.norm(x_sec)))
    fd_step = 1e-6 * scale
    period = None

    x_base = x_sec
    converged = False
    for _ in range(max_iter):
        period, x_ret = find_crossing(model, x_base, section, t_max, tol=ivp_tol)
        if period < 1e-6:
            raise ShootingError(f"degenerate return time {period:.3e}")
        resid = chart.T @ (x_ret - x_base)
        if np.linalg.norm(resid) < tol * scale:
            converged = True
            break
        jac = np.empty((n_chart, n_chart))
        for j in range(n_chart):
            dx = chart[:, j] * fd_step
            _, xp = find_crossing(model, _reproject_to_section(section, x_base + dx, grad),
                                  section, t_max, tol=ivp_tol)
            _, xm = find_crossing(model, _reproject_to_section(section, x_base - dx, grad),
                                  section, t_max, tol=ivp_tol)
            jac[:, j] = (chart.T @ (xp - xm)) / (2 * fd_step)
        jac = jac - np.eye(n_chart)
        if abs(np.linalg.det(jac)) < 1e-8:
            raise ShootingError(
                "singular return-map derivative (multiplier at unity); "
                "the orbit is not transversally hyperbolic"
            )
        step = np.linalg.solve(jac, -resid)
        x_base = _reproject_to_section(section, x_base + chart @ step, grad)
    if not converged:
        raise ShootingError(f"shooting did not converge in {max_iter} iterations")

    # Anchor: among this orbit's section crossings, take max first coordinate.
    anchor = x_base
    crossings = _collect_crossings(model, x_base, section, period, ivp_tol)
    if crossings:
        key = max(range(len(crossings)),
                  key=lambda i: (crossings[i][0], crossings[i][1]))
        t_anchor = crossings[key][-1]
        if t_anchor > 0.0:
            anchor = _endpoint(lambda t, x: model.f(x), x_base,
                               (0.0, t_anchor), ivp_tol)
            anchor = _reproject_to_section(section, anchor, grad)

    # Sample one period from the anchor, uniformly in time.
    t_nodes = period * np.arange(grid_size) / grid_size
    tight = (min(ivp_tol[0], 1e-10), min(ivp_tol[1], 1e-12))
    points = _run_solver(lambda t, x: model.f(x), anchor, (0.0, period), tight,
                         t_eval=t_nodes).y.T.copy()
    grid = TWO_PI * np.arange(grid_size) / grid_size

    cycle = LimitCycle(model=model, period=float(period), grid=grid,
                       points=points, anchor=anchor.copy(), floquet=0.0,
                       section=section)
    lam = floquet_exponent(model, cycle)
    if lam >= 0.0:
        raise UnstableCycleError(
            f"periodic orbit found but not asymptotically stable "
            f"(Floquet exponent {lam:+.4g})"
        )
    cycle.floquet = float(lam)
    return cycle


def _collect_crossings(model, x_start, section, period, ivp_tol):
    """(x1, x2, t) for every section crossing in (0, period]."""

    def ev(t, x):
        return float(section.s(x))

    ev.terminal = False
    ev.direction = section.direction
    res = _run_solver(lambda t, x: model.f(x), x_start,
                      (0.0, period), ivp_tol, events=[ev])
    out = [(float(x[0]), float(x[1]) if len(x) > 1 else 0.0, float(t))
           for t, x in zip(res.t_events[0], res.y_events[0])
           if 1e-9 < t < period - 1e-9]
    out.append((float(x_start[0]), float(x_start[1]) if len(x_start) > 1 else 0.0, 0.0))
    return out


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
    y1 = _endpoint(rhs, y0, (0.0, cycle.period), (1e-10, 1e-13))
    mu = np.linalg.eigvals(y1[n:].reshape(n, n))
    rest = np.delete(mu, np.argmin(np.abs(mu - 1.0)))
    mu_dom = abs(rest[np.argmax(np.abs(rest))])
    if mu_dom < 1e-12:
        raise FloatingPointError(
            f"nontrivial monodromy multiplier {mu_dom:.3e} is below roundoff; "
            f"its Floquet exponent cannot be resolved over one period"
        )
    return float(np.log(mu_dom) / cycle.period)
