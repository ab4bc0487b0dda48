"""Initial value problem driver: adaptive integration, flows, section crossings.

Every integration in phasekit runs through `solve_ivp` here: one stepping
loop for phasekit's own eighth-order Dormand-Prince pair DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, 1993, sec. II.10).  It is a port of the
DOP853 that scipy's `solve_ivp` runs: the same tableau, step, error norm,
step-size control, initial step and dense output, samples read off each
step's interpolant, and terminal events located on it by Brent's method
(`_brentq`).  Every expression keeps scipy's order of operations, so a run
takes the same steps and returns the same bits as
`scipy.integrate.solve_ivp(method="DOP853")`; the tests check it bit for
bit.  SciPy is therefore needed only by the tests.

A caller's tol = (rtol, atol) is the accuracy it asks for: DOP853 runs at a
tenth of both (`_solver_tol`), and an rtol whose tenth is under the floor
of 100 * eps is a ValueError, not a silent clamp.  A start where the field
is not finite is an IntegrationError, not an endless step loop, and so is
a step that underflows.  Each entry point keeps only what its callers read:

- `integrate` keeps every step (`Trajectory`), and `flow` is its last
  state;
- `integrate` and `find_crossing` locate their events (the basin guard, the
  section) on the step's interpolant;
- `flow_batch` (and the Floquet stage's whole-period run above two
  dimensions) keeps only the final state (`endpoint=True`), so the memory
  held is that of a few states, however many steps the run takes; so do
  the isochron probes, which a terminal event stops outside a ball.
"""

# Ported from SciPy's DOP853 and brentq: BSD-3-Clause, (c) SciPy Developers.

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .models import OscillatorModel, PhaselessStateError

__all__ = [
    "DEFAULT_TOL",
    "IntegrationError",
    "NoCrossingError",
    "TangentialCrossingError",
    "Section",
    "Trajectory",
    "integrate",
    "flow",
    "flow_batch",
    "find_crossing",
]

# (rtol, atol) used by the geometry stages; sweeps loosen this deliberately.
DEFAULT_TOL = (1e-9, 1e-11)

_T_GUARD = 1e-3    # find_crossing's head start from a point on the section

_EPS = np.finfo(float).eps
# step-size control: safety factor, bounds on one step's change, and the
# exponent -1 / (error estimator order 7 + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8
_BRENT_MAXITER = 100
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_MESSAGES = {0: "The solver successfully reached the end of the integration "
                "interval.",
             1: "A termination event occurred."}


def _solver_tol(tol):
    """The (rtol, atol) DOP853 runs at for a caller's tol: a tenth of each."""
    rtol, floor = 0.1 * tol[0], 100 * _EPS
    if rtol < floor:
        raise ValueError(f"rtol {tol[0]:g} would run the solver at {rtol:g}, "
                         f"below the floor 100*eps = {floor:.3g}")
    if tol[1] < 0:
        raise ValueError(f"atol must not be negative, got {tol[1]!r}")
    return rtol, 0.1 * tol[1]


def _finite_span(t_span):
    """(t0, t1) as floats.  A bound that is not finite is a ValueError: the
    solver would step toward it without end, keeping every step."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"time span ({t0:g}, {t1:g}) must be finite")
    return t0, t1


class IntegrationError(RuntimeError):
    """Integrator failed (step underflow or solver breakdown)."""


class NoCrossingError(RuntimeError):
    """No section crossing with the requested direction within t_max."""


class TangentialCrossingError(RuntimeError):
    """Crossing found but the vector field is (near-)tangent to the section."""


@dataclass(frozen=True)
class Section:
    """Scalar section s(x) = 0 with a crossing direction.

    direction: +1 for crossings with ds/dt > 0, -1 for ds/dt < 0,
    0 to accept either sign.
    """

    s: Callable[[np.ndarray], float]
    direction: int = +1

    def __post_init__(self):
        if self.direction not in (-1, 0, 1):
            raise ValueError("section direction must be +1, -1 or 0 (either)")


@dataclass
class Trajectory:
    """Sampled solution: every solver step.

    times are strictly monotone (increasing for forward runs).
    """

    times: np.ndarray
    states: np.ndarray


@dataclass
class _Solution:
    """What `solve_ivp` returns, in the fields of scipy's result: times t,
    states y (one column per time), the root and the state of each event
    (one list per event), status 0 (end reached) or 1 (stopped by an
    event), its message, and nfev, the RHS evaluations."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    status: int
    message: str
    nfev: int


def _sample_times(t_eval, t0, t1):
    """t_eval in increasing order, after scipy's checks and with its
    wording."""
    t_eval = np.asarray(t_eval)
    if t_eval.ndim != 1:
        raise ValueError("`t_eval` must be 1-dimensional.")
    if np.any(t_eval < min(t0, t1)) or np.any(t_eval > max(t0, t1)):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    d = np.diff(t_eval)
    if t1 > t0 and np.any(d <= 0) or t1 < t0 and np.any(d >= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    return t_eval if t1 > t0 else t_eval[::-1]


def solve_ivp(fun, t_span, y0, tol, t_eval=None, events=(),
              max_step=np.inf, endpoint=False) -> _Solution:
    """Integrate y' = fun(t, y) over t_span by DOP853 at `_solver_tol(tol)`.

    Bit for bit the run `scipy.integrate.solve_ivp(fun, t_span, y0,
    method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval, events=events,
    max_step=max_step)` makes, with every event terminal.  The result keeps
    the states at t_eval, else at every step (only the last one with
    endpoint=True).

    events: functions g(t, y), each with a `direction` attribute (+1 up,
    -1 down, 0 either) as in scipy.  The run stops at the first root, found
    by `_brentq` on the step's interpolant, and t and y end there; status
    is 1.  That is the only early stop.
    A step below the spacing of floats raises IntegrationError.
    """
    rtol, atol = _solver_tol(tol)
    t0, t1 = _finite_span(t_span)
    if max_step <= 0:
        raise ValueError("`max_step` must be positive.")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValueError("the initial state must be a 1-d array of finite "
                         "numbers")
    if t_eval is not None:
        t_eval = _sample_times(t_eval, t0, t1)
        t_eval_i = 0 if t1 > t0 else len(t_eval)
    nfev = 0

    def rhs(t, x):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, x), dtype=float)

    n = y.size
    t, f = t0, rhs(t0, y)
    if not np.all(np.isfinite(f)):
        raise IntegrationError("integration failed: the field is not finite "
                               "at the initial state")
    direction = np.sign(t1 - t0) if t1 != t0 else 1
    h_abs = _initial_step(rhs, t0, y, t1, max_step, f, direction, rtol, atol)
    stages = np.empty((_N_STAGES_EXTENDED, n))
    keep_steps = t_eval is None and not endpoint
    ts, ys = ([t0], [y]) if keep_steps else ([], [])
    g = [event(t0, y) for event in events]
    directions = [event.direction for event in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    status = None
    while status is None:
        t_old, y_old = t, y
        if n == 0 or t == t1:      # scipy's step of an empty or null span
            t, h = t1, 0.0
        else:
            t, y, f, h, h_abs = _step(rhs, t, y, f, h_abs, t1, direction,
                                      max_step, rtol, atol, stages)
        if direction * (t - t1) >= 0:
            status = 0
        sol = None
        if events:
            g_new = [event(t, y) for event in events]
            active = _active_events(g, g_new, directions)
            if active:
                sol = _interpolant(rhs, stages, t_old, t, y_old, y, f, h)
                roots = np.asarray([
                    _brentq(lambda s, event=events[e]: event(s, sol(s)),
                            t_old, t, 4 * _EPS, 4 * _EPS) for e in active])
                first = (np.argsort(roots) if t > t_old
                         else np.argsort(-roots))[0]
                t = roots[first]
                y = sol(t)
                t_events[active[first]].append(t)
                y_events[active[first]].append(y)
                status = 1
            g = g_new
        if keep_steps:
            ts.append(t)
            ys.append(y)
        elif t_eval is not None:
            if direction > 0:
                t_eval_i_new = np.searchsorted(t_eval, t, side="right")
                t_eval_step = t_eval[t_eval_i:t_eval_i_new]
            else:
                t_eval_i_new = np.searchsorted(t_eval, t, side="left")
                t_eval_step = t_eval[t_eval_i_new:t_eval_i][::-1]
            if t_eval_step.size > 0:
                if sol is None:
                    sol = _interpolant(rhs, stages, t_old, t, y_old, y, f, h)
                ts.append(t_eval_step)
                ys.append(sol(t_eval_step))
                t_eval_i = t_eval_i_new

    if keep_steps:
        t_out, y_out = np.array(ts), np.vstack(ys).T
    elif endpoint:
        t_out, y_out = np.array([t]), y[:, None].copy()
    elif ts:
        t_out, y_out = np.hstack(ts), np.hstack(ys)
    else:
        t_out, y_out = np.empty(0), np.empty((n, 0))
    return _Solution(t=t_out, y=y_out,
                     t_events=[np.asarray(te) for te in t_events],
                     y_events=[np.asarray(ye) for ye in y_events],
                     status=status, message=_MESSAGES[status], nfev=nfev)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, direction, rtol, atol):
    """scipy's `select_initial_step` (Hairer, Norsett & Wanner, sec. II.4)
    for the error estimator of order 7."""
    if y0.size == 0:
        return np.inf
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, max_step)


def _step(fun, t, y, f, h_abs, t_bound, direction, max_step, rtol, atol, K):
    """One accepted DOP853 step from (t, y) with f = fun(t, y), trying
    h_abs first and shrinking it until the error norm is below 1.

    Returns (t_new, y_new, f_new, h, h_abs for the next step).  K, the
    (16, n) stage array, is left holding this step's stages for
    `_interpolant`.
    """
    min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
    if h_abs > max_step:
        h_abs = max_step
    elif h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            raise IntegrationError(f"integration failed: {_TOO_SMALL_STEP}")
        h = h_abs * direction
        t_new = t + h
        if direction * (t_new - t_bound) > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = np.abs(h)

        K[0] = f
        for s, (a, c) in enumerate(_STEP_STAGES, start=1):
            dy = np.dot(K[:s].T, a) * h
            K[s] = fun(t + c * h, y + dy)
        y_new = y + h * np.dot(K[:_N_STAGES].T, _B)
        f_new = fun(t + h, y_new)
        K[_N_STAGES] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _error_norm(K[:_N_STAGES + 1], h, scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR,
                             _SAFETY * error_norm ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h, h_abs * factor
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        rejected = True


def _error_norm(K, h, scale):
    """DOP853's error norm: the fifth-order estimate, damped by the third
    (Hairer, Norsett & Wanner, sec. II.10)."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _interpolant(fun, K, t_old, t, y_old, y, f, h):
    """The step's seventh-degree dense output, sol(s) for s (a float or a
    1-d array) in [t_old, t]: three more stages, then the polynomial in
    x = (s - t_old) / (t - t_old).  The state itself on a null step."""
    if h == 0.0:
        return lambda s: (y if np.ndim(s) == 0
                          else np.repeat(y[:, None], len(s), axis=1))
    for s, (a, c) in enumerate(_EXTRA_STAGES, start=_N_STAGES + 1):
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t_old + c * h, y_old + dy)
    F = np.empty((_INTERPOLATOR_POWER, len(y_old)))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_D, K)
    span = t - t_old

    def sol(s):
        s = np.asarray(s)
        x = (s - t_old) / span
        if s.ndim == 0:
            out = np.zeros_like(y_old)
        else:
            x = x[:, None]
            out = np.zeros((len(x), len(y_old)))
        for i, coeff in enumerate(reversed(F)):
            out += coeff
            if i % 2 == 0:
                out *= x
            else:
                out *= 1 - x
        out += y_old
        return out.T

    return sol


def _active_events(g, g_new, directions):
    """Indices of the events whose sign change over the step matches their
    direction: scipy's test, on plain numbers rather than arrays."""
    return [e for e, (a, b, d) in enumerate(zip(g, g_new, directions))
            if d >= 0 and a <= 0 <= b or d <= 0 and a >= 0 >= b]


def _brentq(f, a, b, xtol, rtol):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method as scipy.optimize.brentq runs it (100 iterations at most).

    Each iterate moves by inverse quadratic or linear interpolation when
    that step is short enough, else by bisection; it returns once the
    bracket's half width is below (xtol + rtol * |x|) / 2.  A NaN value or
    an unsigned bracket raises ValueError, no convergence RuntimeError.
    """

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver "
                             f"cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = _divide(-fcur * (xcur - xpre), fcur - fpre)
            else:                   # extrapolate
                dpre = _divide(fpre - fcur, xpre - xcur)
                dblk = _divide(fblk - fcur, xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre),
                               dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


def _divide(a, b):
    """a / b in IEEE arithmetic, as C divides: over a zero b the quotient is
    an infinity of its sign, or NaN for 0 / 0 and NaN / 0."""
    if b != 0.0:
        return a / b
    if a == 0.0 or a != a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _as_rhs(system: Union[OscillatorModel, Callable]) -> Tuple[Callable, Optional[OscillatorModel]]:
    if isinstance(system, OscillatorModel):
        model = system
        return (lambda t, x: model.f(x)), model
    return system, None


def _basin_events(model: Optional[OscillatorModel]):
    if model is None or model.basin_radius is None:
        return []

    def hit_core(t, x):
        return float(np.linalg.norm(x) - model.basin_radius)

    hit_core.direction = -1
    return [hit_core]


def integrate(system, x0, t_span, tol=DEFAULT_TOL,
              max_step=np.inf) -> Trajectory:
    """Integrate dx/dt = f(x) (or rhs(t, x)) over t_span, keeping every step.

    system: OscillatorModel or a callable rhs(t, x).  For models with a basin
    guard, a trajectory entering the excluded ball raises PhaselessStateError.
    """
    rhs, model = _as_rhs(system)
    x0 = np.asarray(x0, dtype=float)
    if model is not None:
        model.check_basin(x0)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        return Trajectory(times=np.array([t0]), states=x0[None, :].copy())
    res = solve_ivp(rhs, (t0, t1), x0, tol, events=_basin_events(model),
                    max_step=max_step)
    if res.status == 1:  # terminated by the basin event
        raise PhaselessStateError(
            f"trajectory entered the phaseless neighborhood at t = {res.t[-1]:.6g}"
        )
    return Trajectory(times=res.t.copy(), states=res.y.T.copy())


def flow(system, x0, t, tol=DEFAULT_TOL):
    """Endpoint of the flow map: phi_t(x0), the last state of
    `integrate(system, x0, (0, t), tol)`."""
    return integrate(system, x0, (0.0, t), tol).states[-1].copy()


def flow_batch(model: OscillatorModel, X0, t, tol=DEFAULT_TOL):
    """Flow a stack of initial states (K, dim) for the same time t.

    A negative t flows backward.  The stack is integrated as one system with
    a shared adaptive step; the per-point accuracy is what the shared error
    control delivers, which is ample for the settle-and-project uses inside
    the toolkit.  Only the final state is kept, so the memory held is a few
    copies of the stack however many steps the run takes.
    """
    X0 = np.asarray(X0, dtype=float)
    k, dim = X0.shape

    def rhs(t_, y):
        return model.f_batch(y.reshape(k, dim)).reshape(-1)

    if t == 0.0:
        return X0.copy()
    end = solve_ivp(rhs, (0.0, float(t)), X0.reshape(-1), tol, endpoint=True)
    return end.y[:, -1].reshape(k, dim)


def find_crossing(system, x0, section: Section, t_max, tol=DEFAULT_TOL):
    """First t in (0, t_max] with s(x(t)) = 0 crossed in the section direction.

    Returns (t_star, x_star).  The crossing time is refined on the crossing
    step's interpolant to root-finder precision; a crossing where the field
    is nearly tangent to the section, or s too flat to locate, raises
    TangentialCrossingError.  A start point sitting on the section is flowed
    for `_T_GUARD` = 1e-3 before event detection so the trivial t = 0 root
    is skipped; crossings inside (0, 1e-3) are therefore not resolvable from
    an on-section start.
    """
    rhs, model = _as_rhs(system)
    x0 = np.asarray(x0, dtype=float)
    if model is not None:
        model.check_basin(x0)

    t_offset = 0.0
    scale = max(1.0, float(np.linalg.norm(x0)))
    if abs(float(section.s(x0))) < 1e-9 * scale:
        x0 = solve_ivp(rhs, (0.0, _T_GUARD), x0, tol, endpoint=True).y[:, -1]
        t_offset = _T_GUARD

    def ev(t, x):
        return float(section.s(x))

    ev.direction = section.direction
    try:
        res = solve_ivp(lambda t, x: rhs(t + t_offset, x),
                        (0.0, float(t_max) - t_offset), x0, tol,
                        events=[ev] + _basin_events(model))
    except RuntimeError as err:     # bare only from `_brentq`: s is flat
        if type(err) is not RuntimeError:
            raise
        raise TangentialCrossingError("vector field nearly tangent to "
                                      f"section ({err})") from err
    if res.status == 1 and res.t_events[0].size == 0:
        raise PhaselessStateError(
            "trajectory entered the phaseless neighborhood before crossing"
        )
    if res.t_events[0].size == 0:
        raise NoCrossingError(
            f"no section crossing with direction {section.direction:+d} in "
            f"(0, {t_max:g}]"
        )
    t_star = float(res.t_events[0][0]) + t_offset
    x_star = res.y_events[0][0].copy()
    # Transversality: ds/dt along the flow at the crossing.
    fval = np.asarray(rhs(t_star, x_star), dtype=float)
    scale = max(1.0, float(np.linalg.norm(x_star)))
    h = 1e-6 * scale / max(1.0, float(np.linalg.norm(fval)))
    dsdt = (float(section.s(x_star + h * fval)) -
            float(section.s(x_star - h * fval))) / (2.0 * h)
    if abs(dsdt) < 1e-6:
        raise TangentialCrossingError(
            f"vector field nearly tangent to section at crossing (ds/dt = {dsdt:.2e})"
        )
    return t_star, x_star


# --- DOP853's tableau ---------------------------------------------------------
# Built by the statements of scipy's dop853_coefficients.py, so that every
# coefficient, E3 and E5 included (they are differences from B), has scipy's
# bits.

_N_STAGES = 12
_N_STAGES_EXTENDED = 16
_INTERPOLATOR_POWER = 7

_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0,
               0.1,
               0.2,
               0.777777777777777777777777777778])

_A = np.zeros((_N_STAGES_EXTENDED, _N_STAGES_EXTENDED))
_A[1, 0] = 5.26001519587677318785587544488e-2

_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2

_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2

_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1

_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1

_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2

_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3

_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1

_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2

_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022

_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2

_A[13, 0] = 5.61675022830479523392909219681e-2
_A[13, 6] = 2.53500210216624811088794765333e-1
_A[13, 7] = -2.46239037470802489917441475441e-1
_A[13, 8] = -1.24191423263816360469010140626e-1
_A[13, 9] = 1.5329179827876569731206322685e-1
_A[13, 10] = 8.20105229563468988491666602057e-3
_A[13, 11] = 7.56789766054569976138603589584e-3
_A[13, 12] = -8.298e-3

_A[14, 0] = 3.18346481635021405060768473261e-2
_A[14, 5] = 2.83009096723667755288322961402e-2
_A[14, 6] = 5.35419883074385676223797384372e-2
_A[14, 7] = -5.49237485713909884646569340306e-2
_A[14, 10] = -1.08347328697249322858509316994e-4
_A[14, 11] = 3.82571090835658412954920192323e-4
_A[14, 12] = -3.40465008687404560802977114492e-4
_A[14, 13] = 1.41312443674632500278074618366e-1

_A[15, 0] = -4.28896301583791923408573538692e-1
_A[15, 5] = -4.69762141536116384314449447206
_A[15, 6] = 7.68342119606259904184240953878
_A[15, 7] = 4.06898981839711007970213554331
_A[15, 8] = 3.56727187455281109270669543021e-1
_A[15, 12] = -1.39902416515901462129418009734e-3
_A[15, 13] = 2.9475147891527723389556272149
_A[15, 14] = -9.15095847217987001081870187138


_B = _A[_N_STAGES, :_N_STAGES]

_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(_N_STAGES + 1)
_E5[0] = 0.1312004499419488073250102996e-1
_E5[5] = -0.1225156446376204440720569753e+1
_E5[6] = -0.4957589496572501915214079952
_E5[7] = 0.1664377182454986536961530415e+1
_E5[8] = -0.3503288487499736816886487290
_E5[9] = 0.3341791187130174790297318841
_E5[10] = 0.8192320648511571246570742613e-1
_E5[11] = -0.2235530786388629525884427845e-1

# the first three rows of the interpolant are computed separately
_D = np.zeros((_INTERPOLATOR_POWER - 3, _N_STAGES_EXTENDED))
_D[0, 0] = -0.84289382761090128651353491142e+1
_D[0, 5] = 0.56671495351937776962531783590
_D[0, 6] = -0.30689499459498916912797304727e+1
_D[0, 7] = 0.23846676565120698287728149680e+1
_D[0, 8] = 0.21170345824450282767155149946e+1
_D[0, 9] = -0.87139158377797299206789907490
_D[0, 10] = 0.22404374302607882758541771650e+1
_D[0, 11] = 0.63157877876946881815570249290
_D[0, 12] = -0.88990336451333310820698117400e-1
_D[0, 13] = 0.18148505520854727256656404962e+2
_D[0, 14] = -0.91946323924783554000451984436e+1
_D[0, 15] = -0.44360363875948939664310572000e+1

_D[1, 0] = 0.10427508642579134603413151009e+2
_D[1, 5] = 0.24228349177525818288430175319e+3
_D[1, 6] = 0.16520045171727028198505394887e+3
_D[1, 7] = -0.37454675472269020279518312152e+3
_D[1, 8] = -0.22113666853125306036270938578e+2
_D[1, 9] = 0.77334326684722638389603898808e+1
_D[1, 10] = -0.30674084731089398182061213626e+2
_D[1, 11] = -0.93321305264302278729567221706e+1
_D[1, 12] = 0.15697238121770843886131091075e+2
_D[1, 13] = -0.31139403219565177677282850411e+2
_D[1, 14] = -0.93529243588444783865713862664e+1
_D[1, 15] = 0.35816841486394083752465898540e+2

_D[2, 0] = 0.19985053242002433820987653617e+2
_D[2, 5] = -0.38703730874935176555105901742e+3
_D[2, 6] = -0.18917813819516756882830838328e+3
_D[2, 7] = 0.52780815920542364900561016686e+3
_D[2, 8] = -0.11573902539959630126141871134e+2
_D[2, 9] = 0.68812326946963000169666922661e+1
_D[2, 10] = -0.10006050966910838403183860980e+1
_D[2, 11] = 0.77771377980534432092869265740
_D[2, 12] = -0.27782057523535084065932004339e+1
_D[2, 13] = -0.60196695231264120758267380846e+2
_D[2, 14] = 0.84320405506677161018159903784e+2
_D[2, 15] = 0.11992291136182789328035130030e+2

_D[3, 0] = -0.25693933462703749003312586129e+2
_D[3, 5] = -0.15418974869023643374053993627e+3
_D[3, 6] = -0.23152937917604549567536039109e+3
_D[3, 7] = 0.35763911791061412378285349910e+3
_D[3, 8] = 0.93405324183624310003907691704e+2
_D[3, 9] = -0.37458323136451633156875139351e+2
_D[3, 10] = 0.10409964950896230045147246184e+3
_D[3, 11] = 0.29840293426660503123344363579e+2
_D[3, 12] = -0.43533456590011143754432175058e+2
_D[3, 13] = 0.96324553959188282948394950600e+2
_D[3, 14] = -0.39177261675615439165231486172e+2
_D[3, 15] = -0.14972683625798562581422125276e+3


# (row of A, node of C) of each stage after the first, and of the three
# stages the interpolant adds
_STEP_STAGES = [(_A[s, :s], _C[s]) for s in range(1, _N_STAGES)]
_EXTRA_STAGES = [(_A[s, :s], _C[s])
                 for s in range(_N_STAGES + 1, _N_STAGES_EXTENDED)]
