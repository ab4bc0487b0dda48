"""Initial value problem driver: adaptive integration, flows, section crossings.

Thin contract layer over scipy's RK45.  Everything downstream (shooting,
adjoint runs, isochron mapping, network sweeps) goes through the helpers here
so tolerances and error handling stay in one place.  Each entry point keeps
only what its callers read:

- `integrate` keeps every step, or the `t_eval` samples (`Trajectory`);
- `flow` and `find_crossing` keep the steps `solve_ivp` records, with events
  (the basin guard, the section) located on the step's interpolant;
- `flow_batch` (and the whole-period runs of the adjoint stage and of the
  Floquet stage above two dimensions) keeps only the final state:
  `_endpoint` steps the same RK45 solver that `solve_ivp` builds, so the
  endpoint is bit-identical while the memory held stays that of a few
  states, however many steps the run takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy.integrate import RK45, solve_ivp

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
    """Sampled solution: every solver step, or the requested t_eval samples.

    times are strictly monotone (increasing for forward runs).
    """

    times: np.ndarray
    states: np.ndarray


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

    hit_core.terminal = True
    hit_core.direction = -1
    return [hit_core]


def _run_solver(rhs, x0, t_span, tol, t_eval=None, events=None,
                max_step=np.inf):
    rtol, atol = tol
    res = solve_ivp(
        rhs,
        t_span,
        np.asarray(x0, dtype=float),
        method="RK45",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        events=events if events else None,
        max_step=max_step,
    )
    if res.status == -1:
        raise IntegrationError(f"integration failed: {res.message}")
    return res


def _endpoint(rhs, x0, t_span, tol):
    """Final state of the run `_run_solver(rhs, x0, t_span, tol)` makes.

    Builds RK45 with the options `solve_ivp` passes it and steps it to the
    end, so the result is bit-identical to `solve_ivp(...).y[:, -1]`, but no
    intermediate step is kept.  For runs without events or samples.
    """
    rtol, atol = tol
    solver = RK45(rhs, float(t_span[0]), np.asarray(x0, dtype=float),
                  float(t_span[1]), rtol=rtol, atol=atol, max_step=np.inf)
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise IntegrationError(f"integration failed: {message}")
    return solver.y.copy()


def integrate(system, x0, t_span, tol=DEFAULT_TOL, t_eval=None,
              max_step=np.inf) -> Trajectory:
    """Integrate dx/dt = f(x) (or rhs(t, x)) over t_span.

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
    res = _run_solver(rhs, x0, (t0, t1), tol, t_eval=t_eval,
                      events=_basin_events(model), max_step=max_step)
    if res.status == 1:  # terminated by the basin event
        raise PhaselessStateError(
            f"trajectory entered the phaseless neighborhood at t = {res.t[-1]:.6g}"
        )
    return Trajectory(times=res.t.copy(), states=res.y.T.copy())


def flow(system, x0, t, tol=DEFAULT_TOL):
    """Endpoint of the flow map: phi_t(x0)."""
    rhs, model = _as_rhs(system)
    x0 = np.asarray(x0, dtype=float)
    if model is not None:
        model.check_basin(x0)
    if t == 0.0:
        return x0.copy()
    res = _run_solver(rhs, x0, (0.0, float(t)), tol,
                      events=_basin_events(model))
    if res.status == 1:
        raise PhaselessStateError(
            f"trajectory entered the phaseless neighborhood at t = {res.t[-1]:.6g}"
        )
    return res.y[:, -1].copy()


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
    return _endpoint(rhs, X0.reshape(-1), (0.0, float(t)), tol).reshape(k, dim)


def find_crossing(system, x0, section: Section, t_max, tol=DEFAULT_TOL,
                  t_guard: float = 1e-3):
    """First t in (0, t_max] with s(x(t)) = 0 crossed in the section direction.

    Returns (t_star, x_star).  The crossing time is refined on the crossing
    step's interpolant to root-finder precision; a crossing where the field
    is nearly tangent to the section is rejected.  A start point sitting on
    the section is flowed for t_guard before event detection so the trivial
    t = 0 root is skipped; crossings inside (0, t_guard) are therefore not
    resolvable from an on-section start.
    """
    rhs, model = _as_rhs(system)
    x0 = np.asarray(x0, dtype=float)
    if model is not None:
        model.check_basin(x0)

    t_offset = 0.0
    scale = max(1.0, float(np.linalg.norm(x0)))
    if abs(float(section.s(x0))) < 1e-9 * scale:
        x0 = _endpoint(rhs, x0, (0.0, t_guard), tol)
        t_offset = t_guard

    def ev(t, x):
        return float(section.s(x))

    ev.terminal = True
    ev.direction = section.direction
    res = _run_solver(lambda t, x: rhs(t + t_offset, x), x0,
                      (0.0, float(t_max) - t_offset), tol,
                      events=[ev] + _basin_events(model))
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
