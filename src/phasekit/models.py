"""Planar limit-cycle oscillator models and forcing terms.

The circular built-ins are one family, the Stuart-Landau normal form

    z' = (alpha - beta |z|^2) z,   alpha = 1 + i omega,   beta = 1 + i c2,

on z = u + i v: an exponentially stable limit cycle on the unit circle with
angular frequency omega - c2 and Floquet exponent -2, and an excluded
neighborhood of the origin where no asymptotic phase exists.  "radial"
(omega = 1, c2 = 0) and "spiral" (omega = 0, c2 = -1) are parameterless
presets of "stuart_landau".  The family's one field evaluates the formula
above on the complex128 view of a (..., 2) block.  Each circular model
carries a closed-form asymptotic phase and phase response curve; the
relaxation oscillator has neither.  The test suite uses both as oracles, and
`network.network_phases` reads the asymptotic phase of every node that has
one in place of settling its states numerically.

Vector fields broadcast: ``f(x)`` accepts ``x`` of shape ``(..., dim)`` and
returns the same shape.  Custom models may be scalar-only; set
``vectorized=False`` and the toolkit falls back to looping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

__all__ = [
    "TWO_PI",
    "BASIN_RADIUS",
    "PhaselessStateError",
    "OscillatorModel",
    "Perturbation",
    "make_model",
    "relaxation_model",
    "sinusoidal_forcing",
]

TWO_PI = 2.0 * math.pi

# Queries closer to the origin than this are rejected: the asymptotic phase of
# the built-in models is undefined at the origin and ill-conditioned near it.
BASIN_RADIUS = 1e-3


class PhaselessStateError(ValueError):
    """State lies in the excluded neighborhood of the phaseless set."""


def wrap_phase(theta):
    """Wrap angles into [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


@dataclass(frozen=True)
class OscillatorModel:
    """Autonomous vector field with (presumed) stable limit cycle.

    Fields
    ------
    name : str
        Identifier ("radial", "spiral", "stuart_landau", "relaxation", or
        "custom").  A model counts as a built-in only when make_model built
        its field; the name alone does not make it one.
    dim : int
        State dimension.
    f : callable
        Vector field, ``f(x) -> dx/dt``.
    jacobian : callable or None
        ``jacobian(x) -> (..., dim, dim)`` array; used by the adjoint and
        the Floquet exponent.  When absent, finite differences are used.
    analytic_phase : callable or None
        Closed-form asymptotic phase ``x -> theta in [0, 2*pi)``; a test
        oracle, and the node phase ``network.network_phases`` reads.
    analytic_prc : callable or None
        Closed-form phase response curve ``theta -> Z`` (gradient of the
        asymptotic phase on the cycle); a test oracle only.
    params : mapping
        Model parameters, read-only.
    basin_radius : float or None
        Radius of the excluded phaseless neighborhood, None to disable.
    vectorized : bool
        Whether ``f`` (and ``jacobian``) broadcast over leading axes.
    """

    name: str
    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_phase: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_prc: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: Mapping[str, float] = field(default_factory=dict)
    basin_radius: Optional[float] = BASIN_RADIUS
    vectorized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def check_basin(self, x) -> None:
        """Raise PhaselessStateError if any state is inside the excluded ball."""
        if self.basin_radius is None:
            return
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x.reshape(-1, self.dim), axis=1)
        if np.any(r < self.basin_radius):
            raise PhaselessStateError(
                f"state within {self.basin_radius:g} of the phaseless set "
                f"(min |x| = {r.min():.3e})"
            )

    def f_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f on (..., dim) arrays even if f itself is scalar-only."""
        if self.vectorized:
            return np.asarray(self.f(x), dtype=float)
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        flat_out = out.reshape(-1, self.dim)
        for k, xi in enumerate(x.reshape(-1, self.dim)):
            flat_out[k] = np.asarray(self.f(xi), dtype=float)
        return out


# --- built-in vector fields -------------------------------------------------

def _circular_f(alpha, beta, x):
    """z' = (alpha - beta |z|^2) z, |z|^2 = u u + v v, on the complex view
    z = u + i v of the (..., 2) block x, which the view needs contiguous."""
    x = np.ascontiguousarray(x, dtype=float)
    u, v = x[..., 0], x[..., 1]
    z = x.view(np.complex128)[..., 0]
    return ((alpha - beta * (u * u + v * v)) * z)[..., None].view(np.float64)


def _make_sl_jac(omega, c2):
    def jac(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        j = np.empty(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = 1.0 - 3.0 * u * u - v * v + 2.0 * c2 * u * v
        j[..., 0, 1] = -omega - 2.0 * u * v + c2 * (u * u + 3.0 * v * v)
        j[..., 1, 0] = omega - c2 * (3.0 * u * u + v * v) - 2.0 * u * v
        j[..., 1, 1] = 1.0 - 2.0 * c2 * u * v - (u * u + 3.0 * v * v)
        return j

    return jac


def _make_sl_phase(c2):
    def phase(x):
        # Angle corrected by the amplitude twist: theta = arg(z) - c2*log|z|.
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return wrap_phase(np.arctan2(x[..., 1], x[..., 0]) - c2 * np.log(r))

    return phase


def _make_sl_prc(c2):
    def prc(theta):
        theta = np.asarray(theta, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([-s - c2 * c, c - c2 * s], axis=-1)

    return prc


def _relaxation_f(mu, x):
    x = np.asarray(x, dtype=float)
    u, v = x[..., 0], x[..., 1]
    out = np.empty(x.shape)
    out[..., 0] = v
    out[..., 1] = mu * (1.0 - u * u) * v - u
    return out


# The built-in vector fields: name -> (f(*args, x), params -> args).  The
# circular args are alpha = 1 + i omega and beta = 1 + i c2; radial and
# spiral are the Stuart-Landau presets (omega, c2) = (1, 0) and (0, -1).  An
# arg may be a scalar or a (g,) array, which broadcasts over the node axis
# of a (..., g, dim) block: `network` evaluates g nodes of one field in one
# call that way, each element by the same arithmetic as a call per node.
# The args come first so that `partial` binds them by position, which calls
# faster than by keyword.
_FIELDS = {
    "radial": (_circular_f, lambda params: (1 + 1j, 1 + 0j)),
    "spiral": (_circular_f, lambda params: (1 + 0j, 1 - 1j)),
    "stuart_landau": (_circular_f, lambda params: (
        complex(1.0, params["omega"]), complex(1.0, params["c2"]))),
    "relaxation": (_relaxation_f, lambda params: (params["mu"],)),
}


def _field(name: str, params) -> Callable[[np.ndarray], np.ndarray]:
    """The built-in field `name` with the args of the mapping params
    bound."""
    f, bind = _FIELDS[name]
    return partial(f, *bind(params))


def _is_builtin(model: OscillatorModel) -> bool:
    """Whether model's field is its family's built-in field bound to the
    model's own params, as make_model builds it."""
    f, bind = _FIELDS.get(model.name, (None, None))
    if not (isinstance(model.f, partial) and model.f.func is f):
        return False
    try:
        return model.f.args == bind(model.params)
    except (KeyError, TypeError):      # params make_model never binds
        return False


def relaxation_model(mu: float = 1.0) -> OscillatorModel:
    """Planar relaxation oscillator x'' - mu*(1 - x^2)*x' + x = 0.

    Written as (x, y) with dx/dt = y.  Unlike the circular built-ins its
    cycle is not rotation-symmetric, so its linearized kernels carry a full
    harmonic spectrum; this is what lets subharmonic (2:1) entrainment act at
    second order in the forcing strength.  The origin is the only equilibrium
    and the phaseless point.  mu must be positive and finite (else
    ValueError).
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        j = np.empty(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = 0.0
        j[..., 0, 1] = 1.0
        j[..., 1, 0] = -2.0 * mu * u * v - 1.0
        j[..., 1, 1] = mu * (1.0 - u * u)
        return j

    return OscillatorModel(name="relaxation", dim=2,
                           f=_field("relaxation", {"mu": mu}),
                           jacobian=jacobian, params={"mu": mu})


def make_model(name: str, **params) -> OscillatorModel:
    """Construct a built-in model by name, or wrap a custom vector field.

    Built-ins: "stuart_landau" (requires finite ``omega`` and ``c2`` with
    ``omega - c2 > 0``; the cycle is the unit circle with angular frequency
    ``omega - c2``), its parameterless presets "radial" (omega = 1, c2 = 0)
    and "spiral" (omega = 0, c2 = -1), both with period 2*pi, and
    "relaxation" (optional ``mu``, see relaxation_model).  All three
    circular models share one field, evaluated in complex form (see the
    module docstring), and one Jacobian, phase and PRC formula; radial and
    spiral keep their names and empty params.  "custom" requires ``f`` and
    ``dim`` and accepts ``jacobian``, ``basin_radius``, ``vectorized``, plus
    arbitrary parameter entries.  A bad built-in parameter raises
    ValueError naming it.
    """
    if name in ("radial", "spiral", "stuart_landau"):
        names = ("omega", "c2") if name == "stuart_landau" else ()
        if set(params) != set(names):
            raise ValueError(f"{name} takes parameters {list(names)}, got "
                             f"{sorted(params)}")
        params = {p: float(params[p]) for p in names}
        for p in names:
            if not math.isfinite(params[p]):
                raise ValueError(f"{name} {p} must be finite, got "
                                 f"{params[p]!r}")
        f = _field(name, params)
        omega, c2 = (arg.imag for arg in f.args)
        if omega - c2 <= 0.0:
            raise ValueError(f"{name} needs omega - c2 > 0 for a forward-"
                             f"rotating cycle, got {omega - c2:g}")
        return OscillatorModel(name=name, dim=2, f=f,
                               jacobian=_make_sl_jac(omega, c2),
                               analytic_phase=_make_sl_phase(c2),
                               analytic_prc=_make_sl_prc(c2), params=params)
    if name == "relaxation":
        extra = set(params) - {"mu"}
        if extra:
            raise ValueError(f"unknown relaxation parameters {sorted(extra)}")
        return relaxation_model(float(params.get("mu", 1.0)))
    if name == "custom":
        if "f" not in params or "dim" not in params:
            raise ValueError("custom model requires 'f' and 'dim'")
        f = params.pop("f")
        dim = int(params.pop("dim"))
        jacobian = params.pop("jacobian", None)
        basin_radius = params.pop("basin_radius", None)
        vectorized = bool(params.pop("vectorized", False))
        return OscillatorModel(
            name="custom",
            dim=dim,
            f=f,
            jacobian=jacobian,
            params=params,
            basin_radius=basin_radius,
            vectorized=vectorized,
        )
    raise ValueError(f"unknown model name {name!r}")


# --- forcing ----------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """Additive forcing term p(x, t) with amplitude bookkeeping.

    ``period`` declares the forcing period when the term is time-periodic
    (None for aperiodic forcing); it is spot-checked at construction on
    states of dimension ``dim``, the state dimension of the forced model.
    ``amplitude`` is the eps multiplying p in the forced equation
    dx/dt = f(x) + eps * p(x, t).
    """

    p: Callable[[np.ndarray, float], np.ndarray]
    period: Optional[float] = None
    amplitude: float = 0.0
    dim: int = 2

    def __post_init__(self):
        if self.period is not None:
            if self.period <= 0.0:
                raise ValueError("perturbation period must be positive")
            rng = np.random.default_rng(1234)
            for _ in range(4):
                x = rng.normal(size=self.dim) * 1.5
                t = float(rng.uniform(0.0, 7.0))
                a = np.asarray(self.p(x, t), dtype=float)
                b = np.asarray(self.p(x, t + self.period), dtype=float)
                if not np.allclose(a, b, rtol=1e-9, atol=1e-9):
                    raise ValueError(
                        "perturbation is not periodic with the declared period"
                    )


def sinusoidal_forcing(omega: float = 1.0, amplitude: float = 0.0,
                       component: int = 0, dim: int = 2) -> Perturbation:
    """p(x, t) = sin(omega*t) * e_component, the standard test forcing.

    An omega that is not finite and positive, or a component that is not
    an integer in [0, dim), is a ValueError."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if not (isinstance(component, (int, np.integer)) and 0 <= component < dim):
        raise ValueError(f"component must be an integer in [0, {dim}), got "
                         f"{component!r}")

    def p(x, t):
        out = np.zeros(dim)
        out[component] = math.sin(omega * t)
        return out

    return Perturbation(p=p, period=TWO_PI / omega, amplitude=amplitude,
                        dim=dim)
