"""Planar limit-cycle oscillator models and forcing terms.

Built-in models share the same skeleton: an exponentially stable limit cycle
on the unit circle with Floquet exponent -2, and an excluded neighborhood of
the origin where no asymptotic phase exists.  Each built-in carries closed-form
oracles (asymptotic phase, phase response curve) used by the test suite; the
numerical machinery never looks at them.

Vector fields broadcast: ``f(x)`` accepts ``x`` of shape ``(..., dim)`` and
returns the same shape.  Custom models may be scalar-only; set
``vectorized=False`` and the toolkit falls back to looping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        Identifier ("radial", "spiral", "stuart_landau", or "custom").
    dim : int
        State dimension.
    f : callable
        Vector field, ``f(x) -> dx/dt``.
    jacobian : callable or None
        ``jacobian(x) -> (..., dim, dim)`` array; used by the adjoint and
        the Floquet exponent.  When absent, finite differences are used.
    analytic_phase : callable or None
        Closed-form asymptotic phase ``x -> theta in [0, 2*pi)``; oracle only.
    analytic_prc : callable or None
        Closed-form phase response curve ``theta -> Z`` (gradient of the
        asymptotic phase on the cycle); oracle only.
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

def _radial_f(x):
    x = np.asarray(x, dtype=float)
    u, v = x[..., 0], x[..., 1]
    r2 = u * u + v * v
    out = np.empty(x.shape)
    out[..., 0] = u - v - u * r2
    out[..., 1] = u + v - v * r2
    return out


def _radial_jac(x):
    x = np.asarray(x, dtype=float)
    u, v = x[..., 0], x[..., 1]
    j = np.empty(x.shape[:-1] + (2, 2))
    j[..., 0, 0] = 1.0 - 3.0 * u * u - v * v
    j[..., 0, 1] = -1.0 - 2.0 * u * v
    j[..., 1, 0] = 1.0 - 2.0 * u * v
    j[..., 1, 1] = 1.0 - u * u - 3.0 * v * v
    return j


def _radial_phase(x):
    x = np.asarray(x, dtype=float)
    return wrap_phase(np.arctan2(x[..., 1], x[..., 0]))


def _radial_prc(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([-np.sin(theta), np.cos(theta)], axis=-1)


def _spiral_f(x):
    x = np.asarray(x, dtype=float)
    u, v = x[..., 0], x[..., 1]
    r2 = u * u + v * v
    out = np.empty(x.shape)
    out[..., 0] = u - (u + v) * r2
    out[..., 1] = v + (u - v) * r2
    return out


def _spiral_jac(x):
    x = np.asarray(x, dtype=float)
    u, v = x[..., 0], x[..., 1]
    j = np.empty(x.shape[:-1] + (2, 2))
    j[..., 0, 0] = 1.0 - 3.0 * u * u - v * v - 2.0 * u * v
    j[..., 0, 1] = -(u * u + 3.0 * v * v + 2.0 * u * v)
    j[..., 1, 0] = 3.0 * u * u + v * v - 2.0 * u * v
    j[..., 1, 1] = 1.0 - u * u - 3.0 * v * v + 2.0 * u * v
    return j


def _spiral_phase(x):
    # Isochrons are logarithmic spirals: phase = polar angle + log(radius).
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    return wrap_phase(np.arctan2(x[..., 1], x[..., 0]) + np.log(r))


def _spiral_prc(theta):
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c - s, c + s], axis=-1)


def _make_sl_f(omega, c2):
    def f(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        r2 = u * u + v * v
        out = np.empty(x.shape)
        out[..., 0] = u - omega * v - r2 * (u - c2 * v)
        out[..., 1] = omega * u + v - r2 * (c2 * u + v)
        return out

    return f


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


def relaxation_model(mu: float = 1.0) -> OscillatorModel:
    """Planar relaxation oscillator x'' - mu*(1 - x^2)*x' + x = 0.

    Written as (x, y) with dx/dt = y.  Unlike the circular built-ins its
    cycle is not rotation-symmetric, so its linearized kernels carry a full
    harmonic spectrum; this is what lets subharmonic (2:1) entrainment act at
    second order in the forcing strength.  The origin is the only equilibrium
    and the phaseless point.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")

    def f(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        out = np.empty(x.shape)
        out[..., 0] = v
        out[..., 1] = mu * (1.0 - u * u) * v - u
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        j = np.empty(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = 0.0
        j[..., 0, 1] = 1.0
        j[..., 1, 0] = -2.0 * mu * u * v - 1.0
        j[..., 1, 1] = mu * (1.0 - u * u)
        return j

    return OscillatorModel(name="relaxation", dim=2, f=f, jacobian=jacobian,
                           params={"mu": mu}, vectorized=True)


def make_model(name: str, **params) -> OscillatorModel:
    """Construct a built-in model by name, or wrap a custom vector field.

    Built-ins: "radial" and "spiral" (parameterless, unit-circle cycles with
    period 2*pi), "stuart_landau" (requires ``omega`` and ``c2``; the cycle
    is the unit circle with angular frequency ``omega - c2``), and
    "relaxation" (optional ``mu``, see relaxation_model).  "custom" requires
    ``f`` and ``dim`` and accepts ``jacobian``, ``basin_radius``,
    ``vectorized``, plus arbitrary parameter entries.
    """
    if name == "radial":
        if params:
            raise ValueError(f"radial model takes no parameters, got {sorted(params)}")
        return OscillatorModel(
            name="radial",
            dim=2,
            f=_radial_f,
            jacobian=_radial_jac,
            analytic_phase=_radial_phase,
            analytic_prc=_radial_prc,
        )
    if name == "spiral":
        if params:
            raise ValueError(f"spiral model takes no parameters, got {sorted(params)}")
        return OscillatorModel(
            name="spiral",
            dim=2,
            f=_spiral_f,
            jacobian=_spiral_jac,
            analytic_phase=_spiral_phase,
            analytic_prc=_spiral_prc,
        )
    if name == "relaxation":
        extra = set(params) - {"mu"}
        if extra:
            raise ValueError(f"unknown relaxation parameters {sorted(extra)}")
        return relaxation_model(float(params.get("mu", 1.0)))
    if name == "stuart_landau":
        missing = {"omega", "c2"} - set(params)
        if missing:
            raise ValueError(f"stuart_landau requires parameters {sorted(missing)}")
        extra = set(params) - {"omega", "c2"}
        if extra:
            raise ValueError(f"unknown stuart_landau parameters {sorted(extra)}")
        omega = float(params["omega"])
        c2 = float(params["c2"])
        if omega - c2 <= 0.0:
            raise ValueError(
                f"stuart_landau needs omega - c2 > 0 for a forward-rotating "
                f"cycle, got {omega - c2:g}"
            )
        return OscillatorModel(
            name="stuart_landau",
            dim=2,
            f=_make_sl_f(omega, c2),
            jacobian=_make_sl_jac(omega, c2),
            analytic_phase=_make_sl_phase(c2),
            analytic_prc=_make_sl_prc(c2),
            params={"omega": omega, "c2": c2},
        )
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
    """p(x, t) = sin(omega*t) * e_component, the standard test forcing."""

    def p(x, t):
        out = np.zeros(dim)
        out[component] = math.sin(omega * t)
        return out

    return Perturbation(p=p, period=TWO_PI / omega, amplitude=amplitude,
                        dim=dim)
