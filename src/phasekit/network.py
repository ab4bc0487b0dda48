"""Coupled oscillator networks and their first-order phase models.

A network couples N oscillators through pairwise terms,

    dx_i/dt = f_i(x_i) + eps * sum_j A_ij(t) * h(x_i, x_j),
    A_ij(t) = a_ij + b_ij cos(nu1 t) + c_ij cos(nu2 t),

and reduces to phases

    dtheta_i/dt = Omega_i + eps * sum_j abar_ij * qbar_ij(theta_j - theta_i),

where qbar_ij is the coupling term averaged around the cycle and abar_ij is
the long-time mean of A_ij.  Sensitivities are adjoint-computed once per
distinct node cycle unless explicitly prescribed; a prescribed curve is used
as given, which is exactly how first-order reduction failures are reproduced
on purpose.

A full run integrates the network as one system whose right-hand side
evaluates each built-in model family once per call.  There are two
families: circular (radial, spiral and Stuart-Landau, which share one
field) and relaxation.  The nodes of a family (models that `make_model`
built) form one (..., g, dim) block, and the args of its field (the
circular alpha and beta, relaxation mu) are bound as (g,) arrays along the
node axis.  A family of one node, and every custom model, is evaluated on
its own.  Each element is the same arithmetic as a call per node, so the
results do not depend on the grouping.

Independent work runs in forked worker processes (`_parallel.pmap`):
shooting the distinct node models of a spec, and in
`compare_full_vs_reduced` the phase-model build next to the full run.  A
map inside a worker runs serially there.  Each piece is the serial
computation, so the results do not depend on the worker count.

For planar oscillators read as complex numbers z = x + i y, the pairing
between a sensitivity Z and a coupling term h is Re(conj(Z) * h), which is
the plain real dot product of their (Re, Im) vectors; prescribed curves may
therefore be supplied either as complex-valued or as real-vector-valued
functions of phase.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .models import (TWO_PI, OscillatorModel, _is_builtin, make_model,
                     wrap_phase)
from ._parallel import pmap
from . import ode
from .ode import DEFAULT_TOL
from .cycles import LimitCycle, _default_guess, find_limit_cycle
from .phase import asymptotic_phase, phase_sensitivity
from .reduction import CouplingFunction, mean_value

__all__ = [
    "NetworkSpec",
    "PhaseModel",
    "NetworkTrajectory",
    "ComparisonReport",
    "COUPLING_NAMES",
    "build_phase_model",
    "simulate_ensemble",
    "simulate_full",
    "simulate_phase_model",
    "network_phases",
    "compare_full_vs_reduced",
    "sl_prescribed_pair",
    "subharmonic_pair",
    "subharmonic_strobe",
    "subharmonic_bracket",
    "SUBHARMONIC_KAPPA",
    "SUBHARMONIC_WEIGHTS",
]


def _first_component_squared(a, x):
    out = np.zeros_like(x)
    out[..., 0] = (x[..., 0] ** 2) @ a.T
    return out


# Each named coupling, defined once as the operator
# (A, X) -> sum_j A_ij h(x_i, x_j) on stacked states X of shape (..., N, dim).
_COUPLING_OPERATORS = {
    "direct": lambda a, x: a @ x,
    "diffusive": lambda a, x: a @ x - a.sum(axis=1)[:, None] * x,
    "first_component_squared": _first_component_squared,
}

_ONE_EDGE = np.array([[0.0, 1.0], [0.0, 0.0]])


def _pairwise(op):
    """The term h(x_i, x_j) of an operator: node 0 of the edge 0 <- 1.

    For finite states this is bit-exact, since 0 * x_i + 1 * x_j == x_j.
    """
    def h(xi, xj):
        return op(_ONE_EDGE, np.stack([xi, xj], axis=-2))[..., 0, :]
    return h


COUPLING_NAMES = {name: _pairwise(op) for name, op in _COUPLING_OPERATORS.items()}


def _pair_values(h, xi, xj):
    """h(x_i, x_j) as floats; h must broadcast over the leading axes."""
    hv = np.asarray(h(xi, xj), dtype=float)
    if hv.shape != xi.shape:
        raise ValueError(f"coupling term has shape {hv.shape}, expected "
                         f"{xi.shape}; h must broadcast over leading axes")
    return hv


def _operator(h):
    """The operator (A, X) -> sum_j A_ij h(x_i, x_j) of a pairwise term h.

    h sees x_i and x_j broadcast to (..., N, N, dim).  Pairs of zero weight
    contribute exactly 0, even where h is not finite (the diagonal, say).
    """
    def op(a, x):
        xi, xj = np.broadcast_arrays(x[..., :, None, :], x[..., None, :, :])
        hv = np.where(a[:, :, None] != 0.0, _pair_values(h, xi, xj), 0.0)
        return np.einsum("ij,...ijd->...id", a, hv)
    return op


@dataclass
class NetworkSpec:
    """Network layout: node models, coupling strength, adjacency, coupling term.

    a, b, c are (N, N) arrays; entry (i, j) weights the influence of node j on
    node i.  b and c modulate at frequencies nu1 and nu2; epsilon, the
    adjacencies and the frequencies must be finite.  coupling is a name from
    COUPLING_NAMES or a callable pairwise term h(x_i, x_j).  Every coupling
    acts as an operator (A, X) -> sum_j A_ij h(x_i, x_j) on stacked states X
    of shape (..., N, dim), so a callable h must broadcast over
    (..., N, N, dim) and return that shape; pairs of zero weight contribute
    exactly 0.  prescribed_sensitivity optionally replaces the adjoint curve
    per node: a list of callables (phase -> complex, or phase -> (dim,)
    vector), None entries meaning "use the adjoint".
    """

    models: Sequence[OscillatorModel]
    epsilon: float
    a: np.ndarray
    b: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    nu1: Optional[float] = None
    nu2: Optional[float] = None
    coupling: Union[str, Callable] = "direct"
    prescribed_sensitivity: Optional[Sequence[Optional[Callable]]] = None
    _cycles: Optional[list] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.models)
        if n == 0:
            raise ValueError("models must hold at least one node model")
        self.a = np.asarray(self.a, dtype=float)
        if self.a.shape != (n, n):
            raise ValueError(f"adjacency a must be ({n}, {n}), got {self.a.shape}")
        for name in ("b", "c"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != (n, n):
                    raise ValueError(f"adjacency {name} must be ({n}, {n})")
                setattr(self, name, arr)
        for name in ("epsilon", "a", "b", "c", "nu1", "nu2"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        for name in ("a", "b", "c"):
            arr = getattr(self, name)
            if arr is not None and np.any(np.abs(np.diag(arr)) > 0.0):
                raise ValueError(f"adjacency {name} must have zero diagonal")
        if self.b is not None and np.any(self.b != 0.0):
            if self.nu1 is None or self.nu1 <= 0.0:
                raise ValueError("nu1 must be positive when b is nonzero")
        if self.c is not None and np.any(self.c != 0.0):
            if self.nu2 is None or self.nu2 <= 0.0:
                raise ValueError("nu2 must be positive when c is nonzero")
        if isinstance(self.coupling, str) and self.coupling not in COUPLING_NAMES:
            raise ValueError(
                f"unknown coupling {self.coupling!r}; known: {sorted(COUPLING_NAMES)}")
        if self.prescribed_sensitivity is not None and \
                len(self.prescribed_sensitivity) != n:
            raise ValueError("prescribed_sensitivity must have one entry per node")

    @property
    def n_nodes(self) -> int:
        return len(self.models)

    def coupling_fn(self) -> Callable:
        """The pairwise term h(x_i, x_j)."""
        if callable(self.coupling):
            return self.coupling
        return COUPLING_NAMES[self.coupling]

    def coupling_operator(self) -> Callable:
        """(A, X) -> sum_j A_ij h(x_i, x_j) on stacked states (..., N, dim)."""
        if callable(self.coupling):
            return _operator(self.coupling)
        return _COUPLING_OPERATORS[self.coupling]

    def adjacency_at(self, t: float) -> np.ndarray:
        out = self.a.copy()
        if self.b is not None and self.nu1:
            out = out + self.b * np.cos(self.nu1 * t)
        if self.c is not None and self.nu2:
            out = out + self.c * np.cos(self.nu2 * t)
        return out

    def has_static_adjacency(self) -> bool:
        return (self.b is None or not np.any(self.b)) and \
               (self.c is None or not np.any(self.c))

    def cycles(self) -> list:
        """Limit cycle per node; the spec shoots each distinct model once,
        in workers, and keeps the cycles.  Equal built-in models share one
        cycle; custom models are told apart by identity."""
        if self._cycles is None:
            distinct = {}
            for model in self.models:
                distinct.setdefault(_model_key(model), model)
            shot = dict(zip(distinct, pmap(_shoot, distinct.values())))
            self._cycles = [shot[_model_key(m)] for m in self.models]
        return self._cycles


def _model_key(model: OscillatorModel):
    """Equal models that make_model built share a key; any other model is
    keyed by identity, whatever its name."""
    if _is_builtin(model):
        return (model.name, tuple(sorted(model.params.items())))
    return ("custom", id(model))


def _shoot(model: OscillatorModel) -> LimitCycle:
    """The limit cycle of a network node."""
    # edge averages inherit the cycle's radial error as an uncancelled
    # Fourier mode, so network cycles are held well below the 1e-12
    # budget of the vanishing-coupling checks
    return find_limit_cycle(model, _default_guess(model), tol=1e-12,
                            ivp_tol=(1e-12, 1e-14))


def _sensitivities(spec: NetworkSpec, cycles: list):
    """Sensitivity samples on the cycle grid per node, and whether any
    node's curve was prescribed.

    A prescribed curve wins; every other node reads the adjoint of its
    cycle, computed once per distinct cycle (nodes share a cycle object only
    when their models are equal).  A prescribed curve's complex samples
    become (Re, Im) rows; the samples must then have shape (M, dim) or
    (dim, M) on the M-point grid, else ValueError.
    """
    prescribed = spec.prescribed_sensitivity
    if prescribed is None:
        prescribed = [None] * spec.n_nodes
    adjoints, values = {}, []
    for model, cycle, curve in zip(spec.models, cycles, prescribed):
        if curve is None:
            if id(cycle) not in adjoints:
                adjoints[id(cycle)] = phase_sensitivity(model, cycle).values
            values.append(adjoints[id(cycle)])
            continue
        sample = np.asarray(curve(cycle.grid))
        if np.iscomplexobj(sample):
            sample = np.stack([sample.real, sample.imag], axis=-1)
        sample = np.asarray(sample, dtype=float)
        shape = cycle.points.shape
        if sample.shape != shape and sample.shape == shape[::-1]:
            sample = sample.T
        if sample.shape != shape:
            raise ValueError("prescribed sensitivity returned an unexpected shape")
        values.append(sample)
    return values, any(curve is not None for curve in prescribed)


@dataclass
class PhaseModel:
    """First-order phase reduction of a NetworkSpec."""

    n_nodes: int
    Omega: np.ndarray                 # natural frequencies per node
    epsilon: float
    edges: dict                       # (i, j) -> CouplingFunction qbar_ij
    a_eff: np.ndarray                 # adjacency reduced to constants
    prescribed: bool = False

    def max_coupling_scale(self) -> float:
        best = 0.0
        for (i, j), cf in self.edges.items():
            best = max(best, abs(self.a_eff[i, j]) * cf.max_abs)
        return best


_ADJACENCY_MEAN_TOL = 1e-6   # of each time-varying adjacency entry's mean


def build_phase_model(spec: NetworkSpec) -> PhaseModel:
    """Average the network into its phase model.

    Edge functions are computed as the circular correlation of the node
    sensitivity (`_sensitivities`) with the coupling term around the cycles:
    every node cycle is shot on the same uniform 256-point grid, so the
    phase shift is an index roll and the average is a plain circulant sum,
    exact for band-limited integrands.  Every entry with a_ij, b_ij or c_ij
    nonzero is an edge, keyed (i, j) in row-major order.  A modulated entry
    is reduced to its mean with `mean_value` to `_ADJACENCY_MEAN_TOL` =
    1e-6, once per distinct (a_ij, b_ij, c_ij).
    """
    cycles = spec.cycles()
    n = spec.n_nodes
    omega = np.array([cycle.omega0 for cycle in cycles])
    h = spec.coupling_fn()
    sens, prescribed = _sensitivities(spec, cycles)

    zero = np.zeros((n, n))
    b = zero if spec.b is None else spec.b
    c = zero if spec.c is None else spec.c
    a_eff = spec.a.copy()
    means = {}
    for i, j in np.argwhere((b != 0.0) | (c != 0.0)).tolist():
        entry = (spec.a[i, j], b[i, j], c[i, j])
        if entry not in means:
            means[entry] = mean_value(partial(_entry_signal, spec, *entry),
                                      t_max=6e7, tol=_ADJACENCY_MEAN_TOL,
                                      panel=2.0)
        a_eff[i, j] = means[entry]

    coupled = (spec.a != 0.0) | (b != 0.0) | (c != 0.0)
    edges = {(i, j): CouplingFunction(
                 grid=cycles[i].grid.copy(), provenance="periodic_average",
                 values=_edge_average(sens[i], cycles[i].points,
                                      cycles[j].points, h))
             for i, j in np.argwhere(coupled).tolist()}

    model = PhaseModel(n_nodes=n, Omega=omega, epsilon=spec.epsilon,
                       edges=edges, a_eff=a_eff, prescribed=prescribed)
    detuning = float(omega.max() - omega.min()) if n > 1 else 0.0
    scale = spec.epsilon * model.max_coupling_scale()
    if detuning > 10.0 * scale > 0.0:
        warnings.warn(
            f"node detuning {detuning:.3g} exceeds ten times the first-order "
            f"coupling scale {scale:.3g}; phase locking is out of reach at "
            "this order", stacklevel=2)
    return model


def _entry_signal(spec: NetworkSpec, a, b, c, t):
    """a + b cos(nu1 t) + c cos(nu2 t) at an array of times t; a zero
    modulation is left out, so its frequency may be unset."""
    out = np.full(t.shape, a)
    if b:
        out = out + b * np.cos(spec.nu1 * t)
    if c:
        out = out + c * np.cos(spec.nu2 * t)
    return out


def _edge_average(z_vals, pts_i, pts_j, h):
    """qbar(phi_k) = mean_s Z(s) . h(gamma_i(s), gamma_j(s + phi_k)).

    One call of h on the (M, M, dim) block of all M shifts, row k holding
    gamma_j rolled by -k.
    """
    m = len(z_vals)
    shifted = pts_j[(np.arange(m)[:, None] + np.arange(m)) % m]
    hv = _pair_values(h, np.broadcast_to(pts_i, shifted.shape), shifted)
    return np.mean(np.sum(z_vals * hv, axis=-1), axis=-1)


def _start_phases(theta0, n: int) -> np.ndarray:
    """theta0 as n finite node phases, zeros when None; else ValueError."""
    if theta0 is None:
        return np.zeros(n)
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (n,) or not np.all(np.isfinite(theta0)):
        raise ValueError(f"theta0 must be a list of {n} finite phases, got "
                         f"shape {theta0.shape}")
    return theta0


@dataclass
class NetworkTrajectory:
    times: np.ndarray
    states: np.ndarray            # (n_samples, N, dim) for full runs
    phases: Optional[np.ndarray] = None   # (n_samples, N) unwrapped


def simulate_ensemble(spec: NetworkSpec, epsilons, t_span, theta0=None,
                      t_eval=None, tol=(1e-9, 1e-11)) -> list:
    """Integrate one network at K coupling strengths at once.

    spec.epsilon is not read: member k runs at epsilons[k], a nonempty 1-d
    list of finite numbers (else ValueError).  The members are stacked into
    one (K, N, dim) state and handed to the solver as a single system
    (`_network_rhs`).  Each RHS call evaluates every built-in model family
    once, on the (K, g, dim) block of its g nodes; every other node once
    across the K axis; and the coupling operator once on the whole stack,
    scaled by a (K, 1, 1) epsilon.  All members start from the same state,
    the node cycles at phases theta0 (zeros unless given; else n_nodes
    finite numbers, checked before any cycle is shot), and are sampled at
    the same times.  Returns one NetworkTrajectory per epsilon, in order.

    The solver accepts a step when the RMS of the scaled error over all
    K*N*dim components is at most 1, which dilutes one member's error as K
    grows.  Both rtol and atol are therefore divided by sqrt(K).  Measured
    against the solo tolerances, the summed squared error of the whole
    stack is then at most N*dim, so each member's own sum is too, which is
    exactly the test a solo run applies.  Every member is at least as
    accurate as it would be alone, and K = 1 is the solo run.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or not eps.size or not np.all(np.isfinite(eps)):
        raise ValueError("epsilons must be a nonempty 1-d list of finite "
                         "numbers")
    k, n = len(eps), spec.n_nodes
    dims = [m.dim for m in spec.models]
    if len(set(dims)) != 1:
        raise ValueError("mixed state dimensions are not supported")
    dim = dims[0]
    theta0 = _start_phases(theta0, n)
    cycles = spec.cycles()
    x0 = np.stack([cycles[i].gamma_at(float(theta0[i])) for i in range(n)])
    shrink = np.sqrt(k)
    res = ode.solve_ivp(_network_rhs(spec, eps),
                        (float(t_span[0]), float(t_span[1])),
                        np.tile(x0.reshape(-1), k),
                        (tol[0] / shrink, tol[1] / shrink), t_eval=t_eval)
    states = res.y.T.reshape(-1, k, n, dim)
    return [NetworkTrajectory(times=res.t.copy(), states=states[:, j].copy())
            for j in range(k)]


def _node_fields(models) -> list:
    """(nodes, field) pairs that together evaluate every node's field.

    Nodes whose models are built-ins (`_is_builtin`, the rule `_model_key`
    keys by) with the same field share one call on their (..., g, dim)
    block: every circular node (radial, spiral, Stuart-Landau) one call,
    every relaxation node another.  Each arg of the field (alpha and beta,
    or mu) is bound as the (g,) array of the nodes' values, so each element
    is the same IEEE operation on the same operands as in a call per node.
    A field of one node, and every other model, keep a call of their own
    f_batch.
    """
    families = {}
    for i, model in enumerate(models):
        families.setdefault(model.f.func if _is_builtin(model) else i,
                            []).append(i)
    fields = []
    for nodes in families.values():
        first = models[nodes[0]]
        if len(nodes) == 1:
            fields.append((nodes[0], first.f_batch))
            continue
        args = zip(*(models[i].f.args for i in nodes))
        fields.append((np.array(nodes),
                       partial(first.f.func, *map(np.array, args))))
    return fields


def _network_rhs(spec: NetworkSpec, epsilons: np.ndarray) -> Callable:
    """The RHS of the K-member stack of spec's network, one member per
    entry of the 1-d array epsilons, on the flat (K * N * dim) state."""
    eps = epsilons[:, None, None]
    k, n, dim = len(eps), spec.n_nodes, spec.models[0].dim
    fields = _node_fields(spec.models)
    coupling = spec.coupling_operator()
    static = spec.has_static_adjacency()

    def rhs(t, y):
        x = y.reshape(k, n, dim)
        dx = np.empty_like(x)
        for nodes, f in fields:
            dx[:, nodes] = f(x[:, nodes])
        a_t = spec.a if static else spec.adjacency_at(t)
        dx += eps * coupling(a_t, x)
        return dx.reshape(-1)

    return rhs


def simulate_full(spec: NetworkSpec, t_span, theta0=None,
                  t_eval=None, tol=(1e-9, 1e-11)) -> NetworkTrajectory:
    """Integrate the coupled network at spec.epsilon.

    The nodes start on their cycles at phases theta0 (zeros unless given).
    This is the one-member ensemble of `simulate_ensemble`, whose sqrt(K)
    tolerance rule leaves tol unchanged at K = 1, so solo and stacked runs
    share one integration path.
    """
    return simulate_ensemble(spec, [spec.epsilon], t_span, theta0=theta0,
                             t_eval=t_eval, tol=tol)[0]


def simulate_phase_model(pm: PhaseModel, theta0, t_span,
                         t_eval=None) -> NetworkTrajectory:
    """Integrate the reduced phase equations at `DEFAULT_TOL`; phases
    returned unwrapped."""
    theta0 = np.asarray(theta0, dtype=float)
    res = ode.solve_ivp(_phase_rhs(pm), (float(t_span[0]), float(t_span[1])),
                        theta0, DEFAULT_TOL, t_eval=t_eval)
    return NetworkTrajectory(times=res.t.copy(), states=res.y.T[:, :, None],
                             phases=res.y.T.copy())


def _phase_rhs(pm: PhaseModel):
    """The phase equations' rhs, all edges' qbar_ij evaluated at once as the
    real parts of their stacked one-sided Fourier sums (as in
    PeriodicInterpolant) and summed per node by bincount."""
    i, j = np.array(list(pm.edges), dtype=int).reshape(-1, 2).T
    gain = pm.epsilon * pm.a_eff[i, j]
    rows = [cf._interp._weights[:, 0] for cf in pm.edges.values()]
    weights = np.array(rows) if rows else np.zeros((0, 1))
    k = np.arange(weights.shape[1])

    def rhs(t, th):
        psi = wrap_phase(th[j] - th[i])
        e = np.exp(1j * np.multiply.outer(psi, k))
        qbar = np.real(np.sum(e * weights, axis=1))
        return pm.Omega + np.bincount(i, weights=gain * qbar,
                                      minlength=pm.n_nodes)

    return rhs


def network_phases(spec: NetworkSpec, traj: NetworkTrajectory) -> np.ndarray:
    """Asymptotic phase of every node at every sample of a full trajectory,
    unwrapped along the samples.

    Uses the per-node closed-form phase map when the model carries one.
    The other nodes are settled numerically, in one `asymptotic_phase` call
    per distinct cycle (nodes share a cycle object only when their models
    are equal), over their states stacked node by node.
    """
    out = np.empty((len(traj.times), spec.n_nodes))
    numeric = {}
    for i, (model, cycle) in enumerate(zip(spec.models, spec.cycles())):
        if model.analytic_phase is not None:
            out[:, i] = model.analytic_phase(traj.states[:, i, :])
        else:
            numeric.setdefault(id(cycle), (model, cycle, []))[2].append(i)
    for model, cycle, nodes in numeric.values():
        states = traj.states[:, nodes, :].transpose(1, 0, 2)
        theta = asymptotic_phase(model, cycle,
                                 states.reshape(-1, states.shape[-1]))
        out[:, nodes] = theta.reshape(len(nodes), -1).T
    return np.unwrap(out, axis=0)


@dataclass
class ComparisonReport:
    times: np.ndarray
    theta_full: np.ndarray        # (n_samples, N) unwrapped
    theta_reduced: np.ndarray     # (n_samples, N) unwrapped
    max_error: float
    rms_error: float
    full_drift: np.ndarray        # per-node mean dtheta/dt over the run
    reduced_drift: np.ndarray
    prescribed: bool


def compare_full_vs_reduced(spec: NetworkSpec, horizon_mult: float = 1.0,
                            theta0=None, n_samples: int = 200) -> ComparisonReport:
    """Run the full network and its phase model side by side.

    The horizon is horizon_mult / epsilon (one averaging time by default;
    horizon_mult itself when epsilon is not positive), sampled at
    n_samples times.  horizon_mult must be positive, n_samples at least 2
    and theta0, when given, n_nodes finite numbers (else ValueError, before
    any cycle is shot).  The full run's phases are aligned to the reduced
    run's initial condition, and errors are circular distances per node and
    sample.

    The node cycles are shot first; then the phase-model build and the
    full run (`simulate_full` at its default tol) with its node phases run
    as two branches in worker processes, each branch serial inside its
    worker.  The build comes first, so its errors and warnings keep their
    serial order.
    """
    if not horizon_mult > 0.0:
        raise ValueError(f"horizon_mult must be positive, got {horizon_mult!r}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples!r}")
    theta0 = _start_phases(theta0, spec.n_nodes)
    eps = spec.epsilon
    horizon = horizon_mult / eps if eps > 0.0 else horizon_mult
    t_eval = np.linspace(0.0, horizon, n_samples)

    def full_phases():
        full = simulate_full(spec, (0.0, horizon), theta0=theta0,
                             t_eval=t_eval)
        return network_phases(spec, full)

    spec.cycles()   # shoot here, so both branches inherit the cycles by fork
    pm, th_full = pmap(lambda branch: branch(),
                       [lambda: build_phase_model(spec), full_phases])
    # Align branch: unwrapped full phases start at theta0 modulo 2*pi.
    th_full += np.round((theta0 - th_full[0]) / TWO_PI) * TWO_PI
    red = simulate_phase_model(pm, theta0, (0.0, horizon), t_eval=t_eval)
    th_red = red.phases
    diff = th_full - th_red
    diff = diff - np.round(diff / TWO_PI) * TWO_PI
    span = max(float(t_eval[-1] - t_eval[0]), 1e-30)
    report = ComparisonReport(
        times=t_eval,
        theta_full=th_full,
        theta_reduced=th_red,
        max_error=float(np.max(np.abs(diff))),
        rms_error=float(np.sqrt(np.mean(diff ** 2))),
        full_drift=(th_full[-1] - th_full[0]) / span,
        reduced_drift=(th_red[-1] - th_red[0]) / span,
        prescribed=pm.prescribed,
    )
    return report


def sl_prescribed_pair(d_omega: float, epsilon: float, omega_mean: float = 2.0,
                       c2: float = 1.0, kappa: float = 1.0) -> NetworkSpec:
    """Detuned 1:1 pair carrying the prescribed sensitivity i*exp(-i*theta).

    Direct coupling, cycle frequencies omega - c2 = 1 -/+ d_omega/2.  The
    prescribed curve has the opposite rotation sense to the coupling term, so
    its averaged coupling vanishes identically; a phase model built from this
    spec therefore predicts free drift at d_omega no matter how strongly the
    full pair actually locks.
    """
    m_slow = make_model("stuart_landau", omega=omega_mean - 0.5 * d_omega, c2=c2)
    m_fast = make_model("stuart_landau", omega=omega_mean + 0.5 * d_omega, c2=c2)
    a = np.array([[0.0, kappa], [kappa, 0.0]])

    def z_curve(th):
        return 1j * np.exp(-1j * np.asarray(th))

    return NetworkSpec(models=[m_slow, m_fast], epsilon=epsilon, a=a,
                       coupling="direct",
                       prescribed_sensitivity=[z_curve, z_curve])


# Coupling gain calibrated so the subharmonic pair's locking threshold at
# detuning 0.02 sits at 0.05 (measured 0.0495 with the shipped diagnostics).
SUBHARMONIC_KAPPA = 5.3
SUBHARMONIC_WEIGHTS = (-2.0, 1.0)


def subharmonic_pair(d_omega: float, epsilon: float, mu: float = 1.0,
                     c2: float = 1.0,
                     kappa: float = SUBHARMONIC_KAPPA) -> NetworkSpec:
    """Pair near a 2:1 resonance used by the locking-threshold sweeps.

    Node 0 is a relaxation oscillator (frequency about 0.94 at mu = 1); node
    1 rotates cleanly at twice that frequency plus d_omega and drives node 0
    directly with strength kappa (one way, so node 1 stays exactly
    periodic).  Every single coupling insertion beats at a fast combination
    frequency, so the first-order averaged force on the slow combination
    2*theta_0 - theta_1 vanishes; the combination is first driven at second
    order.  Locking capacity then grows like epsilon**2 and the threshold
    like the square root of the detuning.  The rotation-symmetric circular
    models cannot play node 0's role here: their perturbation series carries
    a parity selection rule that kills every odd-weight slow term, which is
    precisely the first-order-reduction failure this pair demonstrates.
    kappa is calibrated so the threshold at d_omega = 0.02 sits near 0.05.
    Track the slow combination with weights SUBHARMONIC_WEIGHTS.  Both node
    cycles are shot here, node 0 first for its frequency, and the spec
    keeps them.
    """
    node0 = make_model("relaxation", mu=mu)
    cycle0 = _shoot(node0)
    node1 = make_model("stuart_landau",
                       omega=2.0 * cycle0.omega0 + d_omega + c2, c2=c2)
    a = np.array([[0.0, kappa], [0.0, 0.0]])
    return NetworkSpec(models=[node0, node1], epsilon=epsilon, a=a,
                       coupling="direct", _cycles=[cycle0, _shoot(node1)])


def subharmonic_strobe(spec: NetworkSpec) -> float:
    """Sampling period for the 2:1 pair: two turns of the driving node.

    On the locked attractor the network state repeats exactly once per two
    driver rotations, so sampling at this period turns a locked run into a
    constant series.  Sampling at the bare relaxation period instead leaks
    the within-cycle wobble of the entrained orbit into the flatness measure.
    """
    return 2.0 * TWO_PI / spec.cycles()[1].omega0


def subharmonic_bracket(d_omega: float) -> tuple:
    """Coupling-strength bracket straddling the 2:1 locking threshold.

    Scaled off the calibrated threshold value 0.05 at detuning 0.02 with the
    square-root law; the upper end stays inside the locking window for the
    default kappa across detunings 0.01 to 0.08.
    """
    pred = 0.05 * np.sqrt(d_omega / 0.02)
    return 0.55 * pred, 1.45 * pred
