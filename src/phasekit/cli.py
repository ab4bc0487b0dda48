"""Command line front end: each pipeline stage as a subcommand.

    phasekit <command> --config run.json [--out DIR] [--seed N]
                       [--format csv|json]

Commands: find-cycle, isochrons, prc, reduce, simulate, sweep, fit-scaling.
Configs are JSON objects (schemas below, unknown keys rejected); every run
directory receives the data files plus a manifest.json that reproduces the
config verbatim.  Exit codes: 0 success, 1 a computation failed (shooting
diverged, no locking transition inside the bracket, ...), 2 bad config.
Identical configs and seed produce byte-identical tabular output.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .models import TWO_PI, make_model, sinusoidal_forcing
from ._parallel import pmap
from .cycles import _default_guess, find_limit_cycle
from .phase import compute_isochron, phase_sensitivity
from .reduction import average_periodic
from .network import (
    SUBHARMONIC_KAPPA,
    SUBHARMONIC_WEIGHTS,
    NetworkSpec,
    compare_full_vs_reduced,
    sl_prescribed_pair,
    subharmonic_bracket,
    subharmonic_pair,
    subharmonic_strobe,
)
from .diagnostics import critical_coupling, scaling_fit
from .output import (
    ConfigError,
    check_keys,
    get_typed,
    load_config,
    write_json_atomic,
    write_manifest,
    write_table,
)

__all__ = ["main"]

# Integration tolerance for threshold sweeps; calibrated alongside the
# default couplings, tightening it does not move eps_c at the reported width.
SWEEP_TOL = (1e-6, 1e-8)


def _num(node, key, default=None, context=""):
    value = get_typed(node, key, (int, float), default=default, context=context)
    return None if value is None else float(value)


def _num_list(node, key, default=None, context=""):
    value = node.get(key, default)
    if value is default and key not in node:
        return default
    label = (context + "." if context else "") + key
    if not isinstance(value, list) or not value or \
            any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
        raise ConfigError(f"config key {label} must be a list of numbers",
                          field=label)
    return [float(v) for v in value]


def _build_model(node, context="model"):
    check_keys(node, {"name", "params"}, {"name"}, context)
    name = get_typed(node, "name", (str,), context=context)
    params = node.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"config key {context}.params must be an object",
                          field=context + ".params")
    try:
        return make_model(name, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=context) from exc


def _cycle_for(model, node):
    grid_size = get_typed(node, "grid_size", (int,), default=256)
    if grid_size <= 0 or grid_size % 2:
        raise ConfigError("config key grid_size must be a positive even integer",
                          field="grid_size")
    guess = _num_list(node, "guess", default=None)
    if guess is None:
        guess = _default_guess(model)
    elif len(guess) != model.dim:
        raise ConfigError(f"guess must have {model.dim} entries", field="guess")
    tol = _num(node, "shooting_tol", default=1e-10)
    if not tol > 0.0:
        raise ConfigError("config key shooting_tol must be positive",
                          field="shooting_tol")
    return find_limit_cycle(model, guess, tol=tol, grid_size=grid_size)


def _model_summary(model):
    return {"name": model.name, "params": dict(model.params)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_find_cycle(config, args):
    """Config: model, optional guess, grid_size, shooting_tol."""
    check_keys(config, {"model", "guess", "grid_size", "shooting_tol"},
               {"model"}, "")
    model = _build_model(config["model"])
    cycle = _cycle_for(model, config)
    columns = ["theta"] + [f"x{i}" for i in range(model.dim)]
    rows = [[float(cycle.grid[k])] + [float(v) for v in cycle.points[k]]
            for k in range(len(cycle.grid))]
    write_table(args.out, "cycle", columns, rows, args.fmt)
    write_json_atomic(os.path.join(args.out, "summary.json"), {
        "model": _model_summary(model),
        "period": cycle.period,
        "omega0": cycle.omega0,
        "floquet_exponent": cycle.floquet,
        "grid_size": len(cycle.grid),
        "anchor": cycle.anchor,
    })


def cmd_isochrons(config, args):
    """Config: model, thetas, radial_range, n_points, plus cycle options."""
    check_keys(config, {"model", "thetas", "radial_range", "n_points",
                        "guess", "grid_size", "shooting_tol"}, {"model"}, "")
    model = _build_model(config["model"])
    thetas = _num_list(config, "thetas",
                       default=[0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    radial_range = _num_list(config, "radial_range", default=[0.3, 2.0])
    if len(radial_range) != 2 or radial_range[0] >= radial_range[1]:
        raise ConfigError("radial_range must be [lo, hi] with lo < hi",
                          field="radial_range")
    n_points = get_typed(config, "n_points", (int,), default=100)
    if n_points < 1:
        raise ConfigError("n_points must be at least 1", field="n_points")
    cycle = _cycle_for(model, config)
    sens = phase_sensitivity(model, cycle)
    rows = []
    residuals = {}
    for theta in thetas:
        iso = compute_isochron(model, cycle, theta, tuple(radial_range),
                               n_points=n_points, sens=sens)
        residuals[repr(theta)] = iso.phase_residual
        for pt in iso.points:
            rows.append([theta, float(np.linalg.norm(pt))] +
                        [float(v) for v in pt])
    columns = ["theta", "radius"] + [f"x{i}" for i in range(model.dim)]
    write_table(args.out, "isochrons", columns, rows, args.fmt)
    write_json_atomic(os.path.join(args.out, "summary.json"), {
        "model": _model_summary(model),
        "omega0": cycle.omega0,
        "thetas": thetas,
        "n_points": n_points,
        "radial_range": radial_range,
        "phase_residuals": residuals,
    })


def cmd_prc(config, args):
    """Config: model, method, plus cycle options."""
    check_keys(config, {"model", "method", "guess", "grid_size",
                        "shooting_tol"}, {"model"}, "")
    model = _build_model(config["model"])
    method = get_typed(config, "method", (str,), default="adjoint")
    if method not in ("adjoint", "finite_difference"):
        raise ConfigError(f"unknown prc method: {method}", field="method")
    cycle = _cycle_for(model, config)
    sens = phase_sensitivity(model, cycle, method=method)
    residual = float(np.max(np.abs(
        np.einsum("kd,kd->k", sens.values, model.f_batch(cycle.points))
        - cycle.omega0)))
    columns = ["theta"] + [f"z{i}" for i in range(model.dim)]
    rows = [[float(sens.grid[k])] + [float(v) for v in sens.values[k]]
            for k in range(len(sens.grid))]
    write_table(args.out, "prc", columns, rows, args.fmt)
    write_json_atomic(os.path.join(args.out, "summary.json"), {
        "model": _model_summary(model),
        "period": cycle.period,
        "omega0": cycle.omega0,
        "method": method,
        "normalization_residual": residual,
    })


def cmd_reduce(config, args):
    """Config: model, forcing{omega, amplitude, component}, cycle options."""
    check_keys(config, {"model", "forcing", "guess", "grid_size",
                        "shooting_tol"}, {"model"}, "")
    model = _build_model(config["model"])
    forcing = config.get("forcing", {})
    check_keys(forcing, {"omega", "amplitude", "component"}, (), "forcing")
    omega_force = _num(forcing, "omega", default=1.0, context="forcing")
    amplitude = _num(forcing, "amplitude", default=1.0, context="forcing")
    component = get_typed(forcing, "component", (int,), default=0,
                          context="forcing")
    if omega_force <= 0.0:
        raise ConfigError("forcing.omega must be positive",
                          field="forcing.omega")
    if not 0 <= component < model.dim:
        raise ConfigError("forcing.component out of range",
                          field="forcing.component")
    cycle = _cycle_for(model, config)
    sens = phase_sensitivity(model, cycle)
    pert = sinusoidal_forcing(omega=omega_force, amplitude=amplitude,
                              component=component, dim=model.dim)
    coupling = average_periodic(sens, cycle, pert, omega_force)
    rows = [[float(coupling.grid[k]), float(coupling.values[k])]
            for k in range(len(coupling.grid))]
    write_table(args.out, "coupling", columns=["psi", "gamma"], rows=rows,
                fmt=args.fmt)
    write_json_atomic(os.path.join(args.out, "summary.json"), {
        "model": _model_summary(model),
        "omega0": cycle.omega0,
        "forcing": {"omega": omega_force, "amplitude": amplitude,
                    "component": component},
        "provenance": coupling.provenance,
        "grid_size": len(coupling.grid),
    })


def _build_network(node):
    if "pair" in node:
        pair = get_typed(node, "pair", (str,), context="network")
        if pair == "prescribed":
            check_keys(node, {"pair", "d_omega", "epsilon", "omega_mean",
                              "c2", "kappa"}, {"epsilon"}, "network")
            return sl_prescribed_pair(
                d_omega=_num(node, "d_omega", 0.0, "network"),
                epsilon=_num(node, "epsilon", context="network"),
                omega_mean=_num(node, "omega_mean", 2.0, "network"),
                c2=_num(node, "c2", 1.0, "network"),
                kappa=_num(node, "kappa", 1.0, "network"))
        if pair == "subharmonic":
            check_keys(node, {"pair", "d_omega", "epsilon", "mu", "c2",
                              "kappa"}, {"epsilon"}, "network")
            return subharmonic_pair(
                d_omega=_num(node, "d_omega", 0.0, "network"),
                epsilon=_num(node, "epsilon", context="network"),
                mu=_num(node, "mu", 1.0, "network"),
                c2=_num(node, "c2", 1.0, "network"),
                kappa=_num(node, "kappa", SUBHARMONIC_KAPPA, "network"))
        raise ConfigError(f"unknown pair: {pair}", field="network.pair")
    check_keys(node, {"models", "epsilon", "a", "b", "c", "nu1", "nu2",
                      "coupling"}, {"models", "epsilon", "a"}, "network")
    raw_models = node["models"]
    if not isinstance(raw_models, list) or not raw_models:
        raise ConfigError("network.models must be a nonempty list",
                          field="network.models")
    models = [_build_model(m, f"network.models[{i}]")
              for i, m in enumerate(raw_models)]
    coupling = get_typed(node, "coupling", (str,), default="direct",
                         context="network")

    def matrix(key):
        if key not in node or node[key] is None:
            return None
        try:
            arr = np.asarray(node[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"network.{key} must be a numeric matrix",
                              field=f"network.{key}") from exc
        return arr

    return NetworkSpec(
        models=models,
        epsilon=_num(node, "epsilon", context="network"),
        a=matrix("a"), b=matrix("b"), c=matrix("c"),
        nu1=_num(node, "nu1", None, "network"),
        nu2=_num(node, "nu2", None, "network"),
        coupling=coupling)


def cmd_simulate(config, args):
    """Config: network, horizon_mult, n_samples, theta0 (list or "random")."""
    check_keys(config, {"network", "horizon_mult", "n_samples", "theta0"},
               {"network"}, "")
    if not isinstance(config["network"], dict):
        raise ConfigError("network must be an object", field="network")
    try:
        spec = _build_network(config["network"])
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), field="network") from exc
    horizon_mult = _num(config, "horizon_mult", default=1.0)
    if horizon_mult <= 0.0:
        raise ConfigError("horizon_mult must be positive", field="horizon_mult")
    n_samples = get_typed(config, "n_samples", (int,), default=200)
    if n_samples < 2:
        raise ConfigError("n_samples must be at least 2", field="n_samples")
    theta0_cfg = config.get("theta0")
    if theta0_cfg is None:
        theta0 = None
    elif theta0_cfg == "random":
        rng = np.random.default_rng(args.seed)
        theta0 = rng.uniform(0.0, TWO_PI, spec.n_nodes)
    else:
        theta0 = np.asarray(_num_list(config, "theta0", context=""), dtype=float)
        if len(theta0) != spec.n_nodes:
            raise ConfigError(
                f"theta0 must have {spec.n_nodes} entries or be \"random\"",
                field="theta0")
    report = compare_full_vs_reduced(spec, horizon_mult=horizon_mult,
                                     theta0=theta0, n_samples=n_samples)
    n = spec.n_nodes
    columns = (["t"] + [f"theta_full_{i}" for i in range(n)]
               + [f"theta_reduced_{i}" for i in range(n)])
    rows = [[float(report.times[k])]
            + [float(v) for v in report.theta_full[k]]
            + [float(v) for v in report.theta_reduced[k]]
            for k in range(len(report.times))]
    write_table(args.out, "trajectory", columns, rows, args.fmt)
    write_json_atomic(os.path.join(args.out, "summary.json"), {
        "n_nodes": n,
        "epsilon": spec.epsilon,
        "horizon": float(report.times[-1]),
        "max_error": report.max_error,
        "rms_error": report.rms_error,
        "full_drift": report.full_drift,
        "reduced_drift": report.reduced_drift,
        "prescribed_sensitivity": report.prescribed,
    })


_SWEEP_KEYS = {"pair", "d_omega", "bracket", "rel_width", "kappa", "mu",
               "c2", "t_sim", "threshold"}


def _threshold_config(config):
    pair = get_typed(config, "pair", (str,), default="subharmonic")
    if pair not in ("subharmonic", "prescribed"):
        raise ConfigError(f"unknown pair: {pair}", field="pair")
    bracket = _num_list(config, "bracket", default=None)
    if bracket is not None and (len(bracket) != 2
                                or not 0 < bracket[0] < bracket[1]):
        raise ConfigError("bracket must be [lo, hi] with 0 < lo < hi",
                          field="bracket")
    if pair == "prescribed" and bracket is None:
        raise ConfigError("pair \"prescribed\" needs an explicit bracket",
                          field="bracket")
    rel_width = _num(config, "rel_width", 0.05)
    t_sim = _num(config, "t_sim", None)
    threshold = _num(config, "threshold", None)
    for key, value in (("rel_width", rel_width), ("t_sim", t_sim),
                       ("threshold", threshold)):
        if value is not None and value <= 0.0:
            raise ConfigError(f"{key} must be positive", field=key)
    return {
        "pair": pair,
        "bracket": bracket,
        "rel_width": rel_width,
        "kappa": _num(config, "kappa",
                      SUBHARMONIC_KAPPA if pair == "subharmonic" else 1.0),
        "mu": _num(config, "mu", 1.0),
        "c2": _num(config, "c2", 1.0),
        "t_sim": t_sim,
        "threshold": threshold,
    }


def _run_threshold(d_omega, tc):
    """Bisect the locking threshold at one detuning; returns the result."""
    subharmonic = tc["pair"] == "subharmonic"
    bracket = tc["bracket"] or subharmonic_bracket(d_omega)
    try:
        if subharmonic:
            spec = subharmonic_pair(d_omega, bracket[0], mu=tc["mu"],
                                    c2=tc["c2"], kappa=tc["kappa"])
        else:
            spec = sl_prescribed_pair(d_omega, bracket[0], kappa=tc["kappa"],
                                      c2=tc["c2"])
    except ValueError as exc:
        field = "mu" if subharmonic else "c2"
        raise ConfigError(str(exc), field=field) from exc
    t_sim = tc["t_sim"]
    if subharmonic:
        weights = SUBHARMONIC_WEIGHTS
        strobe = subharmonic_strobe(spec)
        if t_sim is None:
            # slow detunings need a proportionally longer verdict window
            t_sim = max(1500.0, 25.0 / max(d_omega, 1e-12))
    else:
        weights = (-1.0, 1.0)
        strobe = None
    return critical_coupling(spec, bracket[0], bracket[1],
                             rel_width=tc["rel_width"], t_sim=t_sim,
                             weights=weights, strobe_period=strobe,
                             tol=SWEEP_TOL, threshold=tc["threshold"])


def _threshold_rows(d_omega, result):
    rows = []
    for eps in sorted(result.reports):
        rep = result.reports[eps]
        rows.append([d_omega, eps, rep.S, rep.locked, rep.psi_star])
    return rows


_SWEEP_COLUMNS = ["d_omega", "epsilon", "S", "locked", "psi_star"]


def _run_sweep(d_list, tc):
    """Thresholds for each detuning, in workers; (results dict, csv rows)."""
    results = pmap(lambda d: _run_threshold(d, tc), d_list)
    rows = []
    for d, res in zip(d_list, results):
        rows.extend(_threshold_rows(d, res))
    rows.sort(key=lambda r: (r[0], r[1]))
    return dict(zip(d_list, results)), rows


def cmd_sweep(config, args):
    """Config: d_omega (number or list), pair options, bracket overrides."""
    check_keys(config, _SWEEP_KEYS, {"d_omega"}, "")
    raw = config["d_omega"]
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        d_list = [float(raw)]
    else:
        d_list = _num_list(config, "d_omega")
    if any(d <= 0 for d in d_list):
        raise ConfigError("d_omega values must be positive", field="d_omega")
    tc = _threshold_config(config)
    results, rows = _run_sweep(d_list, tc)
    write_table(args.out, "results", _SWEEP_COLUMNS, rows, args.fmt)
    summary = {
        "eps_c": {repr(d): results[d].eps_c for d in d_list},
        "bracket": {repr(d): list(results[d].bracket) for d in d_list},
        "n_runs": {repr(d): results[d].n_runs for d in d_list},
        "exponent": None,
        "prefactor": None,
        "r_squared": None,
    }
    if len(d_list) >= 2:
        fit = scaling_fit(d_list, [results[d].eps_c for d in d_list])
        summary["exponent"] = fit.exponent
        summary["prefactor"] = fit.prefactor
        summary["r_squared"] = fit.r_squared
    write_json_atomic(os.path.join(args.out, "summary.json"), summary)


def cmd_fit_scaling(config, args):
    """Config: d_omega_list (default four octaves), subharmonic pair options."""
    if config.get("pair") == "prescribed":
        raise ConfigError("fit-scaling needs the subharmonic pair's automatic "
                          "bracket; pair \"prescribed\" has none", field="pair")
    check_keys(config, (_SWEEP_KEYS - {"d_omega", "bracket"})
               | {"d_omega_list"}, (), "")
    d_list = _num_list(config, "d_omega_list",
                       default=[0.01, 0.02, 0.04, 0.08])
    if len(d_list) < 2:
        raise ConfigError("d_omega_list needs at least two detunings",
                          field="d_omega_list")
    if any(d <= 0 for d in d_list):
        raise ConfigError("d_omega_list values must be positive",
                          field="d_omega_list")
    tc = _threshold_config(config)
    results, rows = _run_sweep(d_list, tc)
    eps_c = [results[d].eps_c for d in d_list]
    fit = scaling_fit(d_list, eps_c)
    write_table(args.out, "results", _SWEEP_COLUMNS, rows, args.fmt)
    write_json_atomic(os.path.join(args.out, "scaling.json"), {
        "d_omega": list(d_list),
        "eps_c": {repr(d): e for d, e in zip(d_list, eps_c)},
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "r_squared": fit.r_squared,
    })


HANDLERS = {
    "find-cycle": cmd_find_cycle,
    "isochrons": cmd_isochrons,
    "prc": cmd_prc,
    "reduce": cmd_reduce,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "fit-scaling": cmd_fit_scaling,
}

_HELP = {
    "find-cycle": "locate a limit cycle and write its samples and period",
    "isochrons": "sample level sets of the asymptotic phase",
    "prc": "compute the phase sensitivity curve along the cycle",
    "reduce": "average a forced model into a slow-phase coupling function",
    "simulate": "run a network full-model vs phase-model comparison",
    "sweep": "bisect the phase-locking threshold over detunings",
    "fit-scaling": "fit the threshold-vs-detuning power law",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasekit",
        description="phase reduction pipelines with file outputs")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name in HANDLERS:
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", required=True,
                        help="path to the JSON run config")
        sp.add_argument("--out", default="out",
                        help="output directory (default: out)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed, used only for randomized initial "
                             "conditions")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="tabular output format")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        HANDLERS[args.command](config, args)
        write_manifest(args.out, args.command, config, args.seed, args.fmt)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "field": exc.field,
                          "message": str(exc)}, sort_keys=True))
        return 2
    except (RuntimeError, ValueError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": "computation",
                          "type": type(exc).__name__,
                          "message": str(exc)}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
