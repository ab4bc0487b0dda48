"""Benchmark workloads: inputs made from a seed, and checks on the outputs.

Each workload is scaled from one of phasekit's acceptance checks.  Inputs are
written to the job's work directory; phasekit sees only those files.  The
checks read the job's output files with numpy alone, never through phasekit,
so an error in phasekit cannot hide an error in its own oracle.
"""

import csv
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# lock-sweep: reference detuning (acceptance check 7) and the seeded range.
D_REF = 0.02
D_RANGE = (0.016, 0.024)
EPS_REF = 0.05             # calibrated threshold at D_REF
LAW_BAND = (0.7, 1.3)      # check 7's band, rescaled by the square-root law
REL_WIDTH = 0.05           # CLI default final relative bracket width

# phase-geometry: acceptance checks 1-3 on the spiral model.
N_STATES = 20000
RADII = (0.3, 2.0)
ISO_THETAS = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
ISO_POINTS = 125
PRC_TOL = 1e-4
ISOCHRON_TOL = 1e-4
PHASE_TOL = 1e-5
COUPLING_TOL = 1e-6

# network-reduce: summary values against the recorded reference.  The
# tolerance admits a reordering of the arithmetic (the ROADMAP asks tables to
# agree to 1e-12 after RHS rewrites) but not a change in what is computed:
# different seeds differ in the first digit.
NETWORK_NODES = 8
ERROR_RTOL = 1e-6


def _circ(a):
    return np.mod(np.asarray(a) + np.pi, 2 * np.pi) - np.pi


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference():
    return _read_json(REFERENCE)


# -- inputs --------------------------------------------------------------------

def lock_sweep_d(seed):
    """Seed 0 is the acceptance reference; other seeds draw d uniformly."""
    if seed == 0:
        return D_REF
    return round(float(np.random.default_rng(seed).uniform(*D_RANGE)), 6)


def network_config():
    """8-node ring of alternating relaxation and Stuart-Landau nodes.

    Diffusive coupling to both neighbours; forward edges are modulated at
    sqrt(2) and backward edges at 1, so the adjacency is quasi-periodic.
    """
    n = NETWORK_NODES
    models = []
    for i in range(n):
        if i % 2 == 0:
            models.append({"name": "relaxation", "params": {"mu": 1.0}})
        else:
            models.append({"name": "stuart_landau",
                           "params": {"omega": round(1.94 + 0.01 * i, 10),
                                      "c2": 1.0}})
    a = [[0.0] * n for _ in range(n)]
    b = [[0.0] * n for _ in range(n)]
    c = [[0.0] * n for _ in range(n)]
    for i in range(n):
        nxt = (i + 1) % n
        a[i][nxt] = a[nxt][i] = 0.5
        b[nxt][i] = 0.2           # node i drives node i+1
        c[i][nxt] = -0.1          # node i+1 drives node i
    return {"network": {"models": models, "epsilon": 0.05, "a": a, "b": b,
                        "c": c, "nu1": math.sqrt(2.0), "nu2": 1.0,
                        "coupling": "diffusive"},
            "horizon_mult": 4.0, "theta0": "random"}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def make_inputs(workload, seed, work):
    """Write the job inputs into `work`; returns the job spec fields."""
    if workload == "lock-sweep":
        cfg = os.path.join(work, "sweep.json")
        d = lock_sweep_d(seed)
        _write_json(cfg, {"pair": "subharmonic", "d_omega": d})
        return {"argv": ["sweep", "--config", cfg, "--seed", str(seed)],
                "d_omega": d}
    if workload == "network-reduce":
        cfg = os.path.join(work, "network.json")
        _write_json(cfg, network_config())
        return {"argv": ["simulate", "--config", cfg, "--seed", str(seed)]}
    if workload == "phase-geometry":
        rng = np.random.default_rng(seed)
        angle = rng.uniform(0.0, 2 * np.pi, N_STATES)
        radius = rng.uniform(*RADII, N_STATES)
        states = np.stack([radius * np.cos(angle), radius * np.sin(angle)],
                          axis=1)
        path = os.path.join(work, "states.npy")
        np.save(path, states)
        return {"states": path, "thetas": ISO_THETAS,
                "radial_range": list(RADII), "n_points": ISO_POINTS}
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks -------------------------------------------------------------

def _check_lock_sweep(out, spec, seed, reference):
    problems = []
    d = spec["d_omega"]
    summary = _read_json(os.path.join(out, "summary.json"))
    key = repr(d)
    eps_c = summary["eps_c"][key]
    lo, hi = summary["bracket"][key]
    _, rows = _read_csv(os.path.join(out, "results.csv"))
    ratio = eps_c / (EPS_REF * math.sqrt(d / D_REF))
    if not LAW_BAND[0] <= ratio <= LAW_BAND[1]:
        problems.append(f"eps_c {eps_c:.6g} is {ratio:.3f} x the sqrt-law value")
    if (hi - lo) / (0.5 * (lo + hi)) > REL_WIDTH:
        problems.append(f"final bracket [{lo:.6g}, {hi:.6g}] wider than "
                        f"{REL_WIDTH}")
    verdicts = set(rows[:, 3].astype(int))
    if verdicts != {0, 1}:
        problems.append(f"verdicts seen: {sorted(verdicts)}, need both")
    ref = reference["lock-sweep"].get(str(seed))
    if ref is not None:
        r_lo, r_hi = ref["bracket"]
        if not r_lo * (1 - REL_WIDTH) <= eps_c <= r_hi * (1 + REL_WIDTH):
            problems.append(f"eps_c {eps_c:.6g} outside the reference bracket "
                            f"[{r_lo:.6g}, {r_hi:.6g}] widened by {REL_WIDTH}")
        for eps, locked in zip(rows[:, 1], rows[:, 3].astype(int)):
            if (eps <= r_lo and locked) or (eps >= r_hi and not locked):
                problems.append(f"verdict at eps {eps:.6g} contradicts the "
                                "reference bracket")
    return problems


def _check_network_reduce(out, spec, seed, reference):
    problems = []
    summary = _read_json(os.path.join(out, "summary.json"))
    _, rows = _read_csv(os.path.join(out, "trajectory.csv"))
    if rows.shape != (200, 1 + 2 * NETWORK_NODES) or not np.all(np.isfinite(rows)):
        problems.append(f"trajectory table has shape {rows.shape}")
    max_err, rms_err = summary["max_error"], summary["rms_error"]
    if not 0.0 < rms_err <= max_err <= math.pi:
        problems.append(f"errors out of order: max {max_err}, rms {rms_err}")
    ref = reference["network-reduce"].get(str(seed))
    if ref is not None:
        for name, got in (("max_error", max_err), ("rms_error", rms_err)):
            want = ref[name]
            if abs(got - want) > ERROR_RTOL * abs(want):
                problems.append(f"{name} {got!r} differs from reference "
                                f"{want!r} by more than {ERROR_RTOL} relative")
    return problems


def spiral_phase(x):
    """Closed-form asymptotic phase of the spiral model: angle + log(radius)."""
    return np.mod(np.arctan2(x[:, 1], x[:, 0]) + np.log(np.hypot(x[:, 0], x[:, 1])),
                  2 * np.pi)


def _check_phase_geometry(out, spec, seed, reference):
    problems = []

    def expect(name, err, tol):
        if not err <= tol:
            problems.append(f"{name} error {err:.3e} above {tol:g}")

    _, prc = _read_csv(os.path.join(out, "prc.csv"))
    th = prc[:, 0]
    want = np.stack([np.cos(th) - np.sin(th), np.cos(th) + np.sin(th)], axis=1)
    expect("PRC", np.max(np.abs(prc[:, 1:] - want)), PRC_TOL)

    _, iso = _read_csv(os.path.join(out, "isochrons.csv"))
    if len(iso) != len(spec["thetas"]) * (spec["n_points"] + 1):
        problems.append(f"isochron table has {len(iso)} rows")
    expect("isochron identity",
           np.max(np.abs(_circ(spiral_phase(iso[:, 2:]) - iso[:, 0]))),
           ISOCHRON_TOL)

    _, phases = _read_csv(os.path.join(out, "phases.csv"))
    states = np.load(spec["states"])
    if len(phases) != len(states):
        problems.append(f"{len(phases)} phases for {len(states)} states")
    else:
        expect("asymptotic phase",
               np.max(np.abs(_circ(phases[:, 0] - spiral_phase(states)))),
               PHASE_TOL)

    # Z(theta) = (cos - sin, cos + sin) against sin(t) e_0 averages to
    # Gamma(psi) = (cos psi + sin psi) / 2 in drag form.
    _, coup = _read_csv(os.path.join(out, "coupling.csv"))
    psi = coup[:, 0]
    expect("averaged coupling",
           np.max(np.abs(coup[:, 1] - 0.5 * (np.cos(psi) + np.sin(psi)))),
           COUPLING_TOL)
    return problems


CHECKS = {
    "lock-sweep": _check_lock_sweep,
    "network-reduce": _check_network_reduce,
    "phase-geometry": _check_phase_geometry,
}


def check_outputs(workload, out, spec, seed, reference):
    """List of problems with one job's outputs (empty when correct)."""
    try:
        return CHECKS[workload](out, spec, seed, reference)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
