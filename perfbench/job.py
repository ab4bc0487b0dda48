"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC.json T_SPAWN

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process, so set-up time runs from spawn until ``import phasekit`` returns.
SPEC names the workload (or none, for a set-up probe), its inputs, the output
directory, whether to trace, and where to write the result record.  Job time
runs from after the import until the outputs are written.
"""

import json
import os
import resource
import sys
import time

import phasekit  # set-up time ends when this import returns

T_READY = time.monotonic()


def _cli_job(spec):
    from phasekit import cli
    return cli.main(spec["argv"] + ["--out", spec["out"]])


def _phase_geometry_job(spec):
    """Spiral model: cycle, adjoint PRC, four isochrons, batched phase, averaging."""
    import numpy as np
    from phasekit import output

    pk = phasekit
    out = spec["out"]
    states = np.load(spec["states"])
    model = pk.make_model("spiral")
    cycle = pk.find_limit_cycle(model, (1.5, 0.1))
    sens = pk.phase_sensitivity(model, cycle)
    iso_rows = []
    for theta in spec["thetas"]:
        iso = pk.compute_isochron(model, cycle, theta, tuple(spec["radial_range"]),
                                  n_points=spec["n_points"], sens=sens)
        iso_rows.extend([theta, float(np.hypot(*p)), float(p[0]), float(p[1])]
                        for p in iso.points)
    phases = pk.asymptotic_phase(model, cycle, states)
    pert = pk.sinusoidal_forcing(omega=1.0, amplitude=1.0, component=0)
    coupling = pk.average_periodic(sens, cycle, pert, 1.0)

    output.write_table(out, "prc", ["theta", "z0", "z1"],
                       [[float(g), float(z[0]), float(z[1])]
                        for g, z in zip(sens.grid, sens.values)])
    output.write_table(out, "isochrons", ["theta", "radius", "x0", "x1"],
                       iso_rows)
    output.write_table(out, "phases", ["theta"],
                       [[float(p)] for p in phases])
    output.write_table(out, "coupling", ["psi", "gamma"],
                       [[float(p), float(g)]
                        for p, g in zip(coupling.grid, coupling.values)])
    output.write_json_atomic(os.path.join(out, "summary.json"), {
        "period": cycle.period,
        "floquet_exponent": cycle.floquet,
        "provenance": coupling.provenance,
        "n_states": int(len(states)),
    })
    return 0


def calibrate():
    """Seconds for a fixed piece of reference work that does not use phasekit.

    A van der Pol oscillator under scipy's RK45 with a Python RHS: the same
    mix of interpreter and small-array work as phasekit's integrations, so
    its time tracks how fast the machine runs phasekit at the moment.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return np.array([y[1], (1.0 - y[0] * y[0]) * y[1] - y[0]])

    t0 = time.perf_counter()
    solve_ivp(rhs, (0.0, 450.0), np.array([2.0, 0.0]), rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t0


JOBS = {
    "lock-sweep": _cli_job,
    "network-reduce": _cli_job,
    "phase-geometry": _phase_geometry_job,
}


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    record = {"setup_s": T_READY - float(sys.argv[2]), "cal_s": [calibrate()]}
    workload = spec.get("workload")
    if workload is not None:
        job = JOBS[workload]
        tracer = None
        if spec["trace"]:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        os.makedirs(spec["out"], exist_ok=True)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = tracer.run(job, spec) if tracer else job(spec)
        job_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        record.update({
            "exit": rc,
            "job_s": job_s,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        })
        if tracer:
            tracer.uninstall()
            tracer.dump(spec["trace_file"])
            record["layers"] = tracer.summary()
        record["cal_s"].append(calibrate())
    import numpy
    import scipy
    record.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
