"""phasekit benchmark runner.

    python3 perfbench/run.py --workload lock-sweep --seed 0 --seconds 30 --trace 0

Closed loop, one client: jobs run one at a time, each in a fresh Python
child (`job.py`) with BLAS pinned to one thread, so phasekit's in-process
cycle cache starts cold as it does for every CLI invocation.  A run starts
an import-only probe, then starts jobs while the next one is expected to end
within --seconds (always at least one; with --trace 1, untraced and traced
jobs alternate and at least one of each runs), then starts another probe.
Every job's outputs are checked, and all jobs of a run, traced or not, must
write byte-identical files.  Times are reported in reference seconds, scaled
by a calibration kernel that every child times (see CAL_NOMINAL_S).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced jobs with --trace 1.  The line before it is a report
with the sample counts, the environment and every failure.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
JOB = os.path.join(HERE, "job.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

N_PROBES = 2
RUN_LIMIT_S = 175.0        # a run must end within 180 s
PROBE_RESERVE_S = 15.0     # kept free for the probes after the jobs
# Times are reported in reference seconds: measured seconds times
# CAL_NOMINAL_S over the run's mean calibration time (see job.calibrate).
# The machine's speed drifts by tens of percent over minutes; the mean
# calibration time over the run tracks that drift.
CAL_NOMINAL_S = 0.85
BLAS_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
TAIL_BEYOND = 10
# Metrics in these units are times, scaled by the calibration.  Every other
# per-layer metric is a count and must repeat exactly between traced jobs.
TIME_UNITS = ("s", "us")


def declared_units():
    """Metric name -> unit, for every metric BENCHMARK.json declares."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"]
            for m in declared["end_to_end"] + declared["per_layer"]}


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, level %).

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies, and the
    maximum (level 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def spawn(spec, job_dir, timeout):
    """Run job.py on `spec`; returns (exit code or None on timeout, record)."""
    os.makedirs(job_dir, exist_ok=True)
    spec = dict(spec, result=os.path.join(job_dir, "result.json"))
    spec_path = os.path.join(job_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    with open(os.path.join(job_dir, "log.txt"), "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, JOB, spec_path, repr(t_spawn)],
                                stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
    record = None
    if rc == 0:
        with open(spec["result"], encoding="utf-8") as fh:
            record = json.load(fh)
    return rc, record


def digest(out_dir):
    """(sha256 over every output file, total bytes)."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run(workload, seed, seconds, traced):
    t_start = time.monotonic()
    units = declared_units()
    load_before = os.getloadavg()
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = workloads.make_inputs(workload, seed, work)
    reference = workloads.load_reference()

    setup = []
    cal = []
    versions = {}

    def probe(k):
        rc, rec = spawn({"workload": None}, os.path.join(work, f"probe-{k}"),
                        RUN_LIMIT_S - (time.monotonic() - t_start))
        if rc != 0:
            raise SystemExit(f"set-up probe failed (exit {rc}); see "
                             f"{os.path.join(work, f'probe-{k}', 'log.txt')}")
        setup.append(rec["setup_s"])
        cal.extend(rec["cal_s"])
        versions.update((key, rec[key]) for key in ("python", "numpy", "scipy"))

    # Half the probes run before the jobs and half after, so the
    # calibration samples surround the jobs.
    for k in range(N_PROBES // 2):
        probe(k)

    jobs = []                  # one dict per job attempted
    first_digest = None
    t_meas = time.monotonic()
    minimum = 2 if traced else 1
    while True:
        elapsed = time.monotonic() - t_meas
        left = RUN_LIMIT_S - PROBE_RESERVE_S - (time.monotonic() - t_start)
        if len(jobs) >= minimum:
            expect = max(j["wall_s"] for j in jobs)
            if elapsed + expect > seconds or expect > left:
                break
        k = len(jobs)
        job_traced = traced and k % 2 == 1
        job_dir = os.path.join(work, f"job-{k}")
        spec = dict(inputs, workload=workload, trace=job_traced,
                    out=os.path.join(job_dir, "out"),
                    trace_file=os.path.join(job_dir, "trace.json"))
        t0 = time.monotonic()
        rc, rec = spawn(spec, job_dir, left)
        job = {"traced": job_traced, "wall_s": time.monotonic() - t0,
               "record": rec, "problems": []}
        jobs.append(job)
        if rc is None:
            job["problems"].append("job timed out")
            continue
        if rc != 0 or rec.get("exit") != 0:
            job["problems"].append(f"job exited with {rc}, phasekit returned "
                                   f"{rec and rec.get('exit')}; see "
                                   f"{os.path.join(job_dir, 'log.txt')}")
            continue
        setup.append(rec["setup_s"])
        cal.extend(rec["cal_s"])
        job["problems"] += workloads.check_outputs(workload, spec["out"], spec,
                                                   seed, reference)
        sha, size = digest(spec["out"])
        if job_traced:
            rec["layers"]["output.bytes_written"] = size
        if first_digest is None:
            first_digest = sha
        elif sha != first_digest:
            job["problems"].append("outputs differ from the run's first job")

    for k in range(N_PROBES // 2, N_PROBES):
        probe(k)

    # Counts from traced jobs must repeat exactly.
    traced_ok = [j for j in jobs if j["traced"] and not j["problems"]]
    for job in traced_ok[1:]:
        first = traced_ok[0]["record"]["layers"]
        for name, value in job["record"]["layers"].items():
            if units[name] not in TIME_UNITS and value != first[name]:
                job["problems"].append(f"count {name} did not repeat: "
                                       f"{first[name]} then {value}")
    layer_sets = [j["record"]["layers"] for j in traced_ok if not j["problems"]]

    plain = [j["record"] for j in jobs
             if not j["problems"] and not j["traced"]]
    failed = [j for j in jobs if j["problems"]]
    job_s = [r["job_s"] for r in plain]

    scale = CAL_NOMINAL_S / statistics.mean(cal)
    metrics = {}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "inputs": {k: v for k, v in inputs.items()
                                         if k != "argv"},
        "env": dict(versions, nproc=os.cpu_count(),
                    loadavg_before=load_before, loadavg_after=os.getloadavg(),
                    blas_pin=BLAS_PIN),
        "samples": {"setup": len(setup), "jobs": len(job_s),
                    "traced_jobs": len(layer_sets)},
        "job_s": job_s,
        "fail_ratio": len(failed) / len(jobs),
        "failures": [p for j in failed for p in j["problems"]],
        "run_s": time.monotonic() - t_start,
    }
    if job_s:
        tail_value, level = tail(job_s)
        report["tail"] = {"level_pct": level, "samples": len(job_s)}
        measured = {
            "setup_s": statistics.median(setup),
            "job_s.p50": statistics.median(job_s),
            "job_s.tail": tail_value,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        end_to_end = {name: v * scale if units[name] in TIME_UNITS else v
                      for name, v in measured.items()}
        if not traced:
            metrics = {name: {"value": v, "unit": units[name]}
                       for name, v in end_to_end.items()}
        report["end_to_end"] = end_to_end
        report["measured"] = measured
    report["calibration_s"] = cal
    if traced and layer_sets:
        layers = {name: statistics.median(ls[name] for ls in layer_sets)
                  for name in layer_sets[0]}
        traced_p50 = statistics.median(
            j["record"]["job_s"] for j in traced_ok if not j["problems"])
        layers["trace.job_s.p50"] = traced_p50
        if job_s:
            layers["trace.overhead_s"] = traced_p50 - statistics.median(job_s)
        metrics = {name: {"value": v * scale if units[name] in TIME_UNITS else v,
                          "unit": units[name]}
                   for name, v in sorted(layers.items())}
    result = {"correct": not failed and bool(metrics), "attempted": len(jobs),
              "failed": len(failed), "metrics": metrics}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phasekit", "__init__.py")):
        print(f"phasekit sources not found under {SRC}", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_ratio = {report['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    samples = report["samples"]
    print(f"{args.workload} samples: {samples['jobs']} untraced jobs, "
          f"{samples['traced_jobs']} traced jobs, {samples['setup']} set-ups; "
          f"job_s.tail is the {report.get('tail', {}).get('level_pct', 0):.4g}th "
          "percentile")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
