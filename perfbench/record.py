"""Record the reference values that the output checks compare against.

    python3 perfbench/record.py

Runs lock-sweep at seed 0 and network-reduce at seeds 0-19 with the
current sources and rewrites perfbench/reference.json with lock-sweep's
eps_c, final bracket and per-epsilon (S, locked) rows, and network-reduce's
max_error and rms_error.  Record only from a commit whose outputs are
trusted: the checks hold every later commit to these values.
"""

import csv
import json
import os
import shutil
import sys

import run
import workloads

NETWORK_SEEDS = range(20)


def _job(workload, seed):
    work = os.path.join(run.WORK, "record", f"{workload}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = dict(workloads.make_inputs(workload, seed, work), workload=workload,
                trace=False, out=os.path.join(work, "out"))
    rc, rec = run.spawn(spec, work, timeout=600.0)
    if rc != 0 or rec["exit"] != 0:
        raise SystemExit(f"{workload} seed {seed} failed; see {work}/log.txt")
    with open(os.path.join(spec["out"], "summary.json"), encoding="utf-8") as fh:
        return spec, json.load(fh)


def main():
    spec, summary = _job("lock-sweep", 0)
    key = repr(spec["d_omega"])
    with open(os.path.join(spec["out"], "results.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    reference = {"lock-sweep": {"0": {
        "d_omega": spec["d_omega"],
        "eps_c": summary["eps_c"][key],
        "bracket": summary["bracket"][key],
        "rows": [{"epsilon": float(r["epsilon"]), "S": float(r["S"]),
                  "locked": bool(int(r["locked"]))} for r in rows],
    }}, "network-reduce": {}}
    for seed in NETWORK_SEEDS:
        _, summary = _job("network-reduce", seed)
        reference["network-reduce"][str(seed)] = {
            "max_error": summary["max_error"],
            "rms_error": summary["rms_error"]}
        print(f"network-reduce seed {seed}: {reference['network-reduce'][str(seed)]}",
              flush=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
