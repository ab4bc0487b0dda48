"""The benchmark's own tests.

    python3 -m pytest perfbench -q

The repeatability test makes two traced runs of every workload (several
minutes on a 2-core machine); the rest take seconds.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads

sys.path.insert(0, run.SRC)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = list(range(1, 31))
    # 10 samples (21..30) lie beyond the 20th of 30, the 66.7th percentile
    value, level = run.tail(values)
    assert value == 20 and level == pytest.approx(200.0 / 3.0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    assert workloads.lock_sweep_d(0) == workloads.D_REF
    assert workloads.lock_sweep_d(7) == workloads.lock_sweep_d(7)
    assert workloads.D_RANGE[0] <= workloads.lock_sweep_d(7) <= workloads.D_RANGE[1]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    spec_a = workloads.make_inputs("phase-geometry", 3, str(a))
    spec_b = workloads.make_inputs("phase-geometry", 3, str(b))
    assert np.array_equal(np.load(spec_a["states"]), np.load(spec_b["states"]))


def test_tracer_leaves_results_unchanged_and_restores_bindings():
    import phasekit
    from phasekit import cycles, network, phase
    from layertrace import Tracer

    model = phasekit.make_model("radial")
    x = np.array([[0.0, 2.0], [1.5, -0.5]])

    def job():
        cycle = phasekit.find_limit_cycle(model, (1.7, 0.1))
        return cycle.points, phasekit.asymptotic_phase(model, cycle, x)

    units = run.declared_units()
    plain = job()
    originals = (phasekit.find_limit_cycle, network.find_limit_cycle,
                 cycles.LimitCycle.project, phase.asymptotic_phase)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        assert network.find_limit_cycle is not originals[1]
        try:
            traced = tracer.run(job)
        finally:
            tracer.uninstall()
        for want, got in zip(plain, traced):
            assert np.array_equal(want, got)
        layers = tracer.summary()
        assert layers["cycles.find_limit_cycle.solver_calls"] > 0
        assert layers["phase.asymptotic_phase.states"] == 2
        root = tracer.spans[0]
        assert layers["trace.self_sum_s"] + layers["job.self_s"] == pytest.approx(
            root.end - root.start)
        counts.append({k: v for k, v in layers.items()
                       if units[k] not in run.TIME_UNITS})
    assert counts[0] == counts[1]
    assert (phasekit.find_limit_cycle, network.find_limit_cycle,
            cycles.LimitCycle.project, phase.asymptotic_phase) == originals


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "phase-geometry", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench-work")


@pytest.mark.parametrize("workload", sorted(workloads.CHECKS))
def test_counts_repeat_and_self_times_cover_the_job(workload):
    """Two traced runs: counts repeat exactly, and the self times of the
    traced calls add up to within 10% of the traced job time."""
    counts = []
    for _ in range(2):
        report, result = run.run(workload, seed=0, seconds=0.0, traced=True)
        assert result["correct"], report["failures"]
        metrics = result["metrics"]
        job_s = metrics["trace.job_s.p50"]["value"]
        assert abs(metrics["trace.self_sum_s"]["value"] - job_s) <= 0.10 * job_s
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] not in run.TIME_UNITS})
    assert counts[0] == counts[1]
