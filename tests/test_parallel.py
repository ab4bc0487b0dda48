"""Forked worker map: same results, errors and warnings as the serial loop."""

import concurrent.futures
import json
import multiprocessing
import os
import threading
import time
import warnings

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

import phasekit._parallel as parallel
import phasekit.network as network
from phasekit import (NetworkSpec, PhaseConvergenceError, ShootingError,
                      asymptotic_phase, compare_full_vs_reduced, make_model,
                      sl_prescribed_pair)
from phasekit._parallel import pmap
from phasekit.cycles import _PROJECT_CHUNK, _row_blocks

from conftest import spiral_states
from phasekit.cli import main


@pytest.fixture
def executors(monkeypatch):
    """Worker counts of every process pool pmap creates, in order."""
    created = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, max_workers=None, *args, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return created


def force_workers(monkeypatch, count):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: count)


def test_results_come_back_in_input_order_from_closures(monkeypatch,
                                                        executors):
    force_workers(monkeypatch, 2)
    scale = np.array([1.0, -2.0])
    assert [r.tolist() for r in pmap(lambda k: k * scale, range(5))] == \
        [(k * scale).tolist() for k in range(5)]
    assert executors == [2]


@pytest.mark.parametrize("cpus, items, workers", [(2, 3, 2), (8, 2, 2),
                                                   (3, 3, 3)])
def test_worker_count_is_bounded_by_items_and_cpus(monkeypatch, executors,
                                                   cpus, items, workers):
    force_workers(monkeypatch, cpus)
    assert pmap(lambda k: k + 1, range(items)) == list(range(1, items + 1))
    assert executors == [workers]


@pytest.mark.parametrize("items", [[], [3]])
def test_one_item_or_none_never_creates_an_executor(monkeypatch, executors,
                                                    items):
    force_workers(monkeypatch, 2)
    assert pmap(lambda k: 2 * k, items) == [2 * k for k in items]
    assert executors == []


def test_one_cpu_never_creates_an_executor(monkeypatch, executors):
    force_workers(monkeypatch, 1)
    assert pmap(lambda k: 2 * k, [1, 2, 3]) == [2, 4, 6]
    assert executors == []


def test_a_worker_never_creates_an_executor(monkeypatch, executors):
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_IN_WORKER", True)
    assert pmap(lambda k: 2 * k, [1, 2, 3]) == [2, 4, 6]
    assert executors == []


def test_a_running_thread_never_creates_an_executor(monkeypatch, executors):
    force_workers(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        assert pmap(lambda k: 2 * k, [1, 2, 3]) == [2, 4, 6]
    finally:
        release.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert executors == []


def test_maps_inside_a_worker_run_serially(monkeypatch, executors):
    force_workers(monkeypatch, 2)

    def inner(_):
        return parallel._IN_WORKER, os.getpid(), pmap(lambda _: os.getpid(),
                                                      [0, 1])

    for in_worker, pid, inner_pids in pmap(inner, [0, 1]):
        assert in_worker
        assert pid != os.getpid()
        assert inner_pids == [pid, pid]
    assert executors == [2]
    assert not parallel._IN_WORKER


def failing(k):
    if k >= 1:
        raise ShootingError(f"item {k} did not converge")
    return k


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_item_reraises_its_exception(monkeypatch, workers):
    force_workers(monkeypatch, workers)
    with pytest.raises(ShootingError, match=r"^item 1 did not converge$"):
        pmap(failing, [0, 1, 2])


def test_first_failure_stops_the_running_siblings(monkeypatch):
    force_workers(monkeypatch, 2)

    def fail_or_sleep(k):
        if k == 0:
            raise ShootingError("item 0 did not converge")
        time.sleep(5.0)
        return k

    start = time.perf_counter()
    with pytest.raises(ShootingError, match=r"^item 0 did not converge$"):
        pmap(fail_or_sleep, [0, 1])
    assert time.perf_counter() - start < 2.0
    assert multiprocessing.active_children() == []


def test_dead_worker_breaks_the_pool(monkeypatch):
    force_workers(monkeypatch, 2)

    def die(k):
        if k == 1 and parallel._IN_WORKER:
            os._exit(3)
        return k

    with pytest.raises(BrokenProcessPool):
        pmap(die, [0, 1, 2])
    assert issubclass(BrokenProcessPool, RuntimeError)


def test_worker_warnings_reach_the_parent_in_task_order(monkeypatch):
    force_workers(monkeypatch, 2)

    def warn(k):
        warnings.warn(f"task {k}", RuntimeWarning)
        return float(np.log(np.float64(k)))

    with pytest.warns(RuntimeWarning) as record:
        results = pmap(warn, [0, 1, 2])
    assert results == [-np.inf, 0.0, float(np.log(2.0))]
    messages = [str(w.message) for w in record]
    assert messages == ["task 0", "divide by zero encountered in log",
                        "task 1", "task 2"]


# ---------------------------------------------------------------------------
# The CLI at worker counts 1 and 2
# ---------------------------------------------------------------------------

RING = {
    "network": {
        "models": [
            {"name": "relaxation", "params": {"mu": 1.0}},
            {"name": "stuart_landau", "params": {"omega": 1.95, "c2": 1.0}},
            {"name": "relaxation", "params": {"mu": 1.0}},
            {"name": "stuart_landau", "params": {"omega": 1.97, "c2": 1.0}},
        ],
        "epsilon": 0.05,
        "a": [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0],
              [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]],
        "coupling": "diffusive",
    },
    "theta0": "random",
    "horizon_mult": 0.2,
    "n_samples": 20,
}


def run_cli(monkeypatch, capsys, tmp_path, workers, command, config):
    """Run one CLI command; (rc, stdout, out dir)."""
    force_workers(monkeypatch, workers)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out-{workers}"
    rc = main([command, "--config", str(cfg), "--out", str(out),
               "--seed", "3"])
    return rc, capsys.readouterr().out, out


def output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# simulate forks for the 3 distinct cycles, then for its two branches (the
# phase-model build and the full run, whose own maps run serially in the
# workers); isochrons for the two sides at each of 4 phases
@pytest.mark.parametrize("command, config, pools", [
    ("simulate", RING, 2),
    ("isochrons", {"model": {"name": "spiral"}}, 4),
], ids=["simulate", "isochrons"])
def test_cli_bytes_do_not_depend_on_the_worker_count(
        monkeypatch, capsys, tmp_path, executors, command, config, pools):
    outputs = {}
    for workers in (1, 2):
        rc, _, out = run_cli(monkeypatch, capsys, tmp_path, workers,
                             command, config)
        assert rc == 0
        outputs[workers] = output_bytes(out)
    assert outputs[1] == outputs[2]
    assert executors == [2] * pools


def test_simulate_shoots_each_distinct_model_once(monkeypatch, capsys,
                                                  tmp_path):
    shot = []
    real = network._shoot

    def shoot(model):
        shot.append(repr((model.name, sorted(model.params.items()))))
        return real(model)

    monkeypatch.setattr(network, "_shoot", shoot)
    for _ in range(2):
        rc, _, _ = run_cli(monkeypatch, capsys, tmp_path, 1, "simulate", RING)
        assert rc == 0
    # each run builds its own spec, which shoots the ring's 3 distinct models
    assert len(shot) == 6
    assert sorted(shot[:3]) == sorted(shot[3:]) and len(set(shot)) == 3


def one_json_line(stdout):
    lines = stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_cli_failure_in_a_worker_is_the_serial_failure(monkeypatch, capsys,
                                                        tmp_path):
    real = network._shoot

    def shoot(model):
        if model.name == "stuart_landau" and model.params["omega"] == 1.97:
            raise ShootingError("no convergence for omega 1.97")
        return real(model)

    monkeypatch.setattr(network, "_shoot", shoot)
    errors = {}
    for workers in (1, 2):
        rc, stdout, _ = run_cli(monkeypatch, capsys, tmp_path, workers,
                                "simulate", RING)
        assert rc == 1
        errors[workers] = one_json_line(stdout)
    assert errors[1] == errors[2] == {
        "error": "computation", "type": "ShootingError",
        "message": "no convergence for omega 1.97"}


def test_cli_dead_worker_exits_1_with_a_json_line(monkeypatch, capsys,
                                                  tmp_path):
    def shoot(model):
        if parallel._IN_WORKER:
            os._exit(3)
        raise AssertionError("the models were not shot in workers")

    monkeypatch.setattr(network, "_shoot", shoot)
    rc, stdout, _ = run_cli(monkeypatch, capsys, tmp_path, 2, "simulate",
                            RING)
    assert rc == 1
    err = one_json_line(stdout)
    assert (err["error"], err["type"]) == ("computation", "BrokenProcessPool")


# ---------------------------------------------------------------------------
# The two branches of compare_full_vs_reduced
# ---------------------------------------------------------------------------

def ring_spec():
    net = RING["network"]
    return NetworkSpec(models=[make_model(m["name"], **m["params"])
                               for m in net["models"]],
                       epsilon=net["epsilon"], a=net["a"],
                       coupling=net["coupling"])


def compare_ring(monkeypatch, workers):
    """compare_full_vs_reduced on the ring."""
    force_workers(monkeypatch, workers)
    return compare_full_vs_reduced(ring_spec(), horizon_mult=0.2,
                                   theta0=[0.3, 1.9, 4.0, 5.5], n_samples=20)


def test_comparison_does_not_depend_on_the_worker_count(monkeypatch,
                                                        executors):
    reports = [compare_ring(monkeypatch, workers) for workers in (1, 2)]
    # at 2 workers: one pool shoots the 3 distinct cycles, one runs the
    # phase-model build next to the full run
    assert executors == [2, 2]
    for field in ("times", "theta_full", "theta_reduced", "max_error",
                  "rms_error", "full_drift", "reduced_drift", "prescribed"):
        np.testing.assert_array_equal(getattr(reports[0], field),
                                      getattr(reports[1], field))


def test_failing_phase_model_branch_is_the_serial_failure(monkeypatch):
    def adjoint_fails(model, cycle, *args, **kwargs):
        raise PhaseConvergenceError(f"adjoint of {model.name} did not settle")

    monkeypatch.setattr(network, "phase_sensitivity", adjoint_fails)
    errors = []
    for workers in (1, 2):
        with pytest.raises(PhaseConvergenceError) as info:
            compare_ring(monkeypatch, workers)
        errors.append((type(info.value), str(info.value)))
    assert errors == [(PhaseConvergenceError,
                       "adjoint of relaxation did not settle")] * 2


def test_phase_model_branch_warning_reaches_the_parent(monkeypatch,
                                                       executors):
    force_workers(monkeypatch, 2)
    with pytest.warns(UserWarning, match="out of reach"):
        report = compare_full_vs_reduced(sl_prescribed_pair(0.02, 0.2),
                                         horizon_mult=0.5, n_samples=20)
    assert report.prescribed
    assert executors == [2, 2]


# ---------------------------------------------------------------------------
# Sweep detunings in workers
# ---------------------------------------------------------------------------

SWEEP = {"pair": "prescribed", "d_omega": [0.02, 0.04],
         "bracket": [0.005, 0.1], "t_sim": 150.0, "rel_width": 0.3}


def test_sweep_bytes_do_not_depend_on_the_worker_count(
        monkeypatch, capsys, tmp_path, executors):
    outputs = {}
    for workers in (1, 2):
        rc, _, out = run_cli(monkeypatch, capsys, tmp_path, workers,
                             "sweep", SWEEP)
        assert rc == 0
        outputs[workers] = output_bytes(out)
    assert outputs[1] == outputs[2]
    # one pool for the two detunings; each shoots its pair serially
    assert executors == [2]


def test_sweep_range_error_crosses_from_a_worker(monkeypatch, capsys,
                                                  tmp_path):
    # locked at the lower end for both detunings: CouplingRangeError
    config = dict(SWEEP, bracket=[0.08, 0.1])
    errors = {}
    for workers in (1, 2):
        rc, stdout, _ = run_cli(monkeypatch, capsys, tmp_path, workers,
                                "sweep", config)
        assert rc == 1
        errors[workers] = one_json_line(stdout)
    assert errors[1] == errors[2]
    assert errors[1]["type"] == "CouplingRangeError"


# ---------------------------------------------------------------------------
# LimitCycle.project and asymptotic_phase over blocks in workers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [2 * _PROJECT_CHUNK + 3, 5000])
def test_project_does_not_depend_on_the_worker_count(monkeypatch, executors,
                                                     spiral_cycle, rows):
    _, cyc = spiral_cycle
    pts = spiral_states(rows)
    results = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        results.append(cyc.project(pts))
    for got, want in zip(results[1], results[0]):
        np.testing.assert_array_equal(got, want)
    # one pool, for the blocks at 2 workers
    assert executors == [2]


@pytest.mark.parametrize("states", [
    spiral_states(_PROJECT_CHUNK + 1), spiral_states(1)[0],
    np.empty((0, 2))], ids=["one-block", "single-state", "empty"])
def test_project_of_one_block_never_creates_an_executor(
        monkeypatch, executors, spiral_cycle, states):
    force_workers(monkeypatch, 2)
    _, cyc = spiral_cycle
    theta, dist = cyc.project(states)
    assert np.shape(theta) == np.shape(dist) == states.shape[:-1]
    assert executors == []


def test_asymptotic_phase_does_not_depend_on_the_worker_count(monkeypatch,
                                                              spiral_cycle):
    model, cyc = spiral_cycle
    pts = spiral_states(5000, seed=0)
    phases = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        phases.append(asymptotic_phase(model, cyc, pts))
    np.testing.assert_array_equal(phases[0], phases[1])


def test_asymptotic_phase_settles_each_block_alone(monkeypatch, executors,
                                                   spiral_cycle):
    # one pool per call of two or more blocks, one task per block; each
    # block's phases are those of that block alone, at any worker count
    model, cyc = spiral_cycle
    pts = spiral_states(2 * _PROJECT_CHUNK + 3, seed=5)
    phases = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        phases.append(asymptotic_phase(model, cyc, pts))
    np.testing.assert_array_equal(phases[0], phases[1])
    assert executors == [2]
    force_workers(monkeypatch, 1)
    for lo, hi in _row_blocks(len(pts), _PROJECT_CHUNK):
        np.testing.assert_array_equal(
            phases[0][lo:hi], asymptotic_phase(model, cyc, pts[lo:hi]))


@pytest.mark.parametrize("states", [
    spiral_states(_PROJECT_CHUNK + 1), spiral_states(1)[0],
    np.empty((0, 2))], ids=["one-block", "single-state", "empty"])
def test_asymptotic_phase_of_one_block_never_creates_an_executor(
        monkeypatch, executors, spiral_cycle, states):
    force_workers(monkeypatch, 2)
    model, cyc = spiral_cycle
    theta = asymptotic_phase(model, cyc, states)
    assert np.shape(theta) == states.shape[:-1]
    assert executors == []
