"""Command-line layer: configs, outputs, determinism, exit codes."""

import contextlib
import copy
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasekit.cli import main

TWO_PI = 2.0 * np.pi


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(args, capsys):
    rc = main([str(a) for a in args])
    out = capsys.readouterr().out
    return rc, out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in body]


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_find_cycle_outputs_period_and_samples(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"name": "radial"}})
    out_dir = tmp_path / "out"
    rc, _ = run_cli(["find-cycle", "--config", cfg, "--out", out_dir], capsys)
    assert rc == 0

    summary = json.loads((out_dir / "summary.json").read_text())
    assert abs(summary["period"] - TWO_PI) < 1e-5
    assert abs(summary["omega0"] - 1.0) < 1e-5
    assert summary["floquet_exponent"] < 0.0

    header, body = read_csv(out_dir / "cycle.csv")
    assert header == ["theta", "x0", "x1"]
    assert len(body) == summary["grid_size"]
    radii = [np.hypot(r[1], r[2]) for r in body]
    assert max(abs(r - 1.0) for r in radii) < 1e-6

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "find-cycle"
    assert manifest["config"] == {"model": {"name": "radial"}}
    assert manifest["format"] == "csv"
    assert sorted(manifest) == ["command", "config", "format", "seed"]


def test_reduce_recovers_half_cosine_coupling(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"name": "radial"},
        "forcing": {"omega": 1.0, "amplitude": 1.0, "component": 0},
    })
    out_dir = tmp_path / "out"
    rc, _ = run_cli(["reduce", "--config", cfg, "--out", out_dir], capsys)
    assert rc == 0
    header, body = read_csv(out_dir / "coupling.csv")
    assert header == ["psi", "gamma"]
    worst = max(abs(g - 0.5 * np.cos(psi)) for psi, g in body)
    assert worst < 1e-6


def test_prc_summary_reports_normalization(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"name": "spiral"}})
    out_dir = tmp_path / "out"
    rc, _ = run_cli(["prc", "--config", cfg, "--out", out_dir], capsys)
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["normalization_residual"] < 1e-6
    header, body = read_csv(out_dir / "prc.csv")
    assert header == ["theta", "z0", "z1"]
    assert len(body) > 0


def test_isochrons_ray_for_radial_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"name": "radial"},
        "thetas": [0.0],
        "radial_range": [0.5, 1.5],
        "n_points": 40,
    })
    out_dir = tmp_path / "out"
    rc, _ = run_cli(["isochrons", "--config", cfg, "--out", out_dir], capsys)
    assert rc == 0
    header, body = read_csv(out_dir / "isochrons.csv")
    assert header == ["theta", "radius", "x0", "x1"]
    # the zero-phase isochron of the circular model is the positive x axis
    assert max(abs(row[3]) for row in body) < 1e-6
    assert all(row[2] > 0.0 for row in body)


# ---------------------------------------------------------------------------
# Errors and exit codes
# ---------------------------------------------------------------------------

def test_unknown_config_key_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"name": "radial", "bogus": 1}})
    rc, out = run_cli(["find-cycle", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    err = json.loads(out)
    assert err["error"] == "config"
    assert err["field"] == "model.bogus"


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc, out = run_cli(["find-cycle", "--config", tmp_path / "absent.json",
                       "--out", tmp_path / "o"], capsys)
    assert rc == 2
    err = json.loads(out)
    assert err["error"] == "config"
    assert err["field"] == "--config"


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc, out = run_cli(["find-cycle", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    assert json.loads(out)["error"] == "config"


def test_wrong_value_type_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"name": "radial"},
                                  "grid_size": "many"})
    rc, out = run_cli(["find-cycle", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    err = json.loads(out)
    assert err["error"] == "config"
    assert "grid_size" in err["field"]


@pytest.mark.parametrize("grid_size", [0, 3, -2])
def test_grid_size_must_be_positive_and_even(tmp_path, capsys, grid_size):
    cfg = write_config(tmp_path, {"model": {"name": "radial"},
                                  "grid_size": grid_size})
    rc, out = run_cli(["find-cycle", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    lines = out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert err["field"] == "grid_size"


SL_NETWORK = ('{"models": [{"name": "stuart_landau", "params": '
              '{"omega": 1.99, "c2": 1.0}}, {"name": "stuart_landau", '
              '"params": {"omega": 2.01, "c2": 1.0}}], ')


@pytest.mark.parametrize("command, text", [
    ("simulate", '{"network": ' + SL_NETWORK
     + '"epsilon": NaN, "a": [[0.0, 1.0], [1.0, 0.0]]}}'),
    ("simulate", '{"network": ' + SL_NETWORK
     + '"epsilon": 0.05, "a": [[0.0, NaN], [1.0, 0.0]]}}'),
    ("sweep", '{"d_omega": Infinity}'),
    ("sweep", '{"d_omega": -Infinity}'),
    ("sweep", '{"d_omega": 1e400}'),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    rc, out = run_cli([command, "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


@pytest.mark.parametrize("n_samples", [0, 1])
def test_simulate_needs_two_samples(tmp_path, capsys, n_samples):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"network": ' + SL_NETWORK + '"epsilon": 0.05, '
                   '"a": [[0.0, 1.0], [1.0, 0.0]]}, "n_samples": %d}'
                   % n_samples)
    rc, out = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    lines = out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert err["field"] == "n_samples"


def _config_error_field(out):
    lines = out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    return err["field"]


@pytest.mark.parametrize("horizon_mult", [0, -1])
def test_simulate_needs_a_positive_horizon(tmp_path, capsys, horizon_mult):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"network": ' + SL_NETWORK + '"epsilon": 0.05, '
                   '"a": [[0.0, 1.0], [1.0, 0.0]]}, "horizon_mult": %d}'
                   % horizon_mult)
    rc, out = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    assert _config_error_field(out) == "horizon_mult"


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_simulate_summary_reports_the_horizon_run(tmp_path, capsys, epsilon):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"network": ' + SL_NETWORK + '"epsilon": %r, '
                   '"a": [[0.0, 1.0], [1.0, 0.0]]}, "horizon_mult": 0.1, '
                   '"n_samples": 5}' % epsilon)
    rc, out = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 0, out
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    _, rows = read_csv(tmp_path / "o" / "trajectory.csv")
    assert summary["horizon"] == rows[-1][0]
    assert summary["horizon"] == (0.1 / epsilon if epsilon else 0.1)


@pytest.mark.parametrize("n_points", [0, -3])
def test_isochrons_need_at_least_one_point(tmp_path, capsys, n_points):
    cfg = write_config(tmp_path, {"model": {"name": "radial"},
                                  "grid_size": 32, "n_points": n_points})
    rc, out = run_cli(["isochrons", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 2
    assert _config_error_field(out) == "n_points"


def test_computation_failure_reports_exception_type(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"name": "radial"},
                                  "guess": [0.0, 0.0]})
    rc, out = run_cli(["find-cycle", "--config", cfg, "--out", tmp_path / "o"],
                      capsys)
    assert rc == 1
    err = json.loads(out)
    assert err["error"] == "computation"
    assert err["type"] == "PhaselessStateError"


# ---------------------------------------------------------------------------
# Determinism and formats
# ---------------------------------------------------------------------------

def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"name": "radial"}})
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        rc, _ = run_cli(["find-cycle", "--config", cfg, "--out", out_dir],
                        capsys)
        assert rc == 0
    for name in ["cycle.csv", "summary.json", "manifest.json"]:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def simulate_config(theta0):
    return {
        "network": {
            "models": [
                {"name": "stuart_landau", "params": {"omega": 2.0, "c2": 1.0}},
                {"name": "stuart_landau", "params": {"omega": 2.02, "c2": 1.0}},
            ],
            "epsilon": 0.05,
            "a": [[0.0, 1.0], [1.0, 0.0]],
            "coupling": "direct",
        },
        "theta0": theta0,
        "horizon_mult": 0.2,
        "n_samples": 40,
    }


def test_seeded_random_phases_are_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_config("random"))
    outputs = {}
    for tag, seed in [("a", 7), ("b", 7), ("c", 8)]:
        out_dir = tmp_path / tag
        rc, _ = run_cli(["simulate", "--config", cfg, "--out", out_dir,
                         "--seed", seed], capsys)
        assert rc == 0
        outputs[tag] = (out_dir / "trajectory.csv").read_bytes()
    assert outputs["a"] == outputs["b"]
    assert outputs["a"] != outputs["c"]


def test_json_table_format_matches_csv_numbers(tmp_path, capsys):
    payload = {"model": {"name": "radial"}, "grid_size": 32}
    cfg = write_config(tmp_path, payload)
    rc, _ = run_cli(["find-cycle", "--config", cfg, "--out", tmp_path / "c"],
                    capsys)
    assert rc == 0
    rc, _ = run_cli(["find-cycle", "--config", cfg, "--out", tmp_path / "j",
                     "--format", "json"], capsys)
    assert rc == 0
    header, body = read_csv(tmp_path / "c" / "cycle.csv")
    table = json.loads((tmp_path / "j" / "cycle.json").read_text())
    assert table["columns"] == header
    assert np.allclose(np.asarray(table["rows"], dtype=float),
                       np.asarray(body), rtol=0.0, atol=0.0)
    manifest = json.loads((tmp_path / "j" / "manifest.json").read_text())
    assert manifest["format"] == "json"


# ---------------------------------------------------------------------------
# Sweep plumbing (narrow bracket keeps this quick)
# ---------------------------------------------------------------------------

def test_sweep_brackets_the_calibrated_threshold(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "pair": "subharmonic",
        "d_omega": 0.02,
        "bracket": [0.048, 0.0505],
        "rel_width": 0.1,
    })
    out_dir = tmp_path / "out"
    rc, _ = run_cli(["sweep", "--config", cfg, "--out", out_dir], capsys)
    assert rc == 0

    summary = json.loads((out_dir / "summary.json").read_text())
    eps_c = summary["eps_c"]["0.02"]
    assert 0.048 <= eps_c <= 0.0505

    header, body = read_csv(out_dir / "results.csv")
    assert header == ["d_omega", "epsilon", "S", "locked", "psi_star"]
    eps_column = [row[1] for row in body]
    assert eps_column == sorted(eps_column)
    locked_by_eps = {row[1]: row[3] for row in body}
    assert locked_by_eps[min(eps_column)] == 0.0
    assert locked_by_eps[max(eps_column)] == 1.0


# ---------------------------------------------------------------------------
# Fuzzed configs
# ---------------------------------------------------------------------------

# README minimal configs; isochrons kept to one theta and 5 points.
_FUZZ_BASE = {
    "find-cycle": {"model": {"name": "spiral"}},
    "prc": {"model": {"name": "spiral"}},
    "reduce": {"model": {"name": "radial"},
               "forcing": {"omega": 1.0, "amplitude": 1.0, "component": 0}},
    "isochrons": {"model": {"name": "spiral"}, "n_points": 5,
                  "thetas": [0.0]},
}

# Replacement values: other JSON types, raw NaN/Infinity text, and small
# integers only, so no size key can ask for a huge allocation.
_FUZZ_VALUES = ["x", [], None, True, {}, math.nan, math.inf, -math.inf,
                0, -1, 3]


def _node_paths(node, prefix=()):
    """Paths to every key and list entry below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _mutate(config, path, mutation):
    """Copy of config with one mutation applied at path."""
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    elif mutation == "unknown":
        target = parent[path[-1]]
        (target if isinstance(target, dict) else config)["bogus_key"] = 1
    else:
        parent[path[-1]] = mutation[1]
    return config


@pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_fail_cleanly(command, data):
    base = _FUZZ_BASE[command]
    path = data.draw(st.sampled_from(list(_node_paths(base))), label="path")
    mutation = data.draw(st.sampled_from(
        ["drop", "unknown"] + [("set", v) for v in _FUZZ_VALUES]),
        label="mutation")
    config = _mutate(base, path, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/config.json"
        with open(cfg, "w") as fh:
            fh.write(json.dumps(config))      # NaN/Infinity as raw text
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = main([command, "--config", cfg, "--out", f"{tmp}/out"])
        elapsed = time.perf_counter() - start
    assert rc in (0, 1, 2)
    if rc != 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] in ("config", "computation")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Console entry point
# ---------------------------------------------------------------------------

def test_installed_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, {"model": {"name": "radial"},
                                  "grid_size": 32})
    proc = subprocess.run(
        [sys.executable, "-m", "phasekit.cli", "find-cycle",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "summary.json").exists()


def test_help_lists_all_subcommands():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
