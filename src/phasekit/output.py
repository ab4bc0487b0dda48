"""Config loading and deterministic artifact writing for the CLI.

Configs are JSON objects; unknown keys are rejected so a typo in a tolerance
name fails the run instead of silently using a default.  All files are
written to a temporary name in the target directory and renamed into place,
so a crashed run never leaves a truncated artifact.  Floats are rendered
with 17 significant digits, which round-trips IEEE doubles exactly and keeps
repeated runs byte-identical.
"""

import json
import math
import os
import tempfile

__all__ = [
    "ConfigError",
    "load_config",
    "check_keys",
    "get_typed",
    "format_value",
    "write_table",
    "write_json_atomic",
    "write_manifest",
]

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid run configuration; .field names the offending key."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite", field="--config")
    return value


def load_config(path):
    """Parse a JSON config object; NaN, Infinity and overflowing numbers are
    rejected as config errors."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}", field="--config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_float,
                            parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="--config") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object", field="--config")
    return cfg


def check_keys(node, allowed, required, context=""):
    """Reject unknown keys and report the first missing required key."""
    prefix = context + "." if context else ""
    if not isinstance(node, dict):
        raise ConfigError(f"{context or 'config'} must be a JSON object",
                          field=context or "config")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {prefix}{key}",
                              field=prefix + key)
    for key in required:
        if key not in node:
            raise ConfigError(f"missing required config key: {prefix}{key}",
                              field=prefix + key)


def get_typed(node, key, kinds, default=None, context=""):
    """Fetch node[key] checking its JSON type; kinds is a type tuple."""
    if key not in node:
        return default
    value = node[key]
    # bool is an int subclass; only accept it when explicitly requested
    if isinstance(value, bool) and bool not in kinds:
        pass
    elif isinstance(value, kinds):
        return value
    names = "/".join(k.__name__ for k in kinds)
    label = (context + "." if context else "") + key
    raise ConfigError(f"config key {label} must be {names}", field=label)


def format_value(value):
    """One CSV cell: floats at 17 significant digits, bools as 0/1."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_json_atomic(path, obj):
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True,
                      allow_nan=True) + "\n"
    _atomic_write_text(path, text)


def write_table(out_dir, stem, columns, rows, fmt="csv"):
    """Write one tabular artifact; returns the path written.

    csv: header line plus one comma-separated line per row.  json: object
    with "columns" and "rows", floats kept native.
    """
    if fmt == "csv":
        path = os.path.join(out_dir, stem + ".csv")
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(format_value(v) for v in row))
        _atomic_write_text(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        path = os.path.join(out_dir, stem + ".json")
        payload = {"columns": list(columns),
                   "rows": [[_jsonable(v) for v in row] for row in rows]}
        write_json_atomic(path, payload)
    else:
        raise ConfigError(f"unknown output format: {fmt}", field="--format")
    return path


def write_manifest(out_dir, command, config, seed, fmt):
    """Record everything needed to re-run the command, config verbatim."""
    manifest = {
        "command": command,
        "config": config,
        "format": fmt,
        "seed": seed,
    }
    write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)
