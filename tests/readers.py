"""Readers of the CSV tables and the run manifest that the CLI writes.

No command reads these files back (``invert`` reads spectra through
``mqcsim.io.read_spectrum_csv``); the tests use these readers to check the
written tables. They share the package's row parser, so a bad header or
row is the same ConfigError naming the file and the line.
"""

from typing import Any

import numpy as np

from mqcsim.errors import ConfigError
from mqcsim.io import _SWEEP_HEADER, _read_csv, read_json


def _read_per_n(path, header, parse_x):
    """n -> (x, values) from rows (n, x, value), each n's rows in file order."""
    out = {}
    for n, x, v in _read_csv(path, header, lambda r: (int(r[0]), parse_x(r[1]), float(r[2]))):
        out.setdefault(n, []).append((x, v))
    return {n: (np.array([x for x, _ in pairs]), np.array([v for _, v in pairs]))
            for n, pairs in out.items()}


def read_phase_csv(path):
    return _read_per_n(path, ["n", "phi", "value"], float)


def read_series_csv(path):
    return dict(_read_csv(path, ["n", "value"], lambda r: (int(r[0]), float(r[1]))))


def read_dd_csv(path):
    rows = _read_csv(path, ["cycle", "t", "value"], lambda r: (float(r[1]), float(r[2])))
    return (np.array([t for t, _ in rows]), np.array([v for _, v in rows]))


def read_sweep_csv(path):
    def parse(row):
        rec: dict[str, Any] = dict(zip(_SWEEP_HEADER, row))
        for key in ("tau", "theta", "snr"):
            rec[key] = float(rec[key])
        for key in ("a_fast", "t_fast", "a_slow", "t_slow"):
            rec[key] = float(rec[key]) if rec[key] else None
        rec["n_star"] = int(rec["n_star"])
        return rec

    return _read_csv(path, _SWEEP_HEADER, parse)


def read_distribution_csv(path):
    return _read_per_n(path, ["n", "s", "f"], float)


def read_manifest(path):
    doc = read_json(path)
    for key in ("tool", "tool_version", "command", "config"):
        if key not in doc:
            raise ConfigError(f"{path}: manifest missing key {key!r}")
    return doc
