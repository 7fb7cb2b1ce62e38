"""Persistence: frozen CSV/JSON schemas, run manifests, config handling.

CSV schemas (column order is part of the contract):

    spectrum:      n,k,value          (normalized coherence weights)
    phase signal:  n,phi,value        (real part of S_{n,phi})
    per-n series:  n,value            (Loschmidt echo, OTOC moment, ...)
    dd series:     cycle,t,value
    sweep:         tau,theta,a_fast,t_fast,a_slow,t_slow,n_star,snr,status
    distribution:  n,s,f

Floats are written with ``repr`` so a rerun with the same seed produces
bit-identical files; readers validate headers and round-trip exactly.
JSON documents carry ``schema_version``. External measured spectra in the
same schema are accepted anywhere a simulated spectrum is.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from . import blas
from .errors import ConfigError

SCHEMA_VERSION = 1
TOOL_NAME = "mqcsim"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path: Path, header: list[str], parse) -> list:
    """``parse(row)`` of each non-empty row below ``header``; a bad header,
    a row of the wrong width or a field ``parse`` cannot read is a
    :class:`ConfigError` naming the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ConfigError(f"{path}: expected header {header}, got {got}")
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"{path}: line {reader.line_num}: expected "
                                  f"{len(header)} fields, got {len(row)}")
            try:
                out.append(parse(row))
            except ValueError as err:
                raise ConfigError(f"{path}: line {reader.line_num}: {err}") from None
        return out


def _write_per_n(path: Path, header: list[str], tables: dict, fmt_x) -> None:
    """Rows (n, fmt_x(x), value) for each n's (x, values) pair, n ascending;
    a value is written as its real part."""
    rows = []
    for n in sorted(tables):
        xs, values = tables[n]
        for x, v in zip(xs, values):
            rows.append((n, fmt_x(x), _fmt(np.real(v))))
    _write_csv(path, header, rows)


def _read_per_n(path: Path, header: list[str], parse_x, sort: bool = False) -> dict:
    """n -> (x, values) from rows (n, x, value), each n's rows in file order,
    or sorted by x with ``sort``."""
    out: dict[int, list[tuple]] = {}
    rows = _read_csv(path, header, lambda r: (int(r[0]), parse_x(r[1]), float(r[2])))
    for n, x, v in rows:
        out.setdefault(n, []).append((x, v))
    result = {}
    for n, pairs in out.items():
        if sort:
            pairs.sort()
        result[n] = (np.array([x for x, _ in pairs]), np.array([v for _, v in pairs]))
    return result


def write_spectrum_csv(path: Path, spectra: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """spectra maps n -> (orders, weights)."""
    _write_per_n(path, ["n", "k", "value"], spectra, int)


def read_spectrum_csv(path: Path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """n -> (orders, weights), each n sorted by order."""
    return _read_per_n(path, ["n", "k", "value"], int, sort=True)


def write_phase_csv(path: Path, signals: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """signals maps n -> (phi, values); the real part is persisted."""
    _write_per_n(path, ["n", "phi", "value"], signals, _fmt)


def read_phase_csv(path: Path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    return _read_per_n(path, ["n", "phi", "value"], float)


def write_series_csv(path: Path, values: dict[int, float]) -> None:
    _write_csv(path, ["n", "value"], [(n, _fmt(values[n])) for n in sorted(values)])


def read_series_csv(path: Path) -> dict[int, float]:
    return dict(_read_csv(path, ["n", "value"], lambda r: (int(r[0]), float(r[1]))))


def write_dd_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    rows = [(j, _fmt(t), _fmt(v)) for j, (t, v) in enumerate(zip(times, values))]
    _write_csv(path, ["cycle", "t", "value"], rows)


def read_dd_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_csv(path, ["cycle", "t", "value"], lambda r: (float(r[1]), float(r[2])))
    return (np.array([t for t, _ in rows]), np.array([v for _, v in rows]))


_SWEEP_HEADER = ["tau", "theta", "a_fast", "t_fast", "a_slow", "t_slow",
                 "n_star", "snr", "status"]


def write_sweep_csv(path: Path, result) -> None:
    rows = []
    for cell in result.cells:
        fit = cell.fit
        if fit is None:
            fit_cols = ("", "", "", "")
        else:
            fit_cols = (_fmt(fit.a_fast), _fmt(fit.t_fast),
                        _fmt(fit.a_slow), _fmt(fit.t_slow))
        rows.append(
            (_fmt(cell.tau), _fmt(cell.theta), *fit_cols,
             cell.n_star, _fmt(cell.snr), cell.status)
        )
    _write_csv(path, _SWEEP_HEADER, rows)


def read_sweep_csv(path: Path) -> list[dict[str, Any]]:
    def parse(row: list[str]) -> dict[str, Any]:
        rec: dict[str, Any] = dict(zip(_SWEEP_HEADER, row))
        for key in ("tau", "theta", "snr"):
            rec[key] = float(rec[key])
        for key in ("a_fast", "t_fast", "a_slow", "t_slow"):
            rec[key] = float(rec[key]) if rec[key] else None
        rec["n_star"] = int(rec["n_star"])
        return rec

    return _read_csv(path, _SWEEP_HEADER, parse)


def write_distribution_csv(path: Path, dists: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """dists maps n -> (size_grid, f)."""
    _write_per_n(path, ["n", "s", "f"], dists, _fmt)


def read_distribution_csv(path: Path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    return _read_per_n(path, ["n", "s", "f"], float)


def write_json(path: Path, doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- run manifest and config ----------------------------------------------


def write_manifest(out_dir: Path, command: str, config: dict) -> Path:
    """Write ``manifest.json``: the tool, the command, the resolved config
    and the OpenBLAS thread count in effect (null without OpenBLAS)."""
    from . import __version__

    path = out_dir / "manifest.json"
    write_json(
        path,
        {
            "tool": TOOL_NAME,
            "tool_version": __version__,
            "command": command,
            "config": config,
            "blas_threads": blas.thread_count(),
        },
    )
    return path


def read_manifest(path: Path) -> dict:
    doc = read_json(path)
    for key in ("tool", "tool_version", "command", "config"):
        if key not in doc:
            raise ConfigError(f"{path}: manifest missing key {key!r}")
    return doc


class OutputLock:
    """Exclusive per-run lock on the output directory."""

    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory {self.path.parent} is locked by another run "
                f"(remove {self.path} if stale)"
            ) from None
        os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def load_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: line {err.lineno}, col {err.colno}: {err.msg}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc

