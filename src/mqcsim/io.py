"""Persistence: frozen CSV/JSON schemas, run manifests, config handling.

CSV schemas (column order is part of the contract):

    spectrum:      n,k,value          (normalized coherence weights)
    phase signal:  n,phi,value        (real part of S_{n,phi})
    per-n series:  n,value            (Loschmidt echo, OTOC moment, ...)
    dd series:     cycle,t,value
    sweep:         tau,theta,a_fast,t_fast,a_slow,t_slow,n_star,snr,status
    distribution:  n,s,f

Floats are written with ``repr`` so a rerun with the same seed produces
bit-identical files. JSON documents carry ``schema_version``. The one CSV
reader, :func:`read_spectrum_csv`, validates the header and every row,
reads a written spectrum back exactly and accepts external measured
spectra in the same schema. A file that a reader cannot open, decode as
UTF-8 or parse is a :class:`ConfigError` naming it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path
from typing import Iterable

import numpy as np

from . import blas
from .errors import ConfigError, InvalidParameter

SCHEMA_VERSION = 1
TOOL_NAME = "mqcsim"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def _input_file(path: Path):
    """``path`` open as UTF-8 text; a file that cannot be opened, read or
    decoded is a :class:`ConfigError` naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as err:
        raise ConfigError(f"{path}: cannot read: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None


def _read_csv(path: Path, header: list[str], parse) -> list:
    """``parse(row)`` of each non-empty row below ``header``; a bad header,
    a row of the wrong width or a row that ``parse`` cannot read or refuses
    (a ``ValueError``) is a :class:`ConfigError` naming the file and the
    line."""
    with _input_file(path) as fh:
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


def write_spectrum_csv(path: Path, spectra: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """spectra maps n -> (orders, weights)."""
    _write_per_n(path, ["n", "k", "value"], spectra, int)


def read_spectrum_csv(path: Path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """n -> (orders, weights), each n sorted by order. A value that is not
    finite or a second row of the same (n, k) is a :class:`ConfigError`
    naming the file and the line."""
    seen: set[tuple[int, int]] = set()

    def parse(row):
        n, k, value = int(row[0]), int(row[1]), float(row[2])
        if not np.isfinite(value):
            raise InvalidParameter("value", f"value {row[2]!r} is not finite")
        if (n, k) in seen:
            raise InvalidParameter("k", f"repeated row n={n}, k={k}")
        seen.add((n, k))
        return n, k, value

    out: dict[int, list[tuple[int, float]]] = {}
    for n, k, value in sorted(_read_csv(path, ["n", "k", "value"], parse)):
        out.setdefault(n, []).append((k, value))
    return {n: (np.array([k for k, _ in pairs]), np.array([v for _, v in pairs]))
            for n, pairs in out.items()}


def write_phase_csv(path: Path, signals: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """signals maps n -> (phi, values); the real part is persisted."""
    _write_per_n(path, ["n", "phi", "value"], signals, _fmt)


def write_series_csv(path: Path, values: dict[int, float]) -> None:
    _write_csv(path, ["n", "value"], [(n, _fmt(values[n])) for n in sorted(values)])


def write_dd_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    rows = [(j, _fmt(t), _fmt(v)) for j, (t, v) in enumerate(zip(times, values))]
    _write_csv(path, ["cycle", "t", "value"], rows)


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


def write_distribution_csv(path: Path, dists: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """dists maps n -> (size_grid, f)."""
    _write_per_n(path, ["n", "s", "f"], dists, _fmt)


def write_json(path: Path, doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: Path) -> dict:
    """The JSON document at ``path``; a file that cannot be read or is not
    JSON is a :class:`ConfigError` naming it."""
    with _input_file(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: line {err.lineno}, col {err.colno}: {err.msg}") from None


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
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc

