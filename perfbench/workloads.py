"""The benchmark's workloads: seeded inputs, the timed operation, and checks.

Each workload is a closed loop with one caller. Its inputs (couplings,
noise seed, start state) come from the workload seed alone; mqcsim only
ever sees the generated configs and arrays. The constructor is the
set-up before the timed interval, ``run`` is the timed operation, and
``check`` runs after it and returns a list of failure messages (empty
when the outputs are correct). ``digest`` hashes the outputs, so runs of
one seed can be compared, traced against untraced.

The routes inside mqcsim that the checks compare share its operator kernel,
so each workload also compares one route against a dense reference built
with numpy and scipy alone (``reference.py``). A wrong kernel then fails
the check even when it is wrong the same way on both mqcsim routes.

The CLI workloads call ``mqcsim.cli.main`` through the module attribute and
the library workload calls ``mqcsim.evolution.evolve`` the same way, so the
traced run can wrap exactly the names these callers look up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import mqcsim.cli
import mqcsim.evolution
from mqcsim import ExplicitCouplings, OperatorKind, build_system
from mqcsim.ddprobe import DdConfig, run_dd, run_dd_stepwise

import reference

SWEEP_COLUMNS = ["tau", "theta", "a_fast", "t_fast", "a_slow", "t_slow",
                 "n_star", "snr", "status"]

# Parameters per workload; the one-line reasons live in BENCHMARK.json and
# README.md. Tests pass smaller sizes through ``params``.
PARAMS: dict[str, dict] = {
    "mqc-n9": {
        "n_spins": 9, "n_max": 8, "tau_dq": 0.05, "n_phases": 32,
        "mode": "ideal", "mismatch": 0.0,
    },
    "sweep-n8": {
        "n_spins": 8, "tau_grid": [0.1, 0.2],
        "theta_grid": [math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2],
        "n_cycles": 2048, "noise_sigma": 0.01, "n_scans": 4,
        "check_cycles": 64,
    },
    "krylov-n14": {"n_spins": 14, "t": 1.6, "check_n_spins": 8},
}


class OperationFailed(RuntimeError):
    """A CLI command of the operation returned a non-zero exit code."""


def seed_bits(seed: int) -> int:
    """Map any integer seed to the non-negative range numpy and mqcsim take."""
    return seed & 0x7FFFFFFFFFFFFFFF


def random_couplings(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric, zero-diagonal couplings uniform in [0.5, 1.5]."""
    d = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    d[iu, ju] = rng.uniform(0.5, 1.5, iu.size)
    return d + d.T


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def _read_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} != {header}")
    return [r for r in rows[1:] if r]


def _read_spectra(path: Path) -> dict[int, dict[int, float]]:
    out: dict[int, dict[int, float]] = {}
    for n, k, value in _read_rows(path, ["n", "k", "value"]):
        out.setdefault(int(n), {})[int(k)] = float(value)
    return out


def _write_config(workdir: Path, seed: int, couplings: np.ndarray,
                  section: str, values: dict) -> str:
    """Write the CLI config for explicit couplings; returns its path."""
    config = {
        "seed": seed_bits(seed),
        "format": "csv",
        "system": {
            "n_spins": len(couplings),
            "geometry": {"kind": "explicit", "couplings": couplings.tolist()},
        },
        section: values,
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class _CliWorkload:
    """An operation made of mqcsim CLI commands writing under ``self.dir``."""

    dir: Path
    commands: list[list[str]]

    def run(self) -> None:
        for argv in self.commands:
            code = mqcsim.cli.main(argv)
            if code != 0:
                raise OperationFailed(f"mqcsim {argv[0]} exited with code {code}")

    def digest(self) -> str:
        """Hash of every output file except the manifests, which name the run's paths."""
        h = hashlib.sha256()
        for path in sorted(self.dir.rglob("*")):
            if path.is_file() and path.parent != self.dir and path.name != "manifest.json":
                h.update(str(path.relative_to(self.dir)).encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


class MqcPipeline(_CliWorkload):
    """README pipeline: simulate-mqc, invert the density spectra, fit-growth."""

    def __init__(self, seed: int, workdir: Path, params: dict):
        self.p = params
        self.dir = workdir
        rng = np.random.default_rng(seed_bits(seed))
        self.couplings = random_couplings(rng, params["n_spins"])
        cfg = _write_config(
            workdir, seed, self.couplings, "mqc",
            {k: params[k] for k in ("n_max", "tau_dq", "n_phases", "mode", "mismatch")},
        )
        sim, inv, fit = (str(workdir / d) for d in ("sim", "inv", "fit"))
        self.commands = [
            ["simulate-mqc", "--config", cfg, "--out", sim],
            ["invert", "--config", cfg, "--out", inv,
             f"{sim}/spectrum_density.csv"],
            ["fit-growth", "--config", cfg, "--out", fit,
             "--tau-dq", repr(params["tau_dq"]),
             f"{inv}/spectrum_density_analytics.json"],
        ]

    def check(self) -> list[str]:
        fails = []
        n_max = self.p["n_max"]
        sim = self.dir / "sim"
        cycled = _read_spectra(sim / "spectrum_phases.csv")
        oracle = _read_spectra(sim / "spectrum_density.csv")
        dense = reference.coherence_spectra(self.couplings, n_max, self.p["tau_dq"])
        for n in range(n_max + 1):
            a, b = cycled.get(n), oracle.get(n)
            if a is None or b is None:
                fails.append(f"spectrum n={n} missing")
                continue
            diff = max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))
            if not diff <= 1e-8:
                fails.append(f"n={n}: phase-cycled vs density spectrum differ by {diff:.3e}")
            ref = dense[n]
            diff = max(abs(b.get(k, 0.0) - ref.get(k, 0.0)) for k in set(b) | set(ref))
            if not diff <= 1e-8:
                fails.append(f"n={n}: density spectrum vs dense reference differ by {diff:.3e}")
            for name, spec in (("phase-cycled", a), ("density", b)):
                odd = sum(v for k, v in spec.items() if k % 2)
                if not odd <= 1e-10:
                    fails.append(f"n={n}: {name} odd-order weight {odd:.3e}")
        echo = {int(n): float(v) for n, v in
                _read_rows(sim / "loschmidt.csv", ["n", "value"])}
        if sorted(echo) != list(range(n_max + 1)):
            fails.append(f"loschmidt series covers n={sorted(echo)}")
        worst = max((abs(v - 1.0) for v in echo.values()), default=math.inf)
        if not worst <= 1e-10:
            fails.append(f"loschmidt echo deviates from 1 by {worst:.3e}")

        inv = self.dir / "inv"
        entries = json.loads((inv / "spectrum_density_analytics.json").read_text())["entries"]
        f_by_n: dict[int, list[float]] = {}
        for n, _s, f in _read_rows(inv / "spectrum_density_distributions.csv",
                                   ["n", "s", "f"]):
            f_by_n.setdefault(int(n), []).append(float(f))
        for n in range(1, n_max + 1):
            status = entries.get(str(n), {}).get("status")
            if status != "ok":
                fails.append(f"invert n={n}: status {status!r}")
            f = f_by_n.get(n, [])
            if not f or min(f) < 0.0:
                fails.append(f"invert n={n}: distribution empty or negative")

        report = json.loads((self.dir / "fit" / "growth_report.json").read_text())
        status = report.get("front_97", {}).get("status")
        if status != "ok":
            fails.append(f"fit-growth front_97: status {status!r}")
        return fails


class DdSweep(_CliWorkload):
    """CLI sweep over a (tau, theta) grid with noise and scans."""

    def __init__(self, seed: int, workdir: Path, params: dict):
        self.p = params
        self.dir = workdir
        self.seed = seed
        rng = np.random.default_rng(seed_bits(seed))
        self.couplings = random_couplings(rng, params["n_spins"])
        cfg = _write_config(
            workdir, seed, self.couplings, "sweep",
            {k: params[k] for k in
             ("tau_grid", "theta_grid", "n_cycles", "noise_sigma", "n_scans")},
        )
        self.commands = [["sweep", "--config", cfg, "--out", str(workdir / "sweep")]]

    def check(self) -> list[str]:
        fails = []
        p = self.p
        rows = _read_rows(self.dir / "sweep" / "sweep.csv", SWEEP_COLUMNS)
        grid = [(tau, theta) for tau in p["tau_grid"] for theta in p["theta_grid"]]
        if len(rows) != len(grid):
            fails.append(f"sweep table has {len(rows)} rows, expected {len(grid)}")
        for row, (tau, theta) in zip(rows, grid):
            rec = dict(zip(SWEEP_COLUMNS, row))
            where = f"cell tau={rec['tau']} theta={rec['theta']}"
            if (float(rec["tau"]), float(rec["theta"])) != (tau, theta):
                fails.append(f"{where}: expected tau={tau} theta={theta}")
            status = rec["status"]
            if status == "ok":
                vals = [float(rec[k]) for k in SWEEP_COLUMNS[:-1]]
                if not all(math.isfinite(v) for v in vals):
                    fails.append(f"{where}: non-finite value in an ok row")
                elif not 0.0 < float(rec["t_fast"]) <= float(rec["t_slow"]):
                    fails.append(f"{where}: t_fast {rec['t_fast']} t_slow {rec['t_slow']}")
                elif not 1 <= int(rec["n_star"]) <= p["n_cycles"]:
                    fails.append(f"{where}: n_star {rec['n_star']} out of range")
            elif not status.startswith("fit_failed: "):
                fails.append(f"{where}: status {status!r}")

        # spectral against stepwise propagation, noiseless, on one seeded cell
        rng = np.random.default_rng([seed_bits(self.seed), 1])
        tau, theta = grid[int(rng.integers(len(grid)))]
        system = build_system(ExplicitCouplings(self.couplings), p["n_spins"])
        config = DdConfig(tau=tau, theta=theta, n_cycles=p["check_cycles"])
        spectral = run_dd(system, config).values
        routes = [("run_dd_stepwise", run_dd_stepwise(system, config).values),
                  ("the dense reference", reference.dd_series(
                      self.couplings, tau, theta, p["check_cycles"]))]
        for name, values in routes:
            diff = float(np.max(np.abs(spectral - values)))
            if not diff <= 1e-10:
                fails.append(f"run_dd vs {name} at tau={tau} theta={theta}: {diff:.3e}")
        return fails


class KrylovEcho:
    """Library evolve of a random state under Hdq to +t and back to 0."""

    def __init__(self, seed: int, workdir: Path, params: dict):
        self.p = params
        self.seed = seed
        rng = np.random.default_rng(seed_bits(seed))
        n = params["n_spins"]
        self.system = build_system(ExplicitCouplings(random_couplings(rng, n)), n)
        self.psi0 = random_state(rng, self.system.dim)

    def run(self) -> None:
        t = self.p["t"]
        self.psi_t = mqcsim.evolution.evolve(self.psi0, self.system, OperatorKind.HDQ, t)
        self.psi_back = mqcsim.evolution.evolve(
            self.psi_t, self.system, OperatorKind.HDQ, -t
        )

    def digest(self) -> str:
        return hashlib.sha256(self.psi_t.tobytes() + self.psi_back.tobytes()).hexdigest()

    def check(self) -> list[str]:
        fails = []
        back = float(np.linalg.norm(self.psi_back - self.psi0))
        if not back <= 1e-8:
            fails.append(f"||psi_back - psi0|| = {back:.3e}")
        unit = abs(float(np.linalg.norm(self.psi_t)) - 1.0)
        if not unit <= 1e-10:
            fails.append(f"| ||psi(t)|| - 1 | = {unit:.3e}")

        rng = np.random.default_rng([seed_bits(self.seed), 1])
        n = self.p["check_n_spins"]
        couplings = random_couplings(rng, n)
        small = build_system(ExplicitCouplings(couplings), n)
        psi = random_state(rng, small.dim)
        t = self.p["t"]
        kry = mqcsim.evolution.evolve(psi, small, OperatorKind.HDQ, t, method="krylov")
        routes = [("eigen", mqcsim.evolution.evolve(psi, small, OperatorKind.HDQ, t,
                                                    method="eigen")),
                  ("the dense reference", reference.evolve_state(couplings, psi, t))]
        for name, other in routes:
            diff = float(np.max(np.abs(kry - other)))
            if not diff <= 1e-8:
                fails.append(f"N={n} krylov vs {name} differ by {diff:.3e}")
        return fails


KINDS = {"mqc-n9": MqcPipeline, "sweep-n8": DdSweep, "krylov-n14": KrylovEcho}


def make(name: str, seed: int, workdir: Path, params: dict | None = None):
    """Generate the workload's inputs from ``seed`` (the set-up step)."""
    return KINDS[name](seed, workdir, params or PARAMS[name])
