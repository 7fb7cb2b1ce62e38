"""Command-line front end tying the simulation and inversion pipeline together.

Subcommands: simulate-mqc, simulate-dd, sweep, invert, fit-growth. Every
run writes a manifest echoing the resolved configuration; reruns with an
identical manifest produce bit-identical outputs. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import copy
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io
from .ddprobe import DdConfig, fit_biexponential, run_dd, sweep
from .errors import ConfigError, FitFailure, InvalidGeometry, MqcsimError
from .inversion import analyze, fit_power_law, invert, make_kernel_problem
from .mqc import (
    Mode,
    MqcRun,
    density_spectra,
    loschmidt_echo,
    order_amplitudes,
    otoc_second_moment,
    phase_signals,
    spectrum_from_phases,
    uniform_phase_grid,
)
from .spins import build_system, geometry_from_dict

_DEFAULT_CONFIG: dict = {
    "seed": 0,
    "output_dir": "mqcsim-out",
    "format": "csv",
    "system": {
        "n_spins": 6,
        "max_spins": 14,
        "geometry": {"kind": "all_to_all", "d0": 1.0},
    },
    "mqc": {
        "n_max": 4,
        "tau_dq": 0.05,
        "n_phases": 16,
        "mode": "ideal",
        "mismatch": 0.0,
        "delta1": 3e-6,
        "delta2": 8e-6,
    },
    "dd": {
        "tau": 0.1,
        "theta": 0.7853981633974483,
        "n_cycles": 256,
        "transient_skip": 8,
        "noise_sigma": 0.0,
        "n_scans": 1,
        "detect": "aligned",
    },
    "sweep": {
        # grids include the 45-degree, 2048-cycle operating point
        "tau_grid": [0.05, 0.1, 0.2, 0.4],
        "theta_grid": [0.39269908169872414, 0.7853981633974483,
                       1.1780972450961724, 1.5707963267948966],
        "n_cycles": 2048,
        "transient_skip": 8,
        "noise_sigma": 0.0,
        "n_scans": 1,
    },
    "inversion": {
        "s_min": 1.0,
        "s_max": 10000.0,
        "n_grid": 64,
        "noise_estimate": 0.0,
        "alpha": None,
        "prominence": 0.02,
        "front_fraction": 0.97,
    },
}


def default_config() -> dict:
    return copy.deepcopy(_DEFAULT_CONFIG)


def _merge(base: dict, override: dict) -> dict:
    """Overlay a config on the defaults. Sections merge key by key; a
    field's value, an object such as system.geometry too, replaces the
    default whole."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the type of a field's default -> (check on a configured value, what it must be)
_FIELD_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_is_number, v)),
           "a list of numbers"),
    type(None): (lambda v: v is None or _is_number(v), "a number or null"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


def _check_fields(config: dict, defaults: dict, prefix: str = "") -> None:
    """Reject unknown keys and values whose type differs from the default's.

    The keys inside system.geometry depend on its kind and are left to
    ``geometry_from_dict``.
    """
    for key in config:
        if key not in defaults:
            raise ConfigError(f"unknown config field {prefix}{key}")
    for key, default in defaults.items():
        value = config[key]
        check, expected = _FIELD_TYPES[type(default)]
        if not check(value):
            raise ConfigError(f"config field {prefix}{key} must be {expected}, "
                              f"got {type(value).__name__}")
        if isinstance(default, dict) and not prefix:
            _check_fields(value, default, f"{key}.")


def resolve_config(args) -> dict:
    """Merge the config file and flag overrides into the defaults and check the result."""
    config = default_config()
    if getattr(args, "config", None):
        config = _merge(config, io.load_config(Path(args.config)))
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "out", None):
        config["output_dir"] = args.out
    if getattr(args, "format", None):
        config["format"] = args.format
    _check_fields(config, _DEFAULT_CONFIG)
    if config["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config['format']!r}")
    return config


def _build_system(config: dict):
    system = config["system"]
    try:
        geometry = geometry_from_dict(system["geometry"])
    except KeyError as err:
        raise ConfigError(f"config field system.geometry.{err.args[0]} is missing")
    except (TypeError, InvalidGeometry) as err:
        raise ConfigError(f"config field system.geometry is malformed: {err}")
    return build_system(geometry, system["n_spins"], max_spins=system["max_spins"])


def _prepare_out(config: dict, command: str) -> Path:
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_manifest(out_dir, command, config)
    return out_dir


def cmd_simulate_mqc(config: dict) -> int:
    system = _build_system(config)
    mqc = config["mqc"]
    try:
        mode = Mode(mqc["mode"])
    except ValueError:
        raise ConfigError(f"config field mqc.mode must be one of "
                          f"{[m.value for m in Mode]}, got {mqc['mode']!r}")
    run = MqcRun(
        system=system,
        n_blocks=mqc["n_max"],
        tau_dq=mqc["tau_dq"],
        phases=uniform_phase_grid(mqc["n_phases"]),
        mode=mode,
        mismatch=mqc["mismatch"],
        delta1=mqc["delta1"],
        delta2=mqc["delta2"],
    )
    amps = order_amplitudes(run)
    signals = phase_signals(amps)
    cycled = {}
    for sig in signals:
        try:
            cycled[sig.n_blocks] = spectrum_from_phases(sig)
        except MqcsimError:
            pass  # n with no recoverable weight: skip row, oracle still written
    oracle = density_spectra(amps)
    echo = loschmidt_echo(amps)
    otoc = {n: otoc_second_moment(spec) for n, spec in enumerate(oracle)}

    out_dir = _prepare_out(config, "simulate-mqc")
    if config["format"] == "csv":
        io.write_phase_csv(
            out_dir / "phase_signals.csv",
            {s.n_blocks: (s.phi, s.values) for s in signals},
        )
        io.write_spectrum_csv(
            out_dir / "spectrum_phases.csv",
            {n: (sp.orders, sp.weights) for n, sp in cycled.items()},
        )
        io.write_spectrum_csv(
            out_dir / "spectrum_density.csv",
            {n: (sp.orders, sp.weights) for n, sp in enumerate(oracle)},
        )
        io.write_series_csv(
            out_dir / "loschmidt.csv", {n: float(v) for n, v in enumerate(echo)}
        )
        io.write_series_csv(out_dir / "otoc.csv", otoc)
    else:
        io.write_json(
            out_dir / "results.json",
            {
                "phase_signals": [
                    {"n": s.n_blocks, "phi": s.phi.tolist(),
                     "value": np.real(s.values).tolist()}
                    for s in signals
                ],
                "spectrum_phases": [
                    {"n": n, "k": sp.orders.tolist(), "value": sp.weights.tolist(),
                     "normalization": sp.normalization}
                    for n, sp in sorted(cycled.items())
                ],
                "spectrum_density": [
                    {"n": n, "k": sp.orders.tolist(), "value": sp.weights.tolist(),
                     "normalization": sp.normalization}
                    for n, sp in enumerate(oracle)
                ],
                "loschmidt": echo.tolist(),
                "otoc": [otoc[n] for n in sorted(otoc)],
            },
        )
    print(f"simulate-mqc: wrote n = 0..{run.n_blocks} to {out_dir}")
    return 0


def cmd_simulate_dd(config: dict) -> int:
    system = _build_system(config)
    dd_config = DdConfig(**config["dd"], rng_seed=config["seed"])
    series = run_dd(system, dd_config)
    try:
        fit = fit_biexponential(series)
        fit_doc = {"status": "ok", **asdict(fit)}
    except FitFailure as err:
        fit_doc = {"status": "fit_failed", "message": str(err)}

    out_dir = _prepare_out(config, "simulate-dd")
    if config["format"] == "csv":
        io.write_dd_csv(out_dir / "dd_series.csv", series.times, series.values)
    else:
        io.write_json(
            out_dir / "results.json",
            {"t": series.times.tolist(), "value": series.values.tolist()},
        )
    io.write_json(out_dir / "fit.json", fit_doc)
    print(f"simulate-dd: {dd_config.n_cycles} cycles, fit {fit_doc['status']}")
    return 0


def cmd_sweep(config: dict) -> int:
    system = _build_system(config)
    result = sweep(system, **config["sweep"], base_seed=config["seed"])
    out_dir = _prepare_out(config, "sweep")
    io.write_sweep_csv(out_dir / "sweep.csv", result)

    def grid(attr):
        g = result.grid_of(attr)
        return [[None if np.isnan(v) else v for v in row] for row in g]

    heat = {
        "tau": result.tau_grid.tolist(),
        "theta": result.theta_grid.tolist(),
        "amplitude": grid("amplitude"),
        "t_slow": grid("t_slow"),
        "n_star": grid("n_star"),
        "snr": grid("snr"),
    }
    io.write_json(out_dir / "sweep_heatmap.json", heat)
    n_ok = sum(1 for c in result.cells if c.status == "ok")
    print(f"sweep: {n_ok}/{len(result.cells)} cells fitted, output in {out_dir}")
    return 0


def cmd_invert(config: dict, inputs: list[str], continue_on_error: bool) -> int:
    sec = config["inversion"]
    out_dir = _prepare_out(config, "invert")
    successes = 0
    for path_s in inputs:
        path = Path(path_s)
        spectra = io.read_spectrum_csv(path)
        dists = {}
        entries = {}
        for n in sorted(spectra):
            orders, weights = spectra[n]
            keep = (orders >= 0) & (orders % 2 == 0)
            try:
                problem = make_kernel_problem(
                    orders[keep].astype(float),
                    weights[keep],
                    s_min=sec["s_min"],
                    s_max=sec["s_max"],
                    n_grid=sec["n_grid"],
                    noise_estimate=sec["noise_estimate"],
                )
                dist = invert(problem, sec["alpha"], n_blocks=n)
                analytics = analyze(dist, prominence=sec["prominence"],
                                    front_fraction=sec["front_fraction"])
            except (MqcsimError, ValueError) as err:
                entries[str(n)] = {"status": f"error: {err}"}
                if not continue_on_error:
                    raise MqcsimError(f"{path.name} n={n}: {err}") from err
                continue
            successes += 1
            dists[n] = (dist.size_grid, dist.f)
            entries[str(n)] = {
                "status": "ok",
                "alpha": dist.alpha,
                "residual_norm": dist.residual_norm,
                "total_mass": dist.total_mass,
                "peaks": analytics.peaks,
                "fwhm": analytics.fwhm,
                "populations": analytics.populations,
                "front_97": analytics.front_97,
            }
        stem = path.stem
        io.write_distribution_csv(out_dir / f"{stem}_distributions.csv", dists)
        io.write_json(
            out_dir / f"{stem}_analytics.json",
            {"source": path.name, "entries": entries},
        )
        print(f"invert: {path.name}: {len(dists)}/{len(spectra)} spectra inverted")
    if successes == 0:
        raise MqcsimError("no spectrum could be inverted")
    return 0


def cmd_fit_growth(config: dict, inputs: list[str], tau_dq: float) -> int:
    front_pts: list[tuple[float, float]] = []
    width_pts: list[tuple[float, float]] = []
    for path_s in inputs:
        doc = io.read_json(Path(path_s))
        for n_s, entry in doc.get("entries", {}).items():
            n = int(n_s)
            if n < 1 or entry.get("status") != "ok":
                continue
            t_n = n * tau_dq
            front_pts.append((t_n, float(entry["front_97"])))
            pops = entry.get("populations", [])
            fwhm = entry.get("fwhm", [])
            if pops and fwhm:
                width_pts.append((t_n, float(fwhm[int(np.argmax(pops))])))

    report: dict = {}
    for name, pts, forced in (("front_97", front_pts, 3.0), ("width", width_pts, 2.0)):
        pts.sort()
        t = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        if t.size < 4:
            report[name] = {"status": f"error: need >= 4 points, got {t.size}"}
            continue
        fit = fit_power_law(t, y, forced_exponent=forced)
        report[name] = {"status": "ok", **asdict(fit)}
        print(
            f"fit-growth: {name}: exponent {fit.exponent:.3f} "
            f"(r^2 {fit.r_squared:.4f}); forced {forced:g} "
            f"log-residual {fit.forced_residual:.4f}"
        )

    out_dir = _prepare_out(config, "fit-growth")
    io.write_json(out_dir / "growth_report.json", report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqcsim",
        description="Multiple-quantum coherence scrambling simulations and inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    common(sub.add_parser("simulate-mqc", help="run the MQC protocol end to end"))
    common(sub.add_parser("simulate-dd", help="run one pulse-train acquisition"))
    common(sub.add_parser("sweep", help="map decay fits over a (tau, theta) grid"))

    p_inv = sub.add_parser("invert", help="invert spectra to cluster-size distributions")
    common(p_inv)
    p_inv.add_argument("spectra", nargs="+", help="spectrum CSV files (n,k,value)")
    p_inv.add_argument(
        "--continue-on-error", action="store_true",
        help="record per-spectrum failures and keep going",
    )

    p_fit = sub.add_parser("fit-growth", help="fit growth laws to inverted analytics")
    common(p_fit)
    p_fit.add_argument("analytics", nargs="+", help="analytics JSON files")
    p_fit.add_argument(
        "--tau-dq", type=float, default=1.0,
        help="block duration turning n into t_n (exponents are scale-free)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        out_dir = Path(config["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        with io.OutputLock(out_dir):
            if args.command == "simulate-mqc":
                return cmd_simulate_mqc(config)
            if args.command == "simulate-dd":
                return cmd_simulate_dd(config)
            if args.command == "sweep":
                return cmd_sweep(config)
            if args.command == "invert":
                return cmd_invert(config, args.spectra, args.continue_on_error)
            if args.command == "fit-growth":
                return cmd_fit_growth(config, args.analytics, args.tau_dq)
            parser.error(f"unknown command {args.command}")
    except (ConfigError, FileNotFoundError, ValueError) as err:
        # ValueError: parameter validation raised by the simulation layer
        print(f"mqcsim: config error: {err}", file=sys.stderr)
        return 2
    except (MqcsimError, RuntimeError) as err:
        print(f"mqcsim: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
