"""Command-line front end tying the simulation and inversion pipeline together.

Subcommands: simulate-mqc, simulate-dd, sweep, invert, fit-growth. The
simulations and the sweep write their results as CSV, the one format that
``invert`` reads; the config's ``format`` key accepts only ``csv``. Every
run writes a manifest echoing the resolved configuration; reruns with an
identical manifest produce bit-identical outputs. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error. The library checks
every value range; an :class:`InvalidParameter` it raises for a field of
the command's config section exits 2 naming that field. A command on at
most 10 spins runs with every OpenBLAS on one thread and gives back the
previous counts on exit; the manifest records the count the run used.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import blas, io
from .ddprobe import DdConfig, fit_biexponential, require_fit_window, run_dd, sweep
from .errors import (ConfigError, FitFailure, InvalidParameter, MqcsimError,
                     NoFeasibleSolution, is_number)
from .inversion import analyze, fit_power_law, invert, make_kernel_problem
from .mqc import (
    MqcRun,
    density_spectra,
    loschmidt_echo,
    order_amplitudes,
    otoc_second_moment,
    phase_signals,
    spectrum_from_phases,
    uniform_phase_grid,
)
from .spins import AllToAll, Chain, Lattice3D, build_system, geometry_from_dict

_DEFAULT_CONFIG: dict = {
    "seed": 0,
    "output_dir": "mqcsim-out",
    "format": "csv",  # the one result format; configs that name it still resolve
    "system": {
        "n_spins": 6,
        "geometry": {"kind": "all_to_all", "d0": 1.0},
    },
    "mqc": {
        "n_max": 4,
        "tau_dq": 0.05,
        "n_phases": 16,
        "mode": "ideal",
        "mismatch": 0.0,
    },
    "dd": {
        "tau": 0.1,
        "theta": 0.7853981633974483,
        "n_cycles": 256,
        "transient_skip": 8,
        "noise_sigma": 0.0,
        "n_scans": 1,
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
    },
}


# command -> (the config section it reads, the library parameters whose
# field has another name); any other parameter named like a field of the
# section is that field
_FIELDS = {
    "simulate-mqc": ("mqc", {"n_blocks": "mqc.n_max", "m": "mqc.n_phases",
                             "period": "mqc.tau_dq"}),
    "simulate-dd": ("dd", {"rng_seed": "seed"}),
    "sweep": ("sweep", {"tau": "sweep.tau_grid", "theta": "sweep.theta_grid"}),
    "invert": ("inversion", {}),
}


# up to this many spins (D = 1024) a run pins every OpenBLAS to one thread:
# its dense products are at most D/2 = 512 wide, and extra threads slow them
# down and change their roundoff; larger systems keep the environment's count
_ONE_THREAD_MAX_SPINS = 10


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


# the type of a field's default -> (check on a configured value, what it must be)
_FIELD_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(is_number, v)),
           "a list of numbers"),
    type(None): (lambda v: v is None or is_number(v), "a number or null"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


def _check_fields(config: dict, defaults: dict, prefix: str = "") -> None:
    """Reject unknown keys and values whose type differs from the default's.

    The keys inside system.geometry depend on its kind and are left to the
    library's geometry reader, through ``_build_system``.
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
    if args.config:
        config = _merge(config, io.load_config(Path(args.config)))
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out:
        config["output_dir"] = args.out
    _check_fields(config, _DEFAULT_CONFIG)
    if config["format"] != "csv":
        raise ConfigError(f"format must be csv, got {config['format']!r}")
    return config


def _build_system(config: dict):
    """The configured system; an InvalidParameter from the library exits 2
    naming system.n_spins or the system.geometry key behind it.

    Only the explicit kind has a ``couplings`` key. Couplings that another
    kind builds and ``SpinSystem`` refuses name the key that scales them:
    a chain's exponent when it is negative, so that couplings grow with
    distance, and d0 otherwise.
    """
    system = config["system"]
    geometry = None
    try:
        geometry = geometry_from_dict(system["geometry"])
        return build_system(geometry, system["n_spins"])
    except InvalidParameter as err:
        name = err.name
        if name == "couplings" and isinstance(geometry, (AllToAll, Chain, Lattice3D)):
            name = "exponent" if isinstance(geometry, Chain) and geometry.exponent < 0 else "d0"
        field = "n_spins" if name == "n_spins" else f"geometry.{name}"
        raise ConfigError(f"config field system.{field} is invalid: {err}") from err


def _config_field(command: str, err: Exception) -> str | None:
    """The config field behind ``err`` if it is an InvalidParameter naming
    a field of the command's section, else None."""
    if command not in _FIELDS or not isinstance(err, InvalidParameter):
        return None
    section, renamed = _FIELDS[command]
    if err.name in renamed:
        return renamed[err.name]
    return f"{section}.{err.name}" if err.name in _DEFAULT_CONFIG[section] else None


def _prepare_out(config: dict, command: str) -> Path:
    out_dir = Path(config["output_dir"])
    io.write_manifest(out_dir, command, config)
    return out_dir


def cmd_simulate_mqc(config: dict) -> int:
    system = _build_system(config)
    mqc = config["mqc"]
    run = MqcRun(
        system=system,
        n_blocks=mqc["n_max"],
        tau_dq=mqc["tau_dq"],
        phases=uniform_phase_grid(mqc["n_phases"]),
        mode=mqc["mode"],
        mismatch=mqc["mismatch"],
    )
    amps = order_amplitudes(run)
    signals = phase_signals(amps)
    cycled = {}
    for sig in signals:
        try:
            cycled[sig.n_blocks] = spectrum_from_phases(sig)
        except NoFeasibleSolution:
            pass  # n with no recoverable weight: skip row, oracle still written
    oracle = density_spectra(amps)
    echo = loschmidt_echo(amps)
    otoc = {n: otoc_second_moment(spec) for n, spec in enumerate(oracle)}

    out_dir = _prepare_out(config, "simulate-mqc")
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
    print(f"simulate-mqc: wrote n = 0..{run.n_blocks} to {out_dir}")
    return 0


def cmd_simulate_dd(config: dict) -> int:
    system = _build_system(config)
    dd_config = DdConfig(**config["dd"], rng_seed=config["seed"])
    require_fit_window(dd_config.n_cycles, dd_config.transient_skip)
    series = run_dd(system, dd_config)
    try:
        fit = fit_biexponential(series)
        fit_doc = {"status": "ok", **asdict(fit)}
    except FitFailure as err:
        fit_doc = {"status": "fit_failed", "message": str(err)}

    out_dir = _prepare_out(config, "simulate-dd")
    io.write_dd_csv(out_dir / "dd_series.csv", series.times, series.values)
    io.write_json(out_dir / "fit.json", fit_doc)
    print(f"simulate-dd: {dd_config.n_cycles} cycles, fit {fit_doc['status']}")
    return 0


def cmd_sweep(config: dict) -> int:
    system = _build_system(config)
    result = sweep(system, **config["sweep"], base_seed=config["seed"])
    out_dir = _prepare_out(config, "sweep")
    io.write_sweep_csv(out_dir / "sweep.csv", result)
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
                dist = invert(problem, sec["alpha"])
                analytics = analyze(dist)
            except (MqcsimError, ValueError) as err:
                if _config_field("invert", err):
                    raise  # a bad inversion.* value fails every spectrum
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
        entries = doc.get("entries") if isinstance(doc, dict) else None
        if not (isinstance(entries, dict)
                and all(isinstance(e, dict) for e in entries.values())):
            raise ConfigError(f"{path_s}: expected an object whose 'entries' are objects")
        for n_s, entry in entries.items():
            try:
                n = int(n_s)
            except ValueError:
                raise ConfigError(f"{path_s}: entry key {n_s!r} is not an integer") from None
            if n < 1 or entry.get("status") != "ok":
                continue
            if "front_97" not in entry:
                raise ConfigError(f"{path_s}: entry {n_s} missing key 'front_97'")
            if not is_number(entry["front_97"]):
                raise ConfigError(f"{path_s}: entry {n_s} 'front_97' must be a number, "
                                  f"got {entry['front_97']!r}")
            t_n = n * tau_dq
            front_pts.append((t_n, float(entry["front_97"])))
            pops = entry.get("populations", [])
            fwhm = entry.get("fwhm", [])
            if not (isinstance(pops, list) and isinstance(fwhm, list)
                    and len(pops) == len(fwhm) and all(map(is_number, pops + fwhm))):
                raise ConfigError(f"{path_s}: entry {n_s} 'populations' and 'fwhm' "
                                  f"must be lists of numbers of equal length")
            if pops:
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
        return p

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
    if args.command == "fit-growth" and not 0 < args.tau_dq < np.inf:
        parser.error(f"argument --tau-dq: must be positive and finite, got {args.tau_dq}")
    try:
        config = resolve_config(args)
        out_dir = Path(config["output_dir"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(
                f"config field output_dir is not a usable directory: {err}")
        one_thread = config["system"]["n_spins"] <= _ONE_THREAD_MAX_SPINS
        with io.OutputLock(out_dir), (
                blas.threads(1) if one_thread else contextlib.nullcontext()):
            try:
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
            except InvalidParameter as err:
                field = _config_field(args.command, err)
                if field is None:
                    raise
                raise ConfigError(f"config field {field} is invalid: {err}") from err
    except (ConfigError, FileNotFoundError) as err:
        print(f"mqcsim: config error: {err}", file=sys.stderr)
        return 2
    except (MqcsimError, ValueError, RuntimeError) as err:
        print(f"mqcsim: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
