import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mqcsim.ddprobe
import mqcsim.spins
from mqcsim import cli
from mqcsim import io as mio
from mqcsim.errors import ConfigError, InvalidParameter

import readers


class TestCsvRoundTrips:
    def test_spectrum(self, tmp_path):
        path = tmp_path / "spec.csv"
        spectra = {
            0: (np.array([-2, 0, 2]), np.array([0.1, 0.8, 0.1])),
            3: (np.array([-2, 0, 2]), np.array([0.25, 0.5, 0.25])),
        }
        mio.write_spectrum_csv(path, spectra)
        back = mio.read_spectrum_csv(path)
        assert set(back) == {0, 3}
        for n in spectra:
            assert np.array_equal(back[n][0], spectra[n][0])
            assert np.array_equal(back[n][1], spectra[n][1])

    def test_phase(self, tmp_path):
        path = tmp_path / "phase.csv"
        signals = {1: (np.linspace(0, 6, 7), np.linspace(1, 0.4, 7))}
        mio.write_phase_csv(path, signals)
        back = readers.read_phase_csv(path)
        assert np.array_equal(back[1][0], signals[1][0])
        assert np.array_equal(back[1][1], signals[1][1])

    def test_series(self, tmp_path):
        path = tmp_path / "series.csv"
        mio.write_series_csv(path, {0: 1.0, 1: 0.25})
        assert readers.read_series_csv(path) == {0: 1.0, 1: 0.25}

    def test_dd(self, tmp_path):
        path = tmp_path / "dd.csv"
        t = np.array([0.05, 0.15])
        v = np.array([1.0, 0.97])
        mio.write_dd_csv(path, t, v)
        bt, bv = readers.read_dd_csv(path)
        assert np.array_equal(bt, t)
        assert np.array_equal(bv, v)

    def test_distribution(self, tmp_path):
        path = tmp_path / "dist.csv"
        dists = {2: (np.geomspace(1, 100, 5), np.array([0, 0.5, 1.0, 0.5, 0]))}
        mio.write_distribution_csv(path, dists)
        back = readers.read_distribution_csv(path)
        assert np.array_equal(back[2][0], dists[2][0])
        assert np.array_equal(back[2][1], dists[2][1])

    def test_per_n_table_bytes(self, tmp_path):
        # k is written as an integer, every other number as its repr, and a
        # phase signal as its real part
        tables = [
            (mio.write_spectrum_csv, {1: (np.array([-2, 0]), np.array([0.1, 1 / 3]))},
             b"n,k,value\r\n1,-2,0.1\r\n1,0,0.3333333333333333\r\n"),
            (mio.write_phase_csv, {1: (np.array([0.0, np.pi]), np.array([1 + 2j, -0.5j]))},
             b"n,phi,value\r\n1,0.0,1.0\r\n1,3.141592653589793,-0.0\r\n"),
            (mio.write_distribution_csv, {2: (np.array([1.0, 10.0]), np.array([0.0, 0.25]))},
             b"n,s,f\r\n2,1.0,0.0\r\n2,10.0,0.25\r\n"),
        ]
        for write, table, expected in tables:
            path = tmp_path / "table.csv"
            write(path, table)
            assert path.read_bytes() == expected, write.__name__

    def test_spectrum_reader_sorts_by_order(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("n,k,value\n1,2,0.2\n1,-2,0.1\n1,0,0.7\n")
        orders, weights = mio.read_spectrum_csv(path)[1]
        assert orders.tolist() == [-2, 0, 2]
        assert weights.tolist() == [0.1, 0.7, 0.2]

    @pytest.mark.parametrize("header, read", [
        ("n,phi,value", readers.read_phase_csv),
        ("n,s,f", readers.read_distribution_csv),
    ])
    def test_reader_keeps_file_order(self, tmp_path, header, read):
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n1,3.0,0.5\n1,1.0,0.25\n")
        xs, values = read(path)[1]
        assert xs.tolist() == [3.0, 1.0]
        assert values.tolist() == [0.5, 0.25]

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            mio.read_spectrum_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("x,0,1.0", "line 3: invalid literal for int()"),
        ("1,0", "line 3: expected 3 fields, got 2"),
        ("1,0.5,1.0", "line 3: invalid literal for int()"),
        ("1,2,nan", "line 3: value 'nan' is not finite"),
        ("1,2,-inf", "line 3: value '-inf' is not finite"),
        ("1,0,0.25", "line 3: repeated row n=1, k=0"),
    ], ids=["string-n", "short-row", "fractional-k", "nan-value", "inf-value",
            "repeated-row"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,k,value\n1,0,0.5\n{row}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            mio.read_spectrum_csv(path)


class TestManifest:
    def test_roundtrip_identity(self, tmp_path):
        config = cli.default_config()
        config["seed"] = 41
        path = mio.write_manifest(tmp_path, "simulate-mqc", config)
        doc = readers.read_manifest(path)
        assert doc["config"] == config
        assert doc["command"] == "simulate-mqc"
        assert doc["tool"] == "mqcsim"

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"tool": "mqcsim"}))
        with pytest.raises(ConfigError):
            readers.read_manifest(path)


def run_cli(tmp_path, *argv):
    return cli.main([*argv])


def write_config(tmp_path, **overrides):
    config = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "system": {"n_spins": 2, "geometry": {"kind": "all_to_all", "d0": 1.0}},
        "mqc": {"n_max": 2, "tau_dq": 0.3, "n_phases": 8, "mode": "ideal"},
        "dd": {"tau": 0.2, "theta": 0.785398163, "n_cycles": 32},
        "sweep": {"tau_grid": [0.2], "theta_grid": [0.785398163], "n_cycles": 32},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            config.setdefault(key, {}).update(val)
        else:
            config[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, Path(config["output_dir"])


class TestCli:
    def test_simulate_mqc_two_spin_formulas(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 0
        spectra = mio.read_spectrum_csv(out / "spectrum_density.csv")
        t = 2 * 0.3
        orders, weights = spectra[2]
        k0 = int(np.nonzero(orders == 0)[0][0])
        k2 = int(np.nonzero(orders == 2)[0][0])
        assert weights[k0] == pytest.approx(np.cos(t) ** 2, abs=1e-9)
        assert weights[k2] == pytest.approx(np.sin(t) ** 2 / 2, abs=1e-9)
        echo = readers.read_series_csv(out / "loschmidt.csv")
        assert echo[2] == pytest.approx(1.0, abs=1e-9)
        manifest = readers.read_manifest(out / "manifest.json")
        assert manifest["config"]["seed"] == 7
        assert sorted(p.name for p in out.iterdir()) == [
            "loschmidt.csv", "manifest.json", "otoc.csv", "phase_signals.csv",
            "spectrum_density.csv", "spectrum_phases.csv"]

    def test_simulate_mqc_n_zero_single_row(self, tmp_path):
        cfg, out = write_config(tmp_path, mqc={"n_max": 0})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 0
        spectra = mio.read_spectrum_csv(out / "spectrum_phases.csv")
        orders, weights = spectra[0]
        assert weights[np.nonzero(orders == 0)[0][0]] == pytest.approx(1.0)
        assert np.sum(weights) == pytest.approx(1.0)

    def test_simulate_mqc_pulse_level(self, tmp_path):
        # the eight-pulse cycle end to end: its reversed cycle undoes the
        # forward one to leading order at d0 * tau_dq = 0.03
        cfg, out = write_config(
            tmp_path,
            system={"n_spins": 4, "geometry": {"kind": "all_to_all", "d0": 500.0}},
            mqc={"n_max": 4, "tau_dq": 6e-5, "n_phases": 16, "mode": "pulse"})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 0
        echo = readers.read_series_csv(out / "loschmidt.csv")
        assert sorted(echo) == [0, 1, 2, 3, 4]
        assert all(abs(v - 1.0) < 1e-6 for v in echo.values())
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == first

    def test_rerun_bit_identical(self, tmp_path):
        cfg, out = write_config(tmp_path, dd={"noise_sigma": 0.05, "n_scans": 4})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert first == second
        assert sorted(first) == ["dd_series.csv", "fit.json", "manifest.json"]

    def test_seed_flag_changes_noise(self, tmp_path):
        cfg, out = write_config(tmp_path, dd={"noise_sigma": 0.05})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0
        a = (out / "dd_series.csv").read_bytes()
        assert cli.main(["simulate-dd", "--config", str(cfg), "--seed", "8"]) == 0
        b = (out / "dd_series.csv").read_bytes()
        assert a != b

    def test_sweep_single_cell_matches_simulate_dd(self, tmp_path):
        # the cell (0, 0) is seeded with the run seed itself: same noise, same fit
        noise = {"n_cycles": 256, "noise_sigma": 0.01, "n_scans": 4}
        cfg, _ = write_config(
            tmp_path, system={"n_spins": 4, "geometry": {"kind": "chain", "d0": 1.0}},
            dd=noise, sweep=noise)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        assert cli.main(["simulate-dd", "--config", str(cfg), "--out", str(tmp_path / "dd")]) == 0
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
            "manifest.json", "sweep.csv"]
        rows = readers.read_sweep_csv(tmp_path / "sweep" / "sweep.csv")
        fit = mio.read_json(tmp_path / "dd" / "fit.json")
        assert fit["schema_version"] == 1
        assert len(rows) == 1
        assert rows[0]["status"] == fit["status"] == "ok"
        for key in ("a_fast", "t_fast", "a_slow", "t_slow"):
            assert rows[0][key] == fit[key], key

    def test_default_sweep_grid_contains_paper_point(self):
        config = cli.default_config()
        assert any(
            abs(th - np.pi / 4) < 1e-9 for th in config["sweep"]["theta_grid"]
        )
        assert config["sweep"]["n_cycles"] == 2048

    def test_invert_and_fit_growth(self, tmp_path):
        # synthetic spectra with fronts growing ~ t^3
        out = tmp_path / "out"
        spectra = {}
        for n in range(1, 7):
            s_n = 3.0 * n**3
            k = np.arange(0, 42, 2.0)
            spectra[n] = (k.astype(int), np.exp(-(k**2) / s_n))
        spec_path = tmp_path / "spec.csv"
        mio.write_spectrum_csv(spec_path, spectra)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "output_dir": str(out),
            "inversion": {"noise_estimate": 1e-6, "s_min": 1.0, "s_max": 10000.0,
                          "n_grid": 64},
        }))
        assert cli.main(["invert", "--config", str(cfg), str(spec_path)]) == 0
        analytics = out / "spec_analytics.json"
        assert analytics.exists()
        doc = mio.read_json(analytics)
        assert doc["entries"]["3"]["status"] == "ok"
        dists = readers.read_distribution_csv(out / "spec_distributions.csv")
        assert set(dists) == set(range(1, 7))

        assert cli.main([
            "fit-growth", "--config", str(cfg), str(analytics), "--tau-dq", "0.1",
        ]) == 0
        report = mio.read_json(out / "growth_report.json")
        assert report["front_97"]["status"] == "ok"
        assert report["front_97"]["exponent"] == pytest.approx(3.0, abs=0.35)

    def test_growth_fit_exact_cubic_fixture(self, tmp_path):
        out = tmp_path / "out"
        entries = {
            str(n): {
                "status": "ok",
                "front_97": 5.0 * (0.1 * n) ** 3,
                "populations": [1.0],
                "fwhm": [2.0 * (0.1 * n) ** 2],
            }
            for n in range(1, 8)
        }
        analytics = tmp_path / "a.json"
        analytics.write_text(json.dumps({"entries": entries}))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"output_dir": str(out)}))
        assert cli.main([
            "fit-growth", "--config", str(cfg), str(analytics), "--tau-dq", "0.1",
        ]) == 0
        report = mio.read_json(out / "growth_report.json")
        assert report["front_97"]["exponent"] == pytest.approx(3.0, abs=0.01)
        assert report["width"]["exponent"] == pytest.approx(2.0, abs=0.01)

    def test_fit_growth_pools_files_with_shared_orders(self, tmp_path):
        # two analytics files over the same orders give every time twice
        out = tmp_path / "out"
        entries = {
            str(n): {"status": "ok", "front_97": 5.0 * (0.1 * n) ** 3}
            for n in range(1, 6)
        }
        analytics = tmp_path / "a.json"
        analytics.write_text(json.dumps({"entries": entries}))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"output_dir": str(out)}))
        assert cli.main([
            "fit-growth", "--config", str(cfg), str(analytics), str(analytics),
            "--tau-dq", "0.1",
        ]) == 0
        report = mio.read_json(out / "growth_report.json")
        assert report["front_97"]["exponent"] == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("tau_dq", ["0", "-1", "nan", "inf"])
    def test_fit_growth_bad_tau_dq_usage_error(self, tmp_path, capsys, tau_dq):
        out = tmp_path / "out"
        entries = {str(n): {"status": "ok", "front_97": float(n**3)} for n in range(1, 6)}
        analytics = tmp_path / "a.json"
        analytics.write_text(json.dumps({"entries": entries}))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"output_dir": str(out)}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit-growth", "--config", str(cfg), str(analytics), "--tau-dq", tau_dq])
        assert exc.value.code == 2
        assert "--tau-dq" in capsys.readouterr().err
        assert not out.exists()  # refused before anything is written

    @pytest.mark.parametrize("doc, message", [
        ({"entries": {str(n): {"status": "ok"} for n in range(1, 6)}},
         "entry 1 missing key 'front_97'"),
        ([{"status": "ok", "front_97": 1.0}], "expected an object whose 'entries'"),
        ({"command": "invert"}, "expected an object whose 'entries' are objects"),
        ({"entries": [1, 2]}, "expected an object whose 'entries' are objects"),
        ({"entries": {"x": {"status": "ok", "front_97": 1.0}}},
         "entry key 'x' is not an integer"),
        ({"entries": {"1": {"status": "ok", "front_97": "big"}}},
         "entry 1 'front_97' must be a number, got 'big'"),
        ({"entries": {"1": {"status": "ok", "front_97": 1.0, "populations": [1, 2],
                            "fwhm": [1.0]}}},
         "entry 1 'populations' and 'fwhm' must be lists of numbers of equal length"),
    ], ids=["no-front", "top-level-list", "no-entries", "entries-list", "string-key",
            "string-front", "short-fwhm"])
    def test_fit_growth_malformed_analytics_exit_2(self, tmp_path, capsys, doc, message):
        analytics = tmp_path / "a.json"
        analytics.write_text(json.dumps(doc))
        cfg, out = write_config(tmp_path)
        assert cli.main(["fit-growth", "--config", str(cfg), str(analytics)]) == 2
        assert f"mqcsim: config error: {analytics}: {message}" in capsys.readouterr().err
        assert not (out / "growth_report.json").exists()

    def test_fit_growth_non_positive_fronts_exit_1(self, tmp_path, capsys):
        # the fit's InvalidParameter names no config field: the run failed
        entries = {str(n): {"status": "ok", "front_97": 2.0 - n} for n in range(1, 6)}
        analytics = tmp_path / "a.json"
        analytics.write_text(json.dumps({"entries": entries}))
        cfg, _ = write_config(tmp_path)
        assert cli.main(["fit-growth", "--config", str(cfg), str(analytics)]) == 1
        err = capsys.readouterr().err
        assert "power-law fit needs positive values" in err
        assert "config error" not in err

    def test_invert_malformed_spectrum_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.csv"
        spec.write_text("n,k,value\n1,0,1.0\nx,0,1.0\n")
        cfg, out = write_config(tmp_path)
        assert cli.main(["invert", "--config", str(cfg), str(spec)]) == 2
        assert (f"mqcsim: config error: {spec}: line 3: invalid literal for int()"
                in capsys.readouterr().err)
        assert not list(out.glob("spec_*"))

    def test_invert_empty_args_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["invert"])
        assert exc.value.code == 2

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["simulate-mqc", "--config", str(bad)]) == 2

    def test_missing_config_file_exit_2(self, tmp_path):
        assert cli.main(
            ["simulate-mqc", "--config", str(tmp_path / "nope.json")]
        ) == 2

    @pytest.mark.parametrize("command, content, message", [
        ("simulate-mqc", None, "cannot read: Is a directory"),
        ("invert", None, "cannot read: Is a directory"),
        ("simulate-mqc", b'{"seed": 7, "output_dir": "\xe9"}', "not UTF-8 text"),
        ("invert", b"n,k,value\n1,0,\xe9\n", "not UTF-8 text"),
        ("fit-growth", b'{"entries": ', "line 1, col 13: Expecting value"),
    ], ids=["directory-config", "directory-spectrum", "latin1-config", "latin1-spectrum",
            "truncated-analytics"])
    def test_unreadable_input_file_exit_2(self, tmp_path, capsys, command, content, message):
        # a file that cannot be opened, decoded or parsed is a bad input file
        bad = tmp_path / "input"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        cfg, _ = write_config(tmp_path)
        argv = ([command, "--config", str(bad)] if command == "simulate-mqc"
                else [command, "--config", str(cfg), str(bad)])
        assert cli.main(argv) == 2
        assert f"mqcsim: config error: {bad}: {message}" in capsys.readouterr().err

    def test_invalid_field_exit_2(self, tmp_path, capsys):
        # csv is the one result format, whatever the command
        for value in ("parquet", "json"):
            cfg, out = write_config(tmp_path, format=value)
            for command in ("simulate-mqc", "simulate-dd", "sweep", "invert", "fit-growth"):
                argv = [command, "--config", str(cfg)]
                if command in ("invert", "fit-growth"):
                    argv.append(str(tmp_path / "in"))
                assert cli.main(argv) == 2, (value, command)
                assert f"format must be csv, got {value!r}" in capsys.readouterr().err
                assert not out.exists(), (value, command)

    def test_wrong_field_type_exit_2(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, mqc={"tau_dq": "abc"})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2
        assert "mqc.tau_dq" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [(None, "output_dir", 5), ("sweep", "tau_grid", ["a"]),
         ("mqc", "n_phases", 8.5), ("inversion", "alpha", "x")],
    )
    def test_mistyped_field_exit_2(self, tmp_path, capsys, section, field, value):
        # a field is checked against its default's type whatever the command
        cfg, _ = write_config(tmp_path)
        config = json.loads(cfg.read_text())
        (config.setdefault(section, {}) if section else config)[field] = value
        cfg.write_text(json.dumps(config))
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2
        name = f"{section}.{field}" if section else field
        assert f"config field {name} must be" in capsys.readouterr().err

    def test_no_reversal_mismatch_exit_2(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, mqc={"mismatch": -1.0})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2
        assert "mismatch must be > -1" in capsys.readouterr().err

    def test_int_for_float_field_runs(self, tmp_path):
        outputs = []
        for tau_dq in (1, 1.0):
            cfg, out = write_config(tmp_path, mqc={"tau_dq": tau_dq})
            assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 0
            outputs.append((out / "spectrum_density.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, mqc={"filter_delay": 1e-4})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2
        assert "unknown config field mqc.filter_delay" in capsys.readouterr().err

    def test_geometry_replaces_default_whole(self, tmp_path):
        couplings = [[0.0, 1.0], [1.0, 0.0]]
        geometry = {"kind": "explicit", "couplings": couplings}
        cfg, out = write_config(tmp_path, system={"geometry": geometry})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0
        manifest = readers.read_manifest(out / "manifest.json")
        assert manifest["config"]["system"]["geometry"] == geometry

    @pytest.mark.parametrize("geometry, message", [
        ({"kind": "chain"}, "system.geometry.d0 is invalid: d0 must be a number, got None"),
        ({"d0": 2.0}, "system.geometry.kind is invalid: unknown geometry kind None"),
    ], ids=["missing-d0", "missing-kind"])
    def test_geometry_missing_field_exit_2(self, tmp_path, capsys, geometry, message):
        # a geometry inherits no key from the default all_to_all geometry
        cfg, _ = write_config(tmp_path, system={"geometry": geometry})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2
        assert f"config field {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("geometry, message", [
        ({"kind": "explicit", "couplings": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
         "system.geometry.couplings is invalid: explicit coupling matrix shape (3, 3) "
         "!= (2, 2)"),
        ({"kind": "explicit", "couplings": [[0, 1], [1, "x"]]},
         "system.geometry.couplings is invalid: couplings must be a number, got 'x'"),
        ({"kind": "all_to_all", "d0": -1.0},
         "system.geometry.d0 is invalid: d0 must be positive"),
        ({"kind": "lattice3d", "d0": 1.0, "cutoff": -1.0},
         "system.geometry.cutoff is invalid: cutoff must be positive"),
        ({"kind": "lattice3d", "d0": 1.0, "cutoff": 2.0, "shape": [2.5, 2, 2]},
         "system.geometry.shape is invalid: lattice3d shape must be three positive"),
        ({"kind": "chain", "d0": "abc"},
         "system.geometry.d0 is invalid: d0 must be a number, got 'abc'"),
        ({"kind": "chain", "d0": 1.0, "exponent": "x"},
         "system.geometry.exponent is invalid: exponent must be a number, got 'x'"),
        ({"kind": "lattice3d", "d0": 1.0, "cutoff": [2.0]},
         "system.geometry.cutoff is invalid: cutoff must be a number, got [2.0]"),
    ], ids=["explicit-shape", "string-coupling", "negative-d0", "negative-cutoff",
            "fractional-shape", "string-d0", "string-exponent", "list-cutoff"])
    def test_invalid_geometry_exit_2(self, tmp_path, capsys, geometry, message):
        cfg, _ = write_config(tmp_path, system={"geometry": geometry})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2
        assert f"config field {message}" in capsys.readouterr().err

    def test_overflowing_couplings_exit_2(self, tmp_path, capsys):
        # every d0 is finite, but three pairs at 1e308 overflow the Hzz diagonal;
        # all_to_all has no couplings key, so the message names d0
        cfg, _ = write_config(tmp_path, system={
            "n_spins": 3, "geometry": {"kind": "all_to_all", "d0": 1e308}})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2
        assert ("config field system.geometry.d0 is invalid: couplings overflow "
                "the Hzz diagonal" in capsys.readouterr().err)

    @pytest.mark.parametrize("geometry, field, reason", [
        # d0 / 2**-1e308 is inf for the spins two sites apart
        ({"kind": "chain", "d0": 1.0, "exponent": -1e308}, "exponent",
         "couplings must be finite"),
        ({"kind": "chain", "d0": 1e308}, "d0", "couplings overflow the Hzz diagonal"),
    ], ids=["exponent", "d0"])
    def test_overflowing_chain_couplings_exit_2(self, tmp_path, capsys, geometry, field, reason):
        cfg, _ = write_config(tmp_path, system={"n_spins": 3, "geometry": geometry})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2
        assert (f"config field system.geometry.{field} is invalid: {reason}"
                in capsys.readouterr().err)

    def test_too_few_spins_exit_2(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, system={"n_spins": 1})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2
        assert ("config field system.n_spins is invalid: need at least 2 spins"
                in capsys.readouterr().err)

    def test_malformed_section_exit_2(self, tmp_path):
        cfg, _ = write_config(tmp_path, system=5)
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2

    def test_invalid_parameter_value_exit_2(self, tmp_path):
        cfg, _ = write_config(tmp_path, dd={"tau": -0.5})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command, section, key, value", [
        ("simulate-mqc", "mqc", "n_max", -1),
        ("simulate-mqc", "mqc", "tau_dq", 0),
        ("simulate-mqc", "mqc", "n_phases", 1),
        ("simulate-mqc", "mqc", "mode", "x"),
        ("simulate-mqc", "mqc", "mismatch", -1),
        ("simulate-dd", "dd", "theta", 4.0),
        ("simulate-dd", "dd", "n_cycles", 0),
        ("simulate-dd", "dd", "transient_skip", 300),
        ("simulate-dd", "dd", "noise_sigma", -1),
        ("simulate-dd", "dd", "n_scans", 0),
        ("simulate-dd", "dd", "tau", 0),
        ("sweep", "sweep", "tau_grid", []),
        ("sweep", "sweep", "theta_grid", [4.0]),
        ("sweep", "sweep", "n_cycles", 0),
        ("invert", "inversion", "n_grid", 4),
        ("invert", "inversion", "s_min", 0),
        ("invert", "inversion", "noise_estimate", -1),
        ("invert", "inversion", "alpha", -1),
    ])
    def test_out_of_range_field_exit_2(self, tmp_path, capsys, command, section, key,
                                       value):
        # the library checks the range; the message names the config field
        cfg, out = write_config(tmp_path, **{section: {key: value}})
        runs = [[command, "--config", str(cfg)]]
        if command == "invert":
            spec = tmp_path / "spec.csv"
            k = np.arange(0, 12, 2)
            mio.write_spectrum_csv(spec, {n: (k, np.exp(-(k**2) / (4.0 * n)))
                                          for n in (1, 2)})
            # a bad inversion.* value fails every spectrum, not just one
            runs = [[*runs[0], str(spec)], [*runs[0], str(spec), "--continue-on-error"]]
        for argv in runs:
            assert cli.main(argv) == 2
            assert f"config field {section}.{key} is invalid" in capsys.readouterr().err
        if command != "invert":
            assert not (out / "manifest.json").exists()

    def test_negative_seed_refused_before_simulating(self, tmp_path, capsys, monkeypatch):
        cfg, out = write_config(tmp_path, dd={"noise_sigma": 0.05})
        calls = []
        monkeypatch.setattr(cli, "run_dd", lambda *args: calls.append(args))
        assert cli.main(["simulate-dd", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "config field seed is invalid" in capsys.readouterr().err
        assert not calls
        assert not (out / "manifest.json").exists()
        # a sweep mixes any seed into range per cell
        assert cli.main(["sweep", "--config", str(cfg), "--seed", "-1"]) == 0

    @pytest.mark.parametrize("command, section", [("simulate-dd", "dd"), ("sweep", "sweep")])
    def test_oversized_transient_skip_refused_before_simulating(self, tmp_path, capsys,
                                                                monkeypatch, command, section):
        # 32 cycles less a skip of 25 leave 7 samples, one short of a fit
        def no_run(*args):
            raise AssertionError("run_dd called")

        monkeypatch.setattr(cli, "run_dd", no_run)
        monkeypatch.setattr(mqcsim.ddprobe, "run_dd", no_run)
        cfg, out = write_config(tmp_path, **{section: {"transient_skip": 25}})
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert f"config field {section}.transient_skip is invalid" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("error", [
        ValueError("operands could not be broadcast together"),
        InvalidParameter("t", "evolution time must be finite, got nan"),
    ], ids=["value-error", "not-a-config-field"])
    def test_library_failure_exit_1(self, tmp_path, capsys, monkeypatch, error):
        def failing(run):
            raise error

        monkeypatch.setattr(cli, "order_amplitudes", failing)
        cfg, out = write_config(tmp_path)
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(error) in err
        assert "config error" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command", ["simulate-mqc", "simulate-dd", "sweep", "invert", "fit-growth"])
    def test_format_flag_refused(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--format", "json", "in.csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_unusable_output_dir_exit_2(self, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if where == "file" else blocker / "out"
        cfg, _ = write_config(tmp_path, output_dir=str(out))
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2
        assert "config field output_dir" in capsys.readouterr().err

    def test_detect_is_unknown_field(self, tmp_path, capsys):
        # the DD readout is Tr{Ix rho_j}; there is no detect mode to choose
        cfg, out = write_config(tmp_path, dd={"detect": "aligned"})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2
        assert "unknown config field dd.detect" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("key, value", [("prominence", 0.02), ("front_fraction", 0.97)])
    def test_fixed_inversion_thresholds_are_unknown_fields(self, tmp_path, capsys, key,
                                                           value):
        # a peak needs 2% of max f in prominence and the front holds 97% of
        # the mass; neither threshold is configurable
        cfg, out = write_config(tmp_path, inversion={key: value})
        spec = tmp_path / "spec.csv"
        k = np.arange(0, 12, 2)
        mio.write_spectrum_csv(spec, {1: (k, np.exp(-(k**2) / 4.0))})
        assert cli.main(["invert", "--config", str(cfg), str(spec)]) == 2
        assert f"unknown config field inversion.{key}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_max_spins_is_unknown_field(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, system={"max_spins": 20})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2
        assert "unknown config field system.max_spins" in capsys.readouterr().err

    def test_over_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", 10**6)
        cfg, out = write_config(tmp_path, system={"n_spins": 8})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert ("the dense order_amplitudes-ideal path at D=256 needs 1363149 bytes, "
                "budget 1000000 bytes") in err
        assert not (out / "manifest.json").exists()
        monkeypatch.undo()
        # 600 spins build; each command's dense path refuses them on any budget
        cfg, out = write_config(tmp_path, system={"n_spins": 600})
        for command, path in (("simulate-mqc", "order_amplitudes-ideal"),
                              ("simulate-dd", "run_dd"), ("sweep", "run_dd")):
            assert cli.main([command, "--config", str(cfg)]) == 1, command
            err = capsys.readouterr().err
            assert f"the dense {path} path at D={1 << 600} needs inf bytes" in err, command
            assert not (out / "manifest.json").exists()

    def test_huge_n_max_refused_exit_1(self, tmp_path, capsys):
        # the per-n tables are counted before they are allocated
        cfg, out = write_config(tmp_path, system={"n_spins": 3}, mqc={"n_max": 10**12})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "the order table of n_blocks=1000000000000 needs 296000000000296 bytes" in err
        assert not (out / "manifest.json").exists()

    def test_huge_n_cycles_refused_exit_1(self, tmp_path, capsys):
        # the series and the signal kernel's grid, 248 bytes a cycle, are
        # counted before the signal is allocated
        cfg, out = write_config(tmp_path, system={"n_spins": 3}, dd={"n_cycles": 10**12})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "a series of 1000000000000 cycles needs 248000000000000 bytes" in err
        assert not (out / "manifest.json").exists()

    def test_failed_eigh_exit_1(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, which would read as a config error
        def failed_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh", failed_eigh)
        cfg, out = write_config(tmp_path)
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "eigenvalues did not converge" in err
        assert "config error" not in err
        assert not (out / "manifest.json").exists()

    def test_output_lock(self, tmp_path):
        cfg, out = write_config(tmp_path)
        out.mkdir(parents=True)
        (out / ".lock").write_text("")
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 1
        (out / ".lock").unlink()
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0


def test_readme_names_the_parser_flags():
    # the README's CLI section documents every flag the parser takes, and no other
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for sub in subparsers.choices.values() for action in sub._actions
             for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.S | re.M).group(1)
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags
