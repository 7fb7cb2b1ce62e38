import json
from pathlib import Path

import numpy as np
import pytest

from mqcsim import cli
from mqcsim import io as mio
from mqcsim.errors import ConfigError


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
        back = mio.read_phase_csv(path)
        assert np.array_equal(back[1][0], signals[1][0])
        assert np.array_equal(back[1][1], signals[1][1])

    def test_series(self, tmp_path):
        path = tmp_path / "series.csv"
        mio.write_series_csv(path, {0: 1.0, 1: 0.25})
        assert mio.read_series_csv(path) == {0: 1.0, 1: 0.25}

    def test_dd(self, tmp_path):
        path = tmp_path / "dd.csv"
        t = np.array([0.05, 0.15])
        v = np.array([1.0, 0.97])
        mio.write_dd_csv(path, t, v)
        bt, bv = mio.read_dd_csv(path)
        assert np.array_equal(bt, t)
        assert np.array_equal(bv, v)

    def test_distribution(self, tmp_path):
        path = tmp_path / "dist.csv"
        dists = {2: (np.geomspace(1, 100, 5), np.array([0, 0.5, 1.0, 0.5, 0]))}
        mio.write_distribution_csv(path, dists)
        back = mio.read_distribution_csv(path)
        assert np.array_equal(back[2][0], dists[2][0])
        assert np.array_equal(back[2][1], dists[2][1])

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            mio.read_spectrum_csv(path)


class TestManifest:
    def test_roundtrip_identity(self, tmp_path):
        config = cli.default_config()
        config["seed"] = 41
        path = mio.write_manifest(tmp_path, "simulate-mqc", config)
        doc = mio.read_manifest(path)
        assert doc["config"] == config
        assert doc["command"] == "simulate-mqc"
        assert doc["tool"] == "mqcsim"

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"tool": "mqcsim"}))
        with pytest.raises(ConfigError):
            mio.read_manifest(path)


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
        echo = mio.read_series_csv(out / "loschmidt.csv")
        assert echo[2] == pytest.approx(1.0, abs=1e-9)
        manifest = mio.read_manifest(out / "manifest.json")
        assert manifest["config"]["seed"] == 7

    def test_simulate_mqc_n_zero_single_row(self, tmp_path):
        cfg, out = write_config(tmp_path, mqc={"n_max": 0})
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 0
        spectra = mio.read_spectrum_csv(out / "spectrum_phases.csv")
        orders, weights = spectra[0]
        assert weights[np.nonzero(orders == 0)[0][0]] == pytest.approx(1.0)
        assert np.sum(weights) == pytest.approx(1.0)

    def test_rerun_bit_identical(self, tmp_path):
        cfg, out = write_config(tmp_path, dd={"noise_sigma": 0.05, "n_scans": 4})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert first == second
        assert "dd_series.csv" in first

    def test_seed_flag_changes_noise(self, tmp_path):
        cfg, out = write_config(tmp_path, dd={"noise_sigma": 0.05})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0
        a = (out / "dd_series.csv").read_bytes()
        assert cli.main(["simulate-dd", "--config", str(cfg), "--seed", "8"]) == 0
        b = (out / "dd_series.csv").read_bytes()
        assert a != b

    def test_sweep_single_cell_matches_simulate_dd(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        rows = mio.read_sweep_csv(out / "sweep.csv")
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        heat = mio.read_json(out / "sweep_heatmap.json")
        assert heat["tau"] == [0.2]

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
        dists = mio.read_distribution_csv(out / "spec_distributions.csv")
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

    def test_invalid_field_exit_2(self, tmp_path):
        cfg, _ = write_config(tmp_path, format="parquet")
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2

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
        manifest = mio.read_manifest(out / "manifest.json")
        assert manifest["config"]["system"]["geometry"] == geometry

    @pytest.mark.parametrize("geometry, message", [
        ({"kind": "chain"}, "system.geometry.d0 is missing"),
        ({"d0": 2.0}, "system.geometry is malformed: unknown geometry kind None"),
    ])
    def test_geometry_missing_field_exit_2(self, tmp_path, capsys, geometry, message):
        # a geometry inherits no key from the default all_to_all geometry
        cfg, _ = write_config(tmp_path, system={"geometry": geometry})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2
        assert f"config field {message}" in capsys.readouterr().err

    def test_malformed_section_exit_2(self, tmp_path):
        cfg, _ = write_config(tmp_path, system=5)
        assert cli.main(["simulate-mqc", "--config", str(cfg)]) == 2

    def test_invalid_parameter_value_exit_2(self, tmp_path):
        cfg, _ = write_config(tmp_path, dd={"tau": -0.5})
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 2

    def test_output_lock(self, tmp_path):
        cfg, out = write_config(tmp_path)
        out.mkdir(parents=True)
        (out / ".lock").write_text("")
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 1
        (out / ".lock").unlink()
        assert cli.main(["simulate-dd", "--config", str(cfg)]) == 0

    def test_json_format(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert cli.main(
            ["simulate-mqc", "--config", str(cfg), "--format", "json"]
        ) == 0
        doc = mio.read_json(out / "results.json")
        assert doc["schema_version"] == 1
        assert len(doc["loschmidt"]) == 3
