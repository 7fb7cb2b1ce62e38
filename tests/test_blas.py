"""The CLI runs small systems on one OpenBLAS thread and gives the count back."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import mqcsim
from mqcsim import blas, cli, krylov_expmv

import readers
from oracles import random_couplings, random_state


def _openblas_wheels() -> bool:
    """True where numpy or scipy is built on OpenBLAS on Linux, as the pip
    wheels are; there a run that finds no thread setter fails."""
    names = [mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
             for mod in (np, scipy)]
    return sys.platform.startswith("linux") and any("openblas" in n for n in names)


def _config(tmp_path, **sections):
    doc = {"system": {"n_spins": 2, "geometry": {"kind": "all_to_all", "d0": 1.0}},
           "mqc": {"n_max": 2, "tau_dq": 0.3, "n_phases": 8}, **sections}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_threads_restores_each_count_on_error():
    with blas.threads(2):
        before = blas.thread_counts()
        with pytest.raises(RuntimeError), blas.threads(1):
            assert set(blas.thread_counts().values()) <= {1}
            raise RuntimeError("inside")
        assert blas.thread_counts() == before


def test_krylov_expmv_does_not_depend_on_the_thread_count():
    # the vector path makes no BLAS call: its sparse products and updates
    # give the same bits on any number of threads
    rng = np.random.default_rng(12)
    couplings = random_couplings(12, rng)
    psi = random_state(12, rng)
    runs = []
    for n in (1, 2):
        system = mqcsim.SpinSystem(n_spins=12, couplings=couplings)
        with blas.threads(n):
            runs.append(krylov_expmv(system, mqcsim.OperatorKind.HDQ, psi, 0.5))
    assert runs[0].tobytes() == runs[1].tobytes()


def test_without_openblas_nothing_is_set(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "_libraries", dict)
    assert blas.thread_count() is None
    with blas.threads(1):
        pass
    out = tmp_path / "out"
    assert cli.main(["simulate-mqc", "--config", _config(tmp_path), "--out", str(out)]) == 0
    assert readers.read_manifest(out / "manifest.json")["blas_threads"] is None


def test_libraries_are_read_once(monkeypatch):
    # the first call reads /proc/self/maps and loads each library; the
    # rest, CLI runs included, reuse that list
    loads = []
    cdll = ctypes.CDLL

    def counted(path, *args, **kwargs):
        loads.append(path)
        return cdll(path, *args, **kwargs)

    monkeypatch.setattr(blas.ctypes, "CDLL", counted)
    blas._libraries.cache_clear()
    before = blas.thread_counts()
    first = len(loads)
    assert first > 0 or not _openblas_wheels()
    with blas.threads(1):
        blas.thread_count()
    assert blas.thread_counts() == before
    assert len(loads) == first


@pytest.mark.parametrize("case", ["exit-0", "exit-2", "usage-error"])
def test_cli_gives_the_counts_back(tmp_path, case):
    out = tmp_path / "out"
    config = _config(tmp_path, mqc={"mode": "x"} if case == "exit-2" else {})
    with blas.threads(2):
        before = blas.thread_counts()
        if case == "usage-error":
            with pytest.raises(SystemExit):
                cli.main(["sweep", "--format", "json"])
        else:
            code = cli.main(["simulate-mqc", "--config", config, "--out", str(out)])
            assert code == (0 if case == "exit-0" else 2)
        assert blas.thread_counts() == before
    if case == "exit-0" and before:
        assert readers.read_manifest(out / "manifest.json")["blas_threads"] == 1


def test_large_system_keeps_the_environment_count(tmp_path, monkeypatch):
    # above the cut the run is not pinned, and the manifest says so
    monkeypatch.setattr(cli, "_ONE_THREAD_MAX_SPINS", 1)
    out = tmp_path / "out"
    with blas.threads(2):
        expected = blas.thread_count()
        assert cli.main(["simulate-mqc", "--config", _config(tmp_path),
                         "--out", str(out)]) == 0
    assert readers.read_manifest(out / "manifest.json")["blas_threads"] == expected


_RUN = """
import sys
from mqcsim import cli
for command, config, out in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):
    if cli.main([command, "--config", config, "--out", out]) != 0:
        sys.exit(f"{command} failed")
"""


def test_outputs_do_not_depend_on_openblas_threads(tmp_path):
    # at N = 9 the unpinned MQC outputs differ between 1 and 2 threads
    mqc = tmp_path / "mqc.json"
    mqc.write_text(json.dumps({
        "system": {"n_spins": 9, "geometry": {"kind": "chain", "d0": 1.0, "exponent": 3.0}},
        "mqc": {"n_max": 8, "tau_dq": 0.05, "n_phases": 32},
    }))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "system": {"n_spins": 6},
        "sweep": {"tau_grid": [0.1, 0.2], "theta_grid": [0.4, 0.8], "n_cycles": 256,
                  "noise_sigma": 0.01, "n_scans": 4},
    }))
    src = str(Path(mqcsim.__file__).resolve().parent.parent)
    files = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-c", _RUN]
        for command, config in (("simulate-mqc", mqc), ("sweep", sweep)):
            argv += [command, str(config), str(tmp_path / threads / command)]
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
        root = tmp_path / threads
        files[threads] = {str(p.relative_to(root)): p.read_bytes()
                          for p in sorted(root.rglob("*"))
                          if p.is_file() and p.name != "manifest.json"}
        for command in ("simulate-mqc", "sweep"):
            manifest = readers.read_manifest(root / command / "manifest.json")
            if _openblas_wheels():
                assert manifest["blas_threads"] == 1
    assert len(files["1"]) == 6  # five MQC tables and the sweep table
    assert files["1"] == files["2"]
