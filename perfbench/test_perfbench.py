"""Tests of the benchmark itself: corrupted outputs count as failed operations,
and the traced run accounts for the operation's whole wall time.

    python3 -m pytest perfbench -q

Workloads run here at small sizes through the same operation and check
code the benchmark uses.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402  (puts the checkout's src on sys.path)

import mqcsim.evolution  # noqa: E402
import mqcsim.io  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "mqc-n9": {"n_spins": 5, "n_max": 4, "tau_dq": 0.05, "n_phases": 32,
               "mode": "ideal", "mismatch": 0.0},
    "sweep-n8": {"n_spins": 4, "tau_grid": [0.1], "theta_grid": [math.pi / 4, math.pi / 2],
                 "n_cycles": 256, "noise_sigma": 0.01, "n_scans": 4, "check_cycles": 16},
    "krylov-n14": {"n_spins": 11, "t": 0.4, "check_n_spins": 5},
}


def execute(name, tmp_path, trace=False):
    return worker.execute(name, 7, tmp_path, trace, SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_operation_passes(name, tmp_path):
    result = execute(name, tmp_path)
    assert result["ok"], result["error"] or result["failures"]


def test_perturbed_spectrum_row_fails(tmp_path, monkeypatch):
    original = mqcsim.io.write_spectrum_csv

    def corrupt(path, spectra):
        if Path(path).name == "spectrum_phases.csv":
            orders, weights = spectra[2]
            spectra = {**spectra, 2: (orders, weights + 1e-6 * (orders == 0))}
        original(path, spectra)

    monkeypatch.setattr(mqcsim.io, "write_spectrum_csv", corrupt)
    result = execute("mqc-n9", tmp_path)
    assert not result["ok"]
    assert any("n=2: phase-cycled vs density" in f for f in result["failures"])


def test_bad_sweep_status_fails(tmp_path, monkeypatch):
    original = mqcsim.io.write_sweep_csv

    def corrupt(path, result):
        result.cells[0].status = "diverged"
        original(path, result)

    monkeypatch.setattr(mqcsim.io, "write_sweep_csv", corrupt)
    result = execute("sweep-n8", tmp_path)
    assert not result["ok"]
    assert any("status 'diverged'" in f for f in result["failures"])


def test_inexact_reversal_fails(tmp_path, monkeypatch):
    original = mqcsim.evolution.evolve

    def drift(obj, system, kind, t, **kw):
        out = original(obj, system, kind, t, **kw)
        return out * (1 + 1e-6) if t < 0 else out

    monkeypatch.setattr(mqcsim.evolution, "evolve", drift)
    result = execute("krylov-n14", tmp_path)
    assert not result["ok"]
    assert any("psi_back - psi0" in f for f in result["failures"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_wrong_hermitian_kernel_fails(name, tmp_path, monkeypatch):
    # scaled by 1.001, every operator stays Hermitian and every mqcsim route
    # agrees with every other; only the dense reference can tell
    original = mqcsim.evolution.apply_operator
    monkeypatch.setattr(mqcsim.evolution, "apply_operator",
                        lambda *args, **kw: 1.001 * original(*args, **kw))
    result = execute(name, tmp_path)
    assert not result["ok"]
    assert result["failures"]
    assert all("dense reference" in f for f in result["failures"])


def test_failed_operation_is_counted():
    ok = {"ok": True, "traced": False, "wall_s": 1.0, "cpu_s": 2.0,
          "setup_s": 0.5, "peak_rss_mb": 90.0}
    bad = {**ok, "ok": False}
    result = run.summarize("mqc-n9", [ok, bad, ok], trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_self_times_cover_the_operation(name, tmp_path):
    result = execute(name, tmp_path, trace=True)
    assert result["ok"], result["error"] or result["failures"]
    m = tracing.op_metrics(name, result["spans"], result["counters"], result["wall_s"])
    assert m["trace.op_wall_s"] <= result["wall_s"]
    # a second root, such as a span recorded outside the operation, adds time
    # the worker's clock did not see
    stray = {**result["spans"][0], "id": len(result["spans"])}
    with pytest.raises(RuntimeError, match="self times sum"):
        tracing.op_metrics(name, result["spans"] + [stray], result["counters"],
                           result["wall_s"])
    with pytest.raises(RuntimeError, match="self times sum"):
        tracing.op_metrics(name, result["spans"], result["counters"],
                           result["wall_s"] + 2 * tracing.SUM_TOLERANCE_S)


def test_overhead_pairs_cancel_drift(monkeypatch):
    # a slow warm-up, then 10 s operations slowing by 1 s per operation;
    # tracing costs 0.5 s
    walls = [20.0, 10.0, 11.5, 12.5, 13.0]
    order = [False, False, True, True, False]
    samples = [{"ok": True, "traced": t, "wall_s": w, "digest": "d", "spans": [],
                "counters": {}} for w, t in zip(walls, order)]
    names = [d["name"] for d in run.json.loads((run.ROOT / "BENCHMARK.json").read_text())[
        "per_layer"]]
    monkeypatch.setattr(tracing, "op_metrics", lambda *a: dict.fromkeys(names, 1.0))
    result = run.summarize("mqc-n9", samples, trace=True)
    assert result["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_tracing_restores_the_wrapped_names():
    before = (mqcsim.cli.phase_signals, vars(mqcsim.evolution.EigenBasis)["compute"])
    tracing.Tracer().install().restore()
    after = (mqcsim.cli.phase_signals, vars(mqcsim.evolution.EigenBasis)["compute"])
    assert before == after


def test_renamed_function_fails_loudly(monkeypatch):
    monkeypatch.delattr(mqcsim.cli, "phase_signals")
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.restore()


def test_uncalled_span_fails_loudly():
    spans = [{"id": 0, "name": "bench.op", "parent": None, "start": 0.0, "end": 1.0},
             {"id": 1, "name": "evolution.evolve", "parent": 0, "start": 0.1, "end": 0.9}]
    with pytest.raises(RuntimeError, match="evolution.krylov_expmv"):
        tracing.op_metrics("krylov-n14", spans, {}, 1.0)
