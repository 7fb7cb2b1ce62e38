"""Per-module spans for the traced run, recorded from outside mqcsim.

The tracer wraps the public functions that one mqcsim module calls in
another, by replacing the name the caller looks up (``mqcsim.cli.invert``,
``mqcsim.ddprobe.run_dd``, ``EigenBasis.compute`` on the class, ...).
Each call becomes a span with its name, start, end and parent id. Calls
into third-party code (``curve_fit``, ``nnls``) are counted, not spanned,
so their time stays in the mqcsim span that made them. Spans stay in
memory; the caller writes them out when the run ends.

A name that no longer exists fails when the tracer installs, and a span
that records no call on a workload listed in ``EXPECTED`` fails when the
metrics are computed, so a rename cannot silently zero a metric.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import mqcsim.cli
import mqcsim.ddprobe
import mqcsim.evolution
import mqcsim.inversion
import mqcsim.io
from mqcsim.errors import FitFailure
from mqcsim.evolution import EigenBasis

# span name -> (owner object, attribute) of every name the tracer replaces
SPANNED = {
    "cli.main": [(mqcsim.cli, "main")],
    "mqc.phase_signals": [(mqcsim.cli, "phase_signals")],
    "mqc.density_spectra": [(mqcsim.cli, "density_spectra")],
    "mqc.loschmidt_echo": [(mqcsim.cli, "loschmidt_echo")],
    "mqc.spectrum_from_phases": [(mqcsim.cli, "spectrum_from_phases")],
    "mqc.otoc_second_moment": [(mqcsim.cli, "otoc_second_moment")],
    "ddprobe.sweep": [(mqcsim.cli, "sweep")],
    "ddprobe.run_dd": [(mqcsim.ddprobe, "run_dd")],
    "ddprobe.fit_biexponential": [(mqcsim.ddprobe, "fit_biexponential")],
    "ddprobe.optimal_cycles": [(mqcsim.ddprobe, "optimal_cycles")],
    "inversion.make_kernel_problem": [(mqcsim.cli, "make_kernel_problem")],
    "inversion.invert": [(mqcsim.cli, "invert")],
    "inversion.analyze": [(mqcsim.cli, "analyze")],
    "inversion.fit_power_law": [(mqcsim.cli, "fit_power_law")],
    "evolution.evolve": [(mqcsim.evolution, "evolve")],
    "evolution.krylov_expmv": [(mqcsim.evolution, "krylov_expmv")],
    "evolution.eigenbasis": [(EigenBasis, "compute")],
    "evolution.hamiltonian_matrix": [(mqcsim.evolution, "hamiltonian_matrix"),
                                     (mqcsim.ddprobe, "hamiltonian_matrix")],
    "evolution.pulse": [(mqcsim.ddprobe, "pulse_matrix"),
                        (mqcsim.ddprobe, "collective_pulse")],
    "spins.apply_operator": [(mqcsim.evolution, "apply_operator")],
    "io.load_config": [(mqcsim.io, "load_config")],
    "io.write_manifest": [(mqcsim.io, "write_manifest")],
    "io.read": [(mqcsim.io, name) for name in ("read_spectrum_csv", "read_json")],
    "io.write": [(mqcsim.io, name) for name in (
        "write_json", "write_phase_csv", "write_spectrum_csv", "write_series_csv",
        "write_sweep_csv", "write_distribution_csv", "write_dd_csv")],
}

# spans (or counters) that must record calls on the workload that uses them
EXPECTED = {
    "mqc-n9": [
        "cli.main", "mqc.phase_signals", "mqc.density_spectra", "mqc.loschmidt_echo",
        "evolution.eigenbasis", "evolution.hamiltonian_matrix", "spins.apply_operator",
        "inversion.invert", "inversion.analyze", "inversion.nnls",
        "inversion.fit_power_law", "io.read", "io.write",
    ],
    "sweep-n8": [
        "cli.main", "ddprobe.sweep", "ddprobe.run_dd", "ddprobe.fit_biexponential",
        "ddprobe.curve_fit", "ddprobe.curve_fit.nfev", "evolution.eigenbasis",
        "evolution.hamiltonian_matrix", "evolution.pulse", "spins.apply_operator",
        "io.write",
    ],
    "krylov-n14": ["evolution.evolve", "evolution.krylov_expmv", "spins.apply_operator"],
}

# modules whose summed self time is reported; spins has one span, reported
# on its own, and bench is the harness between CLI calls
REPORTED_LAYERS = ("cli", "mqc", "ddprobe", "inversion", "evolution", "io")

# the worker's clock brackets the root span, so the two differ by the cost
# of opening and closing it
SUM_TOLERANCE_S = 1e-3


class Tracer:
    """Installs the wrappers and keeps spans and counters in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                self.close(span)

        return wrapper

    def _count_calls(self, fn, name: str, counts_model: bool):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            self.counters[name] += 1
            if not counts_model:
                return fn(f, *args, **kwargs)

            def model(*a, **kw):
                self.counters[name + ".nfev"] += 1
                return f(*a, **kw)

            return fn(model, *args, **kwargs)

        return wrapper

    # --- installing ------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original function)``; a missing name raises."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> "Tracer":
        for name, targets in SPANNED.items():
            for owner, attr in targets:
                self._replace(owner, attr, lambda fn, name=name: self._wrap(fn, name))
        self._replace(mqcsim.ddprobe, "curve_fit",
                      lambda fn: self._count_calls(fn, "ddprobe.curve_fit", True))
        self._replace(mqcsim.inversion, "nnls",
                      lambda fn: self._count_calls(fn, "inversion.nnls", False))
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _columns(span, args, result):
    state = args[2]
    span["columns"] = 1 if state.ndim == 1 else int(state.shape[1])


def _cycles(span, args, result):
    span["cycles"] = int(args[1].n_cycles)


def _signals(span, args, result):
    span["signals"] = int(sum(sig.values.size for sig in result))


def _bytes(span, args, result):
    span["bytes"] = os.path.getsize(args[0])


_AFTER = {
    "spins.apply_operator": _columns,
    "ddprobe.run_dd": _cycles,
    "mqc.phase_signals": _signals,
    "io.write": _bytes,
}


# --- metrics ---------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def op_metrics(workload: str, spans: list[dict], counters: dict,
               wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (the root span is ``bench.op``).

    ``wall_s`` is the operation's wall time from the worker's own clock.
    Raises RuntimeError when a span or counter the workload relies on
    recorded no call, or when the spans' self times do not add up to
    ``wall_s`` within ``SUM_TOLERANCE_S``.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    extra: Counter = Counter()
    for s in spans:
        self_s[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        calls[s["name"]] += 1
        for key in ("columns", "cycles", "signals", "bytes"):
            extra[key] += s.get(key, 0)
        if s["name"] == "ddprobe.fit_biexponential" and s.get("error") == FitFailure.__name__:
            extra["fit_failed"] += 1

    missing = [n for n in EXPECTED[workload] if calls[n] == 0 and counters.get(n, 0) == 0]
    if missing:
        raise RuntimeError(f"traced run of {workload}: no calls recorded for {missing}")

    layer = defaultdict(float)
    for name, value in self_s.items():
        layer[name.split(".")[0]] += value
    roots = [s for s in spans if s["parent"] is None]
    op_wall = sum(s["end"] - s["start"] for s in roots)
    n_fits = calls["ddprobe.fit_biexponential"]
    n_krylov = calls["evolution.krylov_expmv"]
    name_of = {s["id"]: s["name"] for s in spans}
    krylov_matvecs = sum(
        1 for s in spans if s["name"] == "spins.apply_operator"
        and name_of.get(s["parent"]) == "evolution.krylov_expmv"
    )
    m = {
        "spins.apply_operator.calls": calls["spins.apply_operator"],
        "spins.apply_operator.columns": extra["columns"],
        "spins.apply_operator.self_s": self_s["spins.apply_operator"],
        "evolution.eigenbasis.calls": calls["evolution.eigenbasis"],
        "evolution.eigenbasis.self_s": self_s["evolution.eigenbasis"],
        "evolution.hamiltonian_matrix.calls": calls["evolution.hamiltonian_matrix"],
        "evolution.krylov_expmv.calls": n_krylov,
        "evolution.krylov_expmv.self_s": self_s["evolution.krylov_expmv"],
        "evolution.krylov.matvecs_per_call": _ratio(krylov_matvecs, n_krylov),
        "evolution.pulse.self_s": self_s["evolution.pulse"],
        "mqc.phase_signals.self_s": self_s["mqc.phase_signals"],
        "mqc.density_spectra.self_s": self_s["mqc.density_spectra"],
        "mqc.loschmidt_echo.self_s": self_s["mqc.loschmidt_echo"],
        "mqc.signals_per_s": _ratio(extra["signals"], self_s["mqc.phase_signals"]),
        "ddprobe.run_dd.calls": calls["ddprobe.run_dd"],
        "ddprobe.run_dd.self_s": self_s["ddprobe.run_dd"],
        "ddprobe.cycles_per_s": _ratio(extra["cycles"], self_s["ddprobe.run_dd"]),
        "ddprobe.fit_biexponential.self_s": self_s["ddprobe.fit_biexponential"],
        "ddprobe.curve_fit.calls": counters.get("ddprobe.curve_fit", 0),
        "ddprobe.curve_fit.nfev": counters.get("ddprobe.curve_fit.nfev", 0),
        "ddprobe.curve_fit.starts_per_fit": _ratio(counters.get("ddprobe.curve_fit", 0), n_fits),
        "ddprobe.fit_failed": extra["fit_failed"],
        "inversion.invert.self_s": self_s["inversion.invert"],
        "inversion.nnls.calls": counters.get("inversion.nnls", 0),
        "inversion.analyze.self_s": self_s["inversion.analyze"],
        "io.bytes_written": extra["bytes"],
        "trace.op_wall_s": op_wall,
    }
    for name in REPORTED_LAYERS:
        m[f"{name}.self_s"] = layer[name]
    self_sum = sum(self_s.values())
    if not abs(self_sum - wall_s) <= SUM_TOLERANCE_S:
        raise RuntimeError(f"self times sum to {self_sum!r} s, "
                           f"the operation took {wall_s!r} s")
    return {k: float(v) for k, v in m.items()}
