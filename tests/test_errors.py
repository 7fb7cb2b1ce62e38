"""Bad input is reported through one typed error, InvalidParameter."""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqcsim
from mqcsim import (AllToAll, Axis, DdConfig, ExplicitCouplings, InvalidParameter, MqcRun,
                    MqcsimError, SpinSystem, apply_operator, build_system, collective_pulse,
                    cumulative_snr, dq_cycle, fit_biexponential, fit_power_law, invert,
                    make_kernel_problem, optimal_cycles, pulse_matrix, scans_to_match_snr,
                    sweep, uniform_phase_grid)
from mqcsim.evolution import EigenBasis, _spectral_bound, evolve, krylov_expmv
from mqcsim.inversion import ClusterDistribution, mixture_second_moment
from mqcsim.spins import geometry_from_dict

_SYSTEM = build_system(AllToAll(d0=1.0), 2)
_ORDERS = np.arange(0.0, 8.0, 2.0)
_TIMES = np.arange(1.0, 6.0)


_BUILTIN_BAD_INPUT = ("ValueError", "TypeError", "KeyError", "IndexError",
                      "AttributeError", "LookupError")


def test_no_bare_value_or_type_error_raised():
    # an InvalidParameter names the parameter, which lets the CLI name the
    # config field behind it; a bare ValueError or KeyError names nothing
    found = []
    for path in sorted(Path(mqcsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in _BUILTIN_BAD_INPUT:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise InvalidParameter(name, ...) at {found}"


@pytest.mark.parametrize("make, name", [
    (lambda: DdConfig(tau=0.1, theta=1.0, n_cycles=8, rng_seed=-1), "rng_seed"),
    (lambda: MqcRun(_SYSTEM, 1, 0.1, [0.0], mode="x"), "mode"),
    # enum conversions, which no raise statement shows
    (lambda: pulse_matrix("Q", 1.0, 2), "axis"),
    (lambda: EigenBasis.compute(_SYSTEM, "q"), "kind"),
    (lambda: _spectral_bound(_SYSTEM, "q"), "kind"),
    # the geometry reader checks its own keys and types
    (lambda: geometry_from_dict({"kind": "all_to_all", "d0": "abc"}), "d0"),
    (lambda: geometry_from_dict({"kind": "explicit", "couplings": [[0, "1"], [1, 0]]}),
     "couplings"),
    (lambda: geometry_from_dict({"kind": "chain"}), "d0"),
    (lambda: geometry_from_dict({"kind": "all_to_all", "d0": True}), "d0"),
    (lambda: geometry_from_dict({"kind": "all_to_all", "d0": 10**400}), "d0"),
    (lambda: build_system(geometry_from_dict({"kind": "chain", "d0": 1.0}), 2.5), "n_spins"),
    (lambda: build_system(AllToAll(1.0), None), "n_spins"),
    (lambda: build_system(AllToAll(1.0), 2.5), "n_spins"),
    (lambda: build_system(AllToAll(1.0), True), "n_spins"),
    (lambda: pulse_matrix(Axis.X, None, 2), "angle"),
    (lambda: collective_pulse(np.eye(4), Axis.X, "a"), "angle"),
    # three pairs at 1e308 sum past float range in the Hzz diagonal
    (lambda: build_system(AllToAll(1e308), 3), "couplings"),
    (lambda: MqcRun(_SYSTEM, 2.5, 0.1, [0.0]), "n_blocks"),
    (lambda: DdConfig(tau=0.1, theta=1.0, n_cycles=20.5), "n_cycles"),
    (lambda: DdConfig(tau=0.1, theta=1.0, n_cycles=20, transient_skip=2.5), "transient_skip"),
    (lambda: DdConfig(tau=0.1, theta=1.0, n_cycles=20, n_scans=True), "n_scans"),
    (lambda: DdConfig(tau=0.1, theta=1.0, n_cycles=20, rng_seed=1.5), "rng_seed"),
    (lambda: sweep(_SYSTEM, [0.2], [1.0], 32, base_seed=2.5), "base_seed"),
    (lambda: fit_biexponential((np.arange(10.0), np.ones(9))), "series"),
    (lambda: fit_biexponential((np.arange(10.0), np.ones(10)), 2.5), "transient_skip"),
    (lambda: fit_biexponential(([str(t) for t in range(10)], np.ones(10))), "series"),
    (lambda: fit_biexponential((np.arange(10.0), ["a"] * 10)), "series"),
    (lambda: fit_biexponential((np.arange(10.0), np.ones(10, bool))), "series"),
    (lambda: fit_biexponential((np.arange(10.0), np.ones(10) + 1j)), "series"),
    (lambda: uniform_phase_grid(2.5), "m"),
    (lambda: uniform_phase_grid(np.nan), "m"),
    (lambda: pulse_matrix(Axis.X, 1.0, 2.5), "n_spins"),
    (lambda: pulse_matrix(Axis.X, 1.0, -1), "n_spins"),
    (lambda: collective_pulse(np.zeros(0), Axis.X, 1.0), "obj"),
    (lambda: collective_pulse(np.zeros((4, 2)), Axis.X, 1.0), "obj"),
    (lambda: collective_pulse(np.full(4, np.nan), Axis.X, 1.0), "obj"),
    # a non-finite period would make an all-NaN cycle
    (lambda: dq_cycle(_SYSTEM, np.nan), "period"),
    (lambda: dq_cycle(_SYSTEM, np.inf), "period"),
    (lambda: dq_cycle(_SYSTEM, 0.0), "period"),
    (lambda: dq_cycle(_SYSTEM, "6e-5"), "period"),
    (lambda: dq_cycle(_SYSTEM, -np.inf), "period"),
    (lambda: dq_cycle(_SYSTEM, -6e-5), "period"),
    (lambda: dq_cycle(_SYSTEM, sign=0), "sign"),
    (lambda: dq_cycle(_SYSTEM, sign=np.nan), "sign"),
    # the inversion takes one noise scale, and a grid of a whole number of points
    (lambda: make_kernel_problem(_ORDERS, np.ones(4), n_grid=8.5), "n_grid"),
    (lambda: make_kernel_problem(_ORDERS, np.ones(4), n_grid=np.nan), "n_grid"),
    (lambda: make_kernel_problem(_ORDERS, np.ones(4), n_grid="9"), "n_grid"),
    (lambda: make_kernel_problem(_ORDERS, np.ones(4), noise_estimate=np.full(4, 1e-3)),
     "noise_estimate"),
    (lambda: make_kernel_problem(_ORDERS, np.ones(4), s_min="1"), "s_min"),
    (lambda: invert(make_kernel_problem(_ORDERS, np.ones(4)), "1"), "alpha"),
    (lambda: fit_power_law(_TIMES, _TIMES**2, forced_exponent=np.nan), "forced_exponent"),
    (lambda: fit_power_law(_TIMES, _TIMES**2, forced_exponent=np.inf), "forced_exponent"),
    (lambda: cumulative_snr(np.ones(4), np.nan), "sigma_eff"),
    (lambda: optimal_cycles(np.ones(4), np.nan), "sigma_eff"),
    (lambda: scans_to_match_snr(np.nan, 1.0, 1.0), "n_scans_ref"),
    # arrays are 1-D and real: no strings, no second axis, equal lengths
    (lambda: make_kernel_problem(["a", "b"], [1.0, 2.0]), "orders"),
    (lambda: sweep(_SYSTEM, ["a"], [0.5], 32), "tau_grid"),
    (lambda: fit_power_law([str(t) for t in _TIMES], _TIMES**2), "times"),
    (lambda: fit_power_law(_TIMES, _TIMES[:4] ** 2), "values"),
    (lambda: fit_power_law(np.ones((2, 5)), np.ones((2, 5))), "times"),
    (lambda: MqcRun(_SYSTEM, 1, 0.1, ["0.0"]), "phases"),
    # the SNR bookkeeping sums finite values only
    (lambda: optimal_cycles([1.0, np.nan, 0.5], 0.1), "values"),
    (lambda: cumulative_snr([1.0, np.inf], 0.1), "values"),
    (lambda: optimal_cycles([], 0.1), "values"),
    # a number given as a string is not a number
    (lambda: DdConfig(tau="0.1", theta=1.0, n_cycles=8), "tau"),
    (lambda: DdConfig(tau=0.1, theta="1.0", n_cycles=8), "theta"),
    (lambda: DdConfig(tau=0.1, theta=1.0, n_cycles=8, noise_sigma="0"), "noise_sigma"),
    (lambda: MqcRun(_SYSTEM, 1, "0.1", [0.0]), "tau_dq"),
    (lambda: MqcRun(_SYSTEM, 1, 0.1, [0.0], mismatch="0"), "mismatch"),
    (lambda: evolve(np.eye(4)[0], _SYSTEM, "dq", "1.0"), "t"),
    (lambda: krylov_expmv(_SYSTEM, "dq", np.eye(4)[0], "1.0"), "t"),
    # couplings are real numbers, refused before any conversion
    (lambda: build_system(ExplicitCouplings([["0", "1"], ["1", "0"]]), 2), "couplings"),
    (lambda: SpinSystem(2, [["0", "1"], ["1", "0"]]), "couplings"),
    (lambda: SpinSystem(2, np.array([[False, True], [True, False]])), "couplings"),
    (lambda: SpinSystem(2, np.array([[0, 1j], [1j, 0]])), "couplings"),
    # states and densities are arrays of numbers, whatever their shape
    (lambda: evolve(["a"] * 4, _SYSTEM, "dq", 1.0), "obj"),
    (lambda: krylov_expmv(_SYSTEM, "dq", ["a"] * 4, 1.0), "v"),
    (lambda: apply_operator("zz", _SYSTEM, ["a"] * 4), "state"),
    (lambda: collective_pulse(["a"] * 4, Axis.X, 1.0), "obj"),
    (lambda: mixture_second_moment(
        ClusterDistribution(np.ones(3), np.ones(3), 0.0, 0.0), ["a", "b"]), "orders"),
], ids=["negative-seed", "unknown-mode", "unknown-axis", "eigenbasis-kind", "bound-kind",
        "string-d0", "string-coupling", "chain-no-d0", "bool-d0", "huge-d0",
        "fractional-n-spins", "no-n-spins", "build-fractional-n-spins", "build-bool-n-spins",
        "no-angle", "string-angle",
        "overflowing-hzz-diagonal", "fractional-n-blocks", "fractional-n-cycles",
        "fractional-transient-skip", "bool-n-scans", "fractional-seed",
        "sweep-fractional-seed", "fit-length-mismatch", "fit-fractional-skip",
        "fit-numeric-string-times", "fit-string-values", "fit-bool-values",
        "fit-complex-values",
        "fractional-phase-count", "nan-phase-count", "pulse-fractional-n-spins",
        "pulse-negative-n-spins", "empty-state", "non-square-density", "nan-state",
        "nan-period", "inf-period", "zero-period", "string-period",
        "minus-inf-period", "negative-period", "zero-sign", "nan-sign",
        "fractional-n-grid", "nan-n-grid", "string-n-grid", "array-noise-estimate",
        "string-s-min", "string-alpha",
        "nan-forced-exponent", "inf-forced-exponent", "nan-sigma-eff",
        "optimal-cycles-nan-sigma-eff", "nan-n-scans-ref",
        "string-orders", "string-tau-grid", "string-times", "unequal-fit-lengths",
        "2d-times", "string-phases", "nan-snr-values", "inf-snr-values", "empty-snr-values",
        "string-tau", "string-theta", "string-noise-sigma", "string-tau-dq",
        "string-mismatch", "string-evolve-t",
        "string-krylov-t", "string-explicit-couplings", "string-couplings", "bool-couplings",
        "complex-couplings", "string-evolve-obj", "string-krylov-v", "string-apply-state",
        "string-pulse-obj", "string-mixture-orders"])
def test_invalid_parameter_names_the_parameter(make, name):
    with pytest.raises(InvalidParameter) as exc:
        make()
    assert exc.value.name == name
    assert isinstance(exc.value, MqcsimError)
    assert isinstance(exc.value, ValueError)


def test_invalid_parameter_survives_pickling():
    # a process pool hands a worker's error back pickled
    err = pickle.loads(pickle.dumps(InvalidParameter("t", "evolution time must be finite")))
    assert type(err) is InvalidParameter
    assert err.name == "t"
    assert str(err) == "evolution time must be finite"


_WORDS = ["all_to_all", "chain", "lattice3d", "explicit", "X", "-Y", "zz", "dq", ""]
# up to 8 spins a valid document builds a small system; from 64 on the
# memory estimate refuses it; the spin counts between build large systems,
# which is slow, not wrong
_INTEGERS = st.integers(max_value=8) | st.integers(min_value=64)
_LEAF = st.none() | st.booleans() | _INTEGERS | st.floats() | st.sampled_from(_WORDS)
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["kind", "d0", "steps", "pulse"]) | st.text(max_size=3), inner,
        max_size=4),
    max_leaves=12,
)


def _object(**keys):
    """JSON objects holding any subset of ``keys``, or any other JSON value."""
    return st.fixed_dictionaries({}, optional=keys) | _JSON


_MATRIX = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(_LEAF, min_size=n, max_size=n), min_size=n, max_size=n))
_GEOMETRY_DOC = _object(kind=st.sampled_from(_WORDS) | _JSON, d0=_LEAF, exponent=_LEAF,
                        cutoff=_LEAF, shape=st.lists(_INTEGERS, max_size=4) | _JSON,
                        couplings=_MATRIX | _JSON)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(geometry=_GEOMETRY_DOC, n_spins=_LEAF)
def test_readers_raise_only_mqcsim_errors(geometry, n_spins):
    # whatever geometry document and spin count a config holds, a bad one is
    # refused with a typed error, never with a KeyError, TypeError or bare
    # ValueError
    try:
        build_system(geometry_from_dict(geometry), n_spins)
    except MqcsimError:
        pass
