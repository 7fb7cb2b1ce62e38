"""Memory estimates checked against traced peaks, and the budget they gate.

Every size check compares one path's byte estimate with
``mqcsim.spins.MEMORY_BUDGET``. These tests trace allocations with
tracemalloc at small N and patch the budget instead of provoking an
out-of-memory failure; nothing here runs a dense path at N >= 13.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import mqcsim.evolution
import mqcsim.spins
from mqcsim import (
    CapExceeded,
    DdConfig,
    EigenBasis,
    ExplicitCouplings,
    Mode,
    MqcRun,
    OperatorKind,
    SpinSystem,
    build_system,
    compile_program,
    dq_block,
    evolve,
    hamiltonian_matrix,
    krylov_expmv,
    order_amplitudes,
    run_dd,
    run_dd_stepwise,
    uniform_phase_grid,
)
from mqcsim.evolution import _require_dense
from mqcsim.mqc import _sector_blocks
from mqcsim.spins import _vector_bytes

from oracles import random_couplings, random_state

BOX_BYTES = int(7.84e9)


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs, above what was live before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_bytes(dim: int) -> int:
    return mqcsim.evolution._DENSE_COPIES * 16 * dim * dim


def _system(n: int, seed: int = 3) -> SpinSystem:
    return build_system(ExplicitCouplings(random_couplings(n, np.random.default_rng(seed))), n)


def _dense_paths(system: SpinSystem) -> dict:
    dq_period = 4 * 3e-6 + 6 * 8e-6
    phases = uniform_phase_grid(8)
    rho = np.diag(system.magnetization).astype(complex)
    return {
        "run_dd-magnitude": lambda: run_dd(
            system, DdConfig(tau=0.2, theta=0.7, n_cycles=2048, detect="magnitude")),
        "run_dd-aligned": lambda: run_dd(
            system, DdConfig(tau=0.2, theta=0.7, n_cycles=2048)),
        "run_dd_stepwise": lambda: run_dd_stepwise(
            system, DdConfig(tau=0.2, theta=0.7, n_cycles=2, detect="magnitude")),
        "order_amplitudes-ideal": lambda: order_amplitudes(
            MqcRun(system, 2, 0.1, phases)),
        "order_amplitudes-mismatch": lambda: order_amplitudes(
            MqcRun(system, 2, 0.1, phases, mismatch=0.1)),
        "order_amplitudes-pulse": lambda: order_amplitudes(
            MqcRun(system, 2, dq_period, phases, mode=Mode.PULSE_LEVEL)),
        "evolve-density": lambda: evolve(rho, system, OperatorKind.HDQ, 0.3),
        "compile_program": lambda: compile_program(dq_block(), system),
        "hamiltonian_matrix": lambda: hamiltonian_matrix(system, OperatorKind.HDQ),
        "eigenbasis-hdq": lambda: EigenBasis.compute(system, OperatorKind.HDQ),
    }


DENSE_PATHS = list(_dense_paths(_system(2)))
# the sizes whose traced peaks set the single dense factor
TRACED_SPINS = (8, 9)


@functools.cache
def dense_peaks(n: int) -> dict:
    # each path on its own fresh system: on a shared one, the eigenbases that
    # earlier paths computed would hide a later path's eigh
    return {name: traced_peak(_dense_paths(_system(n))[name]) for name in DENSE_PATHS}


@pytest.mark.parametrize("path", DENSE_PATHS)
def test_dense_path_within_estimate(path):
    for n in TRACED_SPINS:
        assert dense_peaks(n)[path] <= dense_bytes(1 << n), n


def test_dense_estimate_is_tight():
    # the single factor is set by the heaviest path, not padded beyond it
    for n in TRACED_SPINS:
        assert dense_bytes(1 << n) <= 1.25 * max(dense_peaks(n).values()), n


def test_run_dd_keeps_only_flip_blocks():
    # _signal cuts each D x D operator into its two flip blocks and frees it
    # at once, so no dense half-delay propagator lives through the block loop
    for n in TRACED_SPINS:
        for path in ("run_dd-aligned", "run_dd-magnitude"):
            assert dense_peaks(n)[path] <= 5.75 * 16 * (1 << n) ** 2, (n, path)


@pytest.mark.parametrize("n", TRACED_SPINS)
def test_hdq_eigenbasis_peak_is_its_assembly(n):
    # hamiltonian_matrix holds np.eye(D) and its output, 16 D^2 bytes; the
    # sector blocks, the A +- B halves of even N and the eigenvectors add a
    # few (D/2)^2 arrays on top
    assert dense_peaks(n)["eigenbasis-hdq"] <= 1.5 * 16 * (1 << n) ** 2


@pytest.mark.parametrize("n", TRACED_SPINS)
def test_ideal_sector_blocks_are_real_products(n):
    # each block is built in place from the cached Hdq eigenbasis: no complex
    # block, no rotated copy; the pass holds the previous sector's two blocks
    # while it builds the next two, with a few (D/2)^2 temporaries. At odd N
    # the pass is mirrored and sector 1 builds no blocks at all.
    system = _system(n)
    EigenBasis.compute(system, OperatorKind.HDQ)
    run = MqcRun(system, 2, 0.1, uniform_phase_grid(8), mismatch=0.1)
    sectors = []

    def one_pass():
        for s, _, _ in _sector_blocks(run):
            sectors.append(s)

    half = (1 << n) // 2
    assert traced_peak(one_pass) <= (4 if n % 2 else 8) * 8 * half * half
    assert len(sectors) == (1 if n % 2 else 2)


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("kind", list(OperatorKind))
def test_vector_path_within_estimate(n, kind):
    couplings = random_couplings(n, np.random.default_rng(n))
    psi = random_state(n, np.random.default_rng(1))
    peak = traced_peak(
        lambda: krylov_expmv(SpinSystem(n_spins=n, couplings=couplings), kind, psi, 0.4))
    assert peak <= _vector_bytes(n)


def test_box_budget_admits_n12_dense_and_refuses_n13(monkeypatch):
    monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", BOX_BYTES)
    _require_dense(1 << 12, "operator")
    with pytest.raises(CapExceeded, match=r"dense 8192x8192 operator needs 8589934592 bytes"):
        _require_dense(1 << 13, "operator")
    system = _system(13)  # the vector path of 13 spins fits
    with pytest.raises(CapExceeded):
        hamiltonian_matrix(system, OperatorKind.HDQ)


@pytest.fixture
def small_budget(monkeypatch):
    """A 1 MB budget, with every operator application failing the test."""
    budget = 1_000_000

    def no_apply(*args):
        pytest.fail("apply_operator ran before the budget check")

    monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", budget)
    monkeypatch.setattr(mqcsim.evolution, "apply_operator", no_apply)
    return budget


@pytest.mark.parametrize("build", [
    lambda s: hamiltonian_matrix(s, OperatorKind.HZZ),
    lambda s: compile_program(dq_block(), s),
    lambda s: run_dd(s, DdConfig(tau=0.2, theta=0.7, n_cycles=4)),
    lambda s: run_dd_stepwise(s, DdConfig(tau=0.2, theta=0.7, n_cycles=4)),
    lambda s: SpinSystem(n_spins=14, couplings=np.zeros((14, 14))),
    lambda s: build_system(ExplicitCouplings(np.zeros((14, 14))), 14),
], ids=["hamiltonian_matrix", "compile_program", "run_dd", "run_dd_stepwise",
        "SpinSystem", "build_system"])
def test_refused_before_allocation(small_budget, build):
    system = _system(10)  # its vector path (280 kB) fits; its dense paths (134 MB) do not

    def refuse():
        with pytest.raises(CapExceeded, match=f"needs [0-9]+ bytes, budget {small_budget} bytes"):
            build(system)

    assert traced_peak(refuse) < small_budget // 10
