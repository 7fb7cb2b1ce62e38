"""Memory estimates checked against traced peaks, and the budget they gate.

Every size check compares one path's byte estimate with
``mqcsim.spins.MEMORY_BUDGET``. Each dense path has its own factor in
``mqcsim.evolution._DENSE_FACTORS``; ``hamiltonian_matrix`` counts its
arrays instead. These tests trace allocations with tracemalloc at small N
and patch the budget instead of provoking an out-of-memory failure; nothing
here runs a dense path at N >= 13.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import mqcsim.ddprobe
import mqcsim.evolution
import mqcsim.spins
from mqcsim import (
    AllToAll,
    Axis,
    CapExceeded,
    DdConfig,
    EigenBasis,
    ExplicitCouplings,
    Mode,
    MqcRun,
    OperatorKind,
    SpinSystem,
    apply_operator,
    build_system,
    dq_cycle,
    evolve,
    hamiltonian_matrix,
    krylov_expmv,
    order_amplitudes,
    pulse_matrix,
    run_dd,
    run_dd_stepwise,
    uniform_phase_grid,
)
from mqcsim.evolution import _DENSE_FACTORS, _eigenbasis_path, _require_dense
from mqcsim.mqc import _sector_blocks
from mqcsim.spins import (_pair_factors, _vector_bytes, _zz_diagonal, magnetization_sectors,
                          parity_sectors)

from oracles import random_couplings, random_state

BOX_BYTES = int(7.84 * 2**30)


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs, above what was live before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_bytes(key: str, dim: int) -> float:
    return _DENSE_FACTORS[key] * 16 * dim * dim


def _system(n: int, seed: int = 3) -> SpinSystem:
    return build_system(ExplicitCouplings(random_couplings(n, np.random.default_rng(seed))), n)


def _dense_paths(system: SpinSystem) -> dict:
    """Traced call -> (its path's ``_DENSE_FACTORS`` key, the call)."""
    phases = uniform_phase_grid(8)
    rho = np.diag(system.magnetization).astype(complex)
    paths = {
        "run_dd": ("run_dd", lambda: run_dd(
            system, DdConfig(tau=0.2, theta=0.7, n_cycles=2048))),
        "run_dd_stepwise": ("run_dd_stepwise", lambda: run_dd_stepwise(
            system, DdConfig(tau=0.2, theta=0.7, n_cycles=2))),
        "order_amplitudes-ideal": ("order_amplitudes-ideal", lambda: order_amplitudes(
            MqcRun(system, 2, 0.1, phases))),
        "order_amplitudes-mismatch": ("order_amplitudes-ideal", lambda: order_amplitudes(
            MqcRun(system, 2, 0.1, phases, mismatch=0.1))),
        "order_amplitudes-pulse": ("order_amplitudes-pulse", lambda: order_amplitudes(
            MqcRun(system, 2, 60e-6, phases, mode=Mode.PULSE_LEVEL))),
        "evolve-density": ("evolve-density", lambda: evolve(rho, system, OperatorKind.HDQ, 0.3)),
        "dq_cycle": ("dq_cycle", lambda: dq_cycle(system)),
    }
    for kind in OperatorKind:
        name = kind.name.lower()
        if kind in (OperatorKind.HZZ, OperatorKind.HDQ):
            paths[f"eigenbasis-{name}"] = (
                _eigenbasis_path(system, kind), lambda kind=kind: EigenBasis.compute(system, kind))
        else:  # the closed-form rotation, under the density check made before it
            paths[f"evolve-density-{name}"] = (
                "evolve-density", lambda kind=kind: evolve(rho, system, kind, 0.3))
    return paths


DENSE_PATHS = list(_dense_paths(_system(2)))
# the sizes whose traced peaks set each factor, both parities: the Hdq
# paths differ between odd and even N
TRACED_SPINS = (8, 9, 10)
# the largest magnetization sector's share of D falls as N grows, so these
# factors are upper bounds that loosen with N, not 1.25x-tight at every N
LOOSENING = ("eigenbasis-zz",)


@functools.cache
def dense_peaks(n: int) -> dict:
    """Traced call -> (factor key, traced peak) at N = n."""
    # each path on its own fresh system: on a shared one, the eigenbases that
    # earlier paths computed would hide a later path's eigh
    out = {}
    for name in DENSE_PATHS:
        key, call = _dense_paths(_system(n))[name]
        out[name] = key, traced_peak(call)
    return out


@pytest.mark.parametrize("path", DENSE_PATHS)
def test_dense_path_within_estimate(path):
    for n in TRACED_SPINS:
        key, peak = dense_peaks(n)[path]
        assert peak <= dense_bytes(key, 1 << n), n


def test_dense_estimate_is_tight():
    # each factor is set by its own path's peak, not padded beyond it
    for n in TRACED_SPINS:
        for path, (key, peak) in dense_peaks(n).items():
            if key not in LOOSENING:
                assert dense_bytes(key, 1 << n) <= 1.25 * peak, (n, path)


def test_every_factor_is_traced():
    keys = {key for n in TRACED_SPINS for key, _ in dense_peaks(n).values()}
    assert keys == set(_DENSE_FACTORS)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("family", ["all", "parity", "magnetization"])
def test_operator_block_within_its_count(monkeypatch, kind, family):
    # hamiltonian_matrix counts its arrays instead of using a traced factor
    asked = []
    monkeypatch.setattr(mqcsim.evolution, "require_memory", lambda n, what: asked.append(n))
    for n in TRACED_SPINS:
        states = {"all": None, "parity": parity_sectors(n)[0],
                  "magnetization": magnetization_sectors(n)[n // 2]}[family]
        system = _system(n)
        peak = traced_peak(lambda: hamiltonian_matrix(system, kind, states))
        assert peak <= asked.pop(), n


def test_pulse_matrix_within_its_count(monkeypatch):
    # pulse_matrix counts its arrays too: the last kron's input and output
    asked = []
    monkeypatch.setattr(mqcsim.evolution, "require_memory", lambda n, what: asked.append(n))
    for n in TRACED_SPINS:
        peak = traced_peak(lambda: pulse_matrix(Axis.X, 0.7, n))
        assert peak <= asked.pop() <= 1.25 * peak, n


def test_pulse_matrix_refused_before_allocation(monkeypatch):
    monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", 1000)
    with pytest.raises(CapExceeded, match="a 3-spin pulse matrix needs [0-9]+ bytes"):
        pulse_matrix(Axis.X, 0.7, 3)


def test_run_dd_keeps_only_flip_blocks():
    # the DD tables cut Ix and the pulse into their two flip blocks and free
    # each D x D operator at once; a cell builds no half-delay propagator and
    # no tipped density beside Ix, and frees each flip block's weights before
    # the next block is diagonalized
    for n in TRACED_SPINS:
        assert dense_peaks(n)["run_dd"][1] <= 2.5 * 16 * (1 << n) ** 2, n


def test_run_dd_counts_its_kernel_per_cycle(monkeypatch):
    # the series alone (40 bytes a cycle) fits this budget, the signal
    # kernel's grid and transform do not
    config = DdConfig(tau=0.2, theta=0.7, n_cycles=10**6)
    budget = 100 * config.n_cycles
    monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", budget)
    mqcsim.ddprobe._require_series(config)
    system = _system(3)

    def refuse():
        with pytest.raises(CapExceeded, match=f"a series of {config.n_cycles} cycles needs"):
            run_dd(system, config)

    assert traced_peak(refuse) < budget // 100


@pytest.mark.parametrize("n", TRACED_SPINS)
def test_hdq_eigenbasis_peak_is_its_assembly(n):
    # no eye(D) and no D x D Hdq: the peak is one sector's D x D/2 identity
    # slice and its image under the kernel, 16 D^2 / 2 bytes, plus the
    # kernel's temporaries of a few D x 12 columns; at even N sector 0's
    # eigenvectors, 16 D^2 / 8 bytes, are kept while sector 1 is assembled
    _, peak = dense_peaks(n)["eigenbasis-hdq"]
    assert peak <= (0.7 if n % 2 else 0.85) * 16 * (1 << n) ** 2


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


@pytest.mark.parametrize("n", [10, 12, 14])
@pytest.mark.parametrize("kind", list(OperatorKind))
def test_vector_path_within_estimate(n, kind):
    couplings = random_couplings(n, np.random.default_rng(n))
    psi = random_state(n, np.random.default_rng(1))
    peak = traced_peak(
        lambda: krylov_expmv(SpinSystem(n_spins=n, couplings=couplings), kind, psi, 0.4))
    assert peak <= _vector_bytes(n)


@pytest.mark.parametrize("call", [
    lambda s, psi: krylov_expmv(s, OperatorKind.HDQ, psi, 0.4),
    lambda s, psi: evolve(psi, s, OperatorKind.HDQ, 0.4),
    lambda s, psi: apply_operator(OperatorKind.HDQ, s, psi),
], ids=["krylov_expmv", "evolve", "apply_operator"])
def test_vector_budget_checked_before_the_state_is_read(monkeypatch, call):
    # the float64 state is 131 kB at N=14 and its complex copy 262 kB: the
    # refusal comes before either copy or the finiteness scan
    monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", 10**6)
    system = _system(14)
    psi = np.ones(system.dim)

    def refuse():
        with pytest.raises(CapExceeded, match="the 14-spin vector path needs"):
            call(system, psi)

    assert traced_peak(refuse) < 16_000


@pytest.mark.parametrize("key, admitted, refused", [
    ("order_amplitudes-ideal", 14, 15),
    ("order_amplitudes-pulse", 13, 14),
    ("run_dd", 13, 14),
    ("run_dd_stepwise", 13, 14),
    ("evolve-density", 13, 14),
    ("dq_cycle", 13, 14),
    ("eigenbasis-dq-even", 14, 16),
    ("eigenbasis-dq-odd", 13, 15),
    ("eigenbasis-zz", 15, 16),
])
def test_box_budget_boundary_per_path(monkeypatch, key, admitted, refused):
    # the largest N each dense path runs at on a 7.84 GiB machine
    monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", BOX_BYTES)
    _require_dense(1 << admitted, key)
    with pytest.raises(CapExceeded, match=f"the dense {key} path at D={1 << refused} needs"):
        _require_dense(1 << refused, key)


def test_box_budget_refuses_ideal_mqc_at_n15(monkeypatch):
    monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", BOX_BYTES)
    system = _system(15)
    with pytest.raises(CapExceeded, match="order_amplitudes-ideal path at D=32768"):
        order_amplitudes(MqcRun(system, 8, 0.05, uniform_phase_grid(32)))


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
    lambda s: hamiltonian_matrix(s, OperatorKind.HDQ, parity_sectors(s.n_spins)[0]),
    lambda s: EigenBasis.compute(s, OperatorKind.HDQ),
    lambda s: evolve(np.broadcast_to(0.0, (s.dim, s.dim)), s, OperatorKind.HDQ, 0.3),
    dq_cycle,
    lambda s: order_amplitudes(MqcRun(s, 2, 0.1, uniform_phase_grid(8))),
    lambda s: order_amplitudes(
        MqcRun(s, 2, 4 * 3e-6 + 6 * 8e-6, uniform_phase_grid(8), mode=Mode.PULSE_LEVEL)),
    lambda s: order_amplitudes(MqcRun(_system(3), 10**12, 0.1, uniform_phase_grid(8))),
    lambda s: run_dd(s, DdConfig(tau=0.2, theta=0.7, n_cycles=4)),
    lambda s: run_dd(_system(3), DdConfig(tau=0.2, theta=0.7, n_cycles=10**12)),
    lambda s: run_dd_stepwise(s, DdConfig(tau=0.2, theta=0.7, n_cycles=4)),
    lambda s: run_dd_stepwise(_system(3), DdConfig(tau=0.2, theta=0.7, n_cycles=10**12)),
    # a system builds at any size; each table refuses on its first use
    lambda s: SpinSystem(n_spins=14, couplings=np.zeros((14, 14))).magnetization,
    lambda s: _zz_diagonal(build_system(ExplicitCouplings(np.zeros((14, 14))), 14)),
    lambda s: _pair_factors(_system(14), OperatorKind.HDQ),
    lambda s: EigenBasis.compute(_system(14), OperatorKind.HZZ),
], ids=["hamiltonian_matrix", "hamiltonian_matrix-sector", "eigenbasis", "evolve-density",
        "dq_cycle", "order_amplitudes-ideal", "order_amplitudes-pulse",
        "order_amplitudes-tables", "run_dd", "run_dd-cycles",
        "run_dd_stepwise", "run_dd_stepwise-cycles", "SpinSystem", "build_system",
        "pair-factors", "eigenbasis-tables"])
def test_refused_before_allocation(small_budget, build):
    system = _system(10)  # its vector path (330 kB) fits; its dense paths (134 MB) do not

    def refuse():
        with pytest.raises(CapExceeded, match=f"needs [0-9]+ bytes, budget {small_budget} bytes"):
            build(system)

    assert traced_peak(refuse) < small_budget // 10


# every public entry point that takes a system and no 2**N input
ENTRY_POINTS = {
    "magnetization": lambda s: s.magnetization,
    "hamiltonian_matrix": lambda s: hamiltonian_matrix(s, OperatorKind.HZZ),
    "hamiltonian_matrix-sector": lambda s: hamiltonian_matrix(s, OperatorKind.HDQ, np.arange(4)),
    "eigenbasis-hzz": lambda s: EigenBasis.compute(s, OperatorKind.HZZ),
    "eigenbasis-hdq": lambda s: EigenBasis.compute(s, OperatorKind.HDQ),
    "pulse_matrix": lambda s: pulse_matrix(Axis.X, 0.7, s.n_spins),
    "dq_cycle": dq_cycle,
    "order_amplitudes-ideal": lambda s: order_amplitudes(MqcRun(s, 2, 0.1, uniform_phase_grid(8))),
    "order_amplitudes-pulse": lambda s: order_amplitudes(
        MqcRun(s, 2, 4 * 3e-6 + 6 * 8e-6, uniform_phase_grid(8), mode=Mode.PULSE_LEVEL)),
    "run_dd": lambda s: run_dd(s, DdConfig(tau=0.2, theta=0.7, n_cycles=4)),
    "run_dd_stepwise": lambda s: run_dd_stepwise(s, DdConfig(tau=0.2, theta=0.7, n_cycles=4)),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("n", [40, 64, 200, 600, 1100])
def test_large_system_refused_before_allocation(n, entry):
    # the system builds; every path on it refuses with a count that stays
    # a number, on any machine's budget
    system = build_system(AllToAll(1.0), n)

    def refuse():
        with pytest.raises(CapExceeded, match="needs (inf|[0-9]+) bytes"):
            ENTRY_POINTS[entry](system)

    assert traced_peak(refuse) < 1_000_000
