"""Property-based invariants of the one-pass MQC engine, the propagators and
the inversion over random couplings and spectra."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mqcsim import (
    AllToAll,
    DdConfig,
    EigenBasis,
    ExplicitCouplings,
    MqcRun,
    OperatorKind,
    build_system,
    density_spectra,
    dq_cycle,
    evolve,
    hamiltonian_matrix,
    invert,
    krylov_expmv,
    loschmidt_echo,
    make_kernel_problem,
    order_amplitudes,
    phase_signals,
    run_dd,
    run_dd_stepwise,
    spectrum_from_phases,
    uniform_phase_grid,
    unitarity_defect,
)
from mqcsim.evolution import _spectral_bound
from oracles import dense_operator
from spectra import weight_at

# 16 phases resolve |k| <= 7, which covers every order |k| <= N of N <= 5 spins
N_PHASES = 16


@st.composite
def systems(draw, max_spins=5):
    n_spins = draw(st.integers(2, max_spins))
    upper = draw(st.lists(
        st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False),
        min_size=n_spins * (n_spins - 1) // 2,
        max_size=n_spins * (n_spins - 1) // 2,
    ))
    couplings = np.zeros((n_spins, n_spins))
    couplings[np.triu_indices(n_spins, k=1)] = upper
    return build_system(ExplicitCouplings(couplings + couplings.T), n_spins)


@st.composite
def runs(draw):
    system = draw(systems())
    n_max = draw(st.integers(0, 3))
    tau_dq = draw(st.floats(0.01, 0.5))
    return MqcRun(system, n_max, tau_dq, uniform_phase_grid(N_PHASES))


PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)


@PROPERTY
@given(runs())
def test_echo_unity_under_perfect_reversal(run):
    echo = loschmidt_echo(order_amplitudes(run))
    assert echo.shape == (run.n_blocks + 1,)
    assert np.max(np.abs(echo - 1.0)) < 1e-9


@PROPERTY
@given(runs())
def test_density_spectra_nonnegative_even_symmetric(run):
    for spec in density_spectra(order_amplitudes(run)):
        assert np.all(spec.weights >= 0.0)
        assert abs(np.sum(spec.weights) - 1.0) < 1e-12
        assert np.sum(spec.weights[spec.orders % 2 != 0]) < 1e-10
        assert np.max(np.abs(spec.weights - spec.weights[::-1])) < 1e-12


@PROPERTY
@given(runs())
def test_phase_cycled_spectrum_equals_density(run):
    amps = order_amplitudes(run)
    for signal, oracle in zip(phase_signals(amps), density_spectra(amps)):
        cycled = spectrum_from_phases(signal)
        for k in oracle.orders:
            assert abs(weight_at(cycled, int(k)) - weight_at(oracle, int(k))) < 1e-8


@PROPERTY
@given(runs())
def test_density_normalization_equals_echo(run):
    amps = order_amplitudes(run)
    echo = loschmidt_echo(amps)
    for n, (spec, signal) in enumerate(zip(density_spectra(amps), phase_signals(amps))):
        assert signal.phi[0] == 0.0
        assert abs(spec.normalization - echo[n]) < 1e-9
        assert abs(spec.normalization - signal.values[0].real) < 1e-9


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0])
@PROPERTY
@given(systems(max_spins=6), st.floats(0.01, 5.0), st.integers(0, 2**32 - 1))
def test_chebyshev_series_matches_eigenbasis(kind, sign, system, magnitude, seed):
    # couplings of both signs: a spectral bound from the signed sum falls short
    t = sign * magnitude
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=system.dim) + 1j * rng.normal(size=system.dim)
    ref = evolve(psi, system, kind, t, method="eigen")
    assert np.max(np.abs(krylov_expmv(system, kind, psi, t) - ref)) < 1e-10
    zero = np.zeros(system.dim, dtype=complex)
    assert not np.any(krylov_expmv(system, kind, zero, t))


# couplings of both signs, some pairs dropped
SIGNED_OR_DROPPED = st.one_of(
    st.just(0.0), st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
)


@st.composite
def sparse_systems(draw, max_spins=7):
    n_spins = draw(st.integers(2, max_spins))
    n_pairs = n_spins * (n_spins - 1) // 2
    upper = draw(st.lists(SIGNED_OR_DROPPED, min_size=n_pairs, max_size=n_pairs))
    couplings = np.zeros((n_spins, n_spins))
    couplings[np.triu_indices(n_spins, k=1)] = upper
    return build_system(ExplicitCouplings(couplings + couplings.T), n_spins)


@pytest.mark.parametrize("kind", list(OperatorKind))
@PROPERTY
@given(sparse_systems())
def test_spectral_bound_holds_and_beats_gershgorin(kind, system):
    n = system.n_spins
    bound = _spectral_bound(system, kind)
    dense = dense_operator(kind.value, system.couplings, n)
    radius = np.max(np.abs(np.linalg.eigvalsh(dense)))
    assert radius <= bound * (1 + 1e-12) + 1e-12
    gershgorin = 0.5 * np.abs(system.couplings).sum()  # sum_{i<j} |d_ij|
    old = {OperatorKind.HZZ: gershgorin, OperatorKind.HDQ: gershgorin / 2}
    assert bound <= old.get(kind, n / 2) * (1 + 1e-12)


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_spectral_bound_exact_for_two_spins(kind):
    system = build_system(AllToAll(d0=1.3), 2)
    dense = dense_operator(kind.value, system.couplings, 2)
    radius = np.max(np.abs(np.linalg.eigvalsh(dense)))
    assert _spectral_bound(system, kind) == pytest.approx(radius, rel=1e-12)


@pytest.mark.parametrize("kind", [OperatorKind.HZZ, OperatorKind.HDQ])
@pytest.mark.parametrize("n", [2, 5])
def test_uncoupled_spins_do_not_evolve(kind, n):
    system = build_system(ExplicitCouplings(np.zeros((n, n))), n)
    psi = np.random.default_rng(n).normal(size=system.dim) + 0.5j
    assert _spectral_bound(system, kind) == 0.0
    assert np.array_equal(krylov_expmv(system, kind, psi, 3.0), psi)


@pytest.mark.parametrize("kind", list(OperatorKind))
@PROPERTY
@given(systems(max_spins=6), st.floats(-5.0, 5.0))
def test_sector_propagator_matches_expm(kind, system, t):
    # the eigenbasis of Hzz and Hdq works per sector, and the collective
    # spins rotate each column in closed form; expm sees the full matrix
    expected = scipy.linalg.expm(-1j * t * hamiltonian_matrix(system, kind))
    if kind in (OperatorKind.HZZ, OperatorKind.HDQ):
        u = EigenBasis.compute(system, kind).evolve_columns(np.eye(system.dim), t)
    else:
        u = np.column_stack([evolve(e, system, kind, t) for e in np.eye(system.dim)])
    assert np.max(np.abs(u - expected)) < 1e-10


@PROPERTY
@given(
    systems(),
    st.sampled_from([OperatorKind.HZZ, OperatorKind.HDQ]),
    st.floats(-5.0, 5.0),
    st.floats(1e-5, 1e-4),
    st.sampled_from([1, -1]),
)
def test_propagators_unitary(system, kind, t, period, sign):
    u = EigenBasis.compute(system, kind).evolve_columns(np.eye(system.dim), t)
    assert unitarity_defect(u) < 1e-12
    block = dq_cycle(system, period, sign)
    assert unitarity_defect(block) < 1e-12


@PROPERTY
@given(systems(), st.floats(0.01, 1.0), st.floats(0.05, np.pi))
def test_dd_iy_component_vanishes(system, tau, theta):
    # prod sigma_x commutes with Hzz, the X pulses and the tipped density and
    # anticommutes with Iy, so Tr{Iy rho_j} = 0 and the DD readout Tr{Ix rho_j}
    # is the whole transverse signal; built from Kronecker products and expm
    n = system.n_spins
    iz, ix, iy, hzz = (dense_operator(kind, system.couplings, n)
                       for kind in ("iz", "ix", "iy", "zz"))
    tip = scipy.linalg.expm(-0.5j * np.pi * iy)
    half = scipy.linalg.expm(-0.5j * tau * hzz)
    cycle = half @ scipy.linalg.expm(-1j * theta * ix) @ half
    rho = tip @ iz @ tip.conj().T
    scale = np.trace(ix @ rho).real
    assert scale == pytest.approx(n * 2 ** (n - 2))
    rho = half @ rho @ half.conj().T
    for _ in range(16):
        assert abs(np.trace(iy @ rho)) < 1e-12 * scale
        rho = cycle @ rho @ cycle.conj().T


@PROPERTY
@given(systems(max_spins=7), st.floats(0.01, 1.0),
       st.floats(0.0, np.pi, exclude_min=True))
def test_dd_spectral_matches_stepwise(system, tau, theta):
    # the spin-flip blocks and the real Floquet basis against cycle-by-cycle
    # propagation of the full density, which uses neither
    config = DdConfig(tau, theta, n_cycles=24)
    diff = run_dd(system, config).values - run_dd_stepwise(system, config).values
    assert np.max(np.abs(diff)) < 1e-10


@PROPERTY
@given(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12).filter(lambda w: max(w) > 0),
    st.one_of(st.none(), st.floats(1e-4, 10.0)),
)
def test_inversion_nonnegative(weights, alpha):
    orders = 2.0 * np.arange(len(weights))
    problem = make_kernel_problem(orders, np.array(weights))
    dist = invert(problem, alpha)
    assert np.all(dist.f >= 0.0)
