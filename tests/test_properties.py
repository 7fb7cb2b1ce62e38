"""Property-based invariants of the one-pass MQC engine over random couplings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mqcsim import (
    ExplicitCouplings,
    MqcRun,
    build_system,
    density_spectra,
    loschmidt_echo,
    order_amplitudes,
    phase_signals,
    spectrum_from_phases,
    uniform_phase_grid,
)

# 16 phases resolve |k| <= 7, which covers every order |k| <= N of N <= 5 spins
N_PHASES = 16


@st.composite
def runs(draw):
    n_spins = draw(st.integers(2, 5))
    upper = draw(st.lists(
        st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False),
        min_size=n_spins * (n_spins - 1) // 2,
        max_size=n_spins * (n_spins - 1) // 2,
    ))
    couplings = np.zeros((n_spins, n_spins))
    couplings[np.triu_indices(n_spins, k=1)] = upper
    system = build_system(ExplicitCouplings(couplings + couplings.T), n_spins)
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
            assert abs(cycled.weight_at(int(k)) - oracle.weight_at(int(k))) < 1e-8
