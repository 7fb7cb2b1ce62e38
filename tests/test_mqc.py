import numpy as np
import pytest

import mqcsim.evolution
import mqcsim.mqc
from mqcsim import (
    AllToAll,
    EigenBasis,
    ExplicitCouplings,
    InvalidParameter,
    Mode,
    MqcRun,
    OperatorKind,
    PhaseSignal,
    build_system,
    density_spectra,
    dq_cycle,
    loschmidt_echo,
    order_amplitudes,
    otoc_second_moment,
    phase_signals,
    spectrum_from_phases,
    uniform_phase_grid,
)

from mqcsim.mqc import _sector_blocks, _sector_pass
from oracles import brute_force_mqc_signal as brute_force_signal
from oracles import otoc_direct, random_couplings
from spectra import raw_weights, weight_at


def density_spectrum(system, n_blocks, tau_dq, mode=Mode.IDEAL):
    """The density-matrix oracle spectrum after n_blocks blocks."""
    run = MqcRun(system, n_blocks, tau_dq, np.array([0.0]), mode)
    return density_spectra(order_amplitudes(run))[n_blocks]


@pytest.fixture(scope="module")
def sys2():
    return build_system(AllToAll(d0=1.0), 2)


class TestRunProtocol:
    def test_n_zero_is_unity(self, sys2):
        run = MqcRun(sys2, 0, 0.1, uniform_phase_grid(8))
        signal = phase_signals(order_amplitudes(run))[-1]
        assert np.max(np.abs(signal.values - 1.0)) < 1e-12

    def test_two_spin_analytic(self, sys2):
        # S_{n,phi} = cos^2(d t_n) + sin^2(d t_n) cos(2 phi)
        tau, n = 0.31, 3
        run = MqcRun(sys2, n, tau, uniform_phase_grid(16))
        signal = phase_signals(order_amplitudes(run))[-1]
        t = n * tau
        predicted = np.cos(t) ** 2 + np.sin(t) ** 2 * np.cos(2 * signal.phi)
        assert np.max(np.abs(signal.values - predicted)) < 1e-10

    # odd N runs one sector pass and mirrors it into the other
    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_brute_force_dense(self, n):
        rng = np.random.default_rng(12)
        system = build_system(ExplicitCouplings(random_couplings(n, rng)), n)
        run = MqcRun(system, 2, 0.2, uniform_phase_grid(8))
        signal = phase_signals(order_amplitudes(run))[-1]
        for phi, val in zip(signal.phi, signal.values):
            ref = brute_force_signal(system.couplings, 0.4, phi)
            assert abs(val - ref) < 1e-10

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_mismatch_matches_brute_force_dense(self, n):
        # M_n differs from rho_n only under imperfect reversal, so this is
        # the check of the backward half of the pass
        rng = np.random.default_rng(17)
        couplings = random_couplings(n, rng)
        system = build_system(ExplicitCouplings(couplings), n)
        tau, mismatch = 0.2, 0.05
        run = MqcRun(system, 3, tau, uniform_phase_grid(16), mismatch=mismatch)
        perfect = phase_signals(order_amplitudes(MqcRun(system, 3, tau, run.phases)))
        for signal, ideal in zip(phase_signals(order_amplitudes(run))[1:], perfect[1:]):
            t = signal.n_blocks * tau
            # the mismatch must move the signal, or the comparison shows nothing
            assert np.max(np.abs(signal.values - ideal.values)) > 1e-4
            for phi, val in zip(signal.phi, signal.values):
                ref = brute_force_signal(
                    couplings, t, phi, back_couplings=couplings * (1.0 + mismatch)
                )
                assert abs(val - ref) < 1e-10

    def test_phi_zero_is_unity_ideal(self, sys2):
        for n in (1, 4, 9):
            run = MqcRun(sys2, n, 0.17, np.array([0.0, 1.0]))
            signal = phase_signals(order_amplitudes(run))[-1]
            assert abs(signal.values[0] - 1.0) < 1e-9

    def test_phi_zero_signal_is_real(self):
        rng = np.random.default_rng(44)
        system = build_system(ExplicitCouplings(random_couplings(5, rng)), 5)
        run = MqcRun(system, 3, 0.2, uniform_phase_grid(8), mismatch=0.03)
        signal = phase_signals(order_amplitudes(run))[-1]
        assert abs(signal.values[0].imag) < 1e-9

    def test_phase_validation(self, sys2):
        with pytest.raises(ValueError):
            MqcRun(sys2, 1, 0.1, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            MqcRun(sys2, 1, 0.1, np.array([0.0, 7.0]))
        with pytest.raises(ValueError):
            MqcRun(sys2, -1, 0.1, np.array([0.0]))
        with pytest.raises(ValueError):
            MqcRun(sys2, 1, 0.1, np.array([0.0, np.nan]))
        for field in ("tau_dq", "mismatch", "delta1", "delta2"):
            for bad in (np.nan, np.inf):
                params = {"tau_dq": 0.1, field: bad}
                with pytest.raises(ValueError, match=field):
                    MqcRun(sys2, 1, phases=np.array([0.0]), **params)

    @pytest.mark.parametrize("mismatch", [-1.0, -2.5])
    def test_mismatch_must_exceed_minus_one(self, sys2, mismatch):
        # reversed couplings scaled by 1 + mismatch <= 0 reverse nothing
        with pytest.raises(ValueError, match="mismatch"):
            MqcRun(sys2, 1, 0.1, np.array([0.0]), mismatch=mismatch)

    def test_pulse_level_tau_must_match_block(self, sys2):
        with pytest.raises(ValueError):
            MqcRun(sys2, 1, 0.1, np.array([0.0]), mode=Mode.PULSE_LEVEL)
        MqcRun(sys2, 1, 60e-6, np.array([0.0]), mode=Mode.PULSE_LEVEL)


class TestSpectra:
    def test_constant_signal_is_dc(self):
        signal = PhaseSignal(
            phi=uniform_phase_grid(8), values=np.ones(8, dtype=complex), n_blocks=0
        )
        spec = spectrum_from_phases(signal)
        assert weight_at(spec, 0) == pytest.approx(1.0)
        assert np.sum(spec.weights) == pytest.approx(1.0)
        assert all(weight_at(spec, k) == 0.0 for k in (-2, -1, 1, 2))

    def test_two_spin_spectrum(self, sys2):
        tau, n = 0.29, 2
        run = MqcRun(sys2, n, tau, uniform_phase_grid(16))
        spec = spectrum_from_phases(phase_signals(order_amplitudes(run))[-1])
        t = n * tau
        assert weight_at(spec, 0) == pytest.approx(np.cos(t) ** 2, abs=1e-10)
        for k in (-2, 2):
            assert weight_at(spec, k) == pytest.approx(
                np.sin(t) ** 2 / 2, abs=1e-10
            )

    def test_nonuniform_grid_rejected(self):
        phi = np.array([0.0, 0.5, 1.5, 4.0])
        signal = PhaseSignal(phi=phi, values=np.ones(4, dtype=complex), n_blocks=0)
        with pytest.raises(InvalidParameter, match="not uniform") as exc:
            spectrum_from_phases(signal)
        assert exc.value.name == "signal"

    def test_density_spectrum_n0(self, sys2):
        spec = density_spectrum(sys2, 0, 0.1)
        assert weight_at(spec, 0) == pytest.approx(1.0)
        assert spec.normalization == pytest.approx(1.0)

    def test_density_matches_two_spin(self, sys2):
        tau, n = 0.29, 2
        spec = density_spectrum(sys2, n, tau)
        t = n * tau
        assert weight_at(spec, 0) == pytest.approx(np.cos(t) ** 2, abs=1e-12)
        assert weight_at(spec, 2) == pytest.approx(np.sin(t) ** 2 / 2, abs=1e-12)

    @pytest.mark.parametrize("n_spins,m_phases", [(4, 16), (5, 16), (6, 16)])
    def test_oracle_equivalence(self, n_spins, m_phases):
        system = build_system(AllToAll(d0=1.0), n_spins)
        tau = 0.08
        amps = order_amplitudes(MqcRun(system, 3, tau, uniform_phase_grid(m_phases)))
        for signal, from_density in zip(phase_signals(amps)[1:], density_spectra(amps)[1:]):
            from_phases = spectrum_from_phases(signal)
            for k in from_density.orders:
                assert weight_at(from_phases, int(k)) == pytest.approx(
                    weight_at(from_density, int(k)), abs=1e-8
                )
            # Fourier consistency: raw total equals the phi=0 signal
            s0 = signal.values[0].real
            assert from_phases.normalization == pytest.approx(s0, abs=1e-9)

    def test_even_order_selection(self):
        system = build_system(AllToAll(d0=1.0), 5)
        spec = density_spectrum(system, 2, 0.2)
        odd = spec.orders % 2 != 0
        assert np.sum(raw_weights(spec)[odd]) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        system = build_system(ExplicitCouplings(random_couplings(6, rng)), 6)
        spec = density_spectrum(system, 2, 0.15)
        for k in range(1, 7):
            assert weight_at(spec, k) == pytest.approx(weight_at(spec, -k), abs=1e-9)

    def test_pulse_level_mode_runs(self):
        system = build_system(AllToAll(d0=900.0), 4)
        spec = density_spectrum(system, 2, 60e-6, Mode.PULSE_LEVEL)
        # pulse-level DQ block leaks a little weight into odd orders only
        # at higher order in the couplings
        assert weight_at(spec, 0) > 0.9
        assert np.sum(spec.weights) == pytest.approx(1.0, abs=1e-9)


class TestFlipMirror:
    """X = prod sigma_x commutes with Hdq, maps Iz to -Iz and, at odd N, swaps
    the two parity sectors: sector 1's tables are sector 0's at -k."""

    @pytest.mark.parametrize("n,mode,passes", [
        (5, Mode.IDEAL, 1), (6, Mode.IDEAL, 2), (5, Mode.PULSE_LEVEL, 2)])
    def test_sector_passes(self, n, mode, passes):
        # X maps the reversed pulse-level cycle's +-Y pulses to -+Y pulses,
        # so pulse-level runs keep both passes
        system = build_system(AllToAll(d0=1000.0), n)
        run = MqcRun(system, 1, 60e-6, np.array([0.0]), mode=mode)
        assert len(list(_sector_blocks(run))) == passes

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("mismatch", [0.0, 0.05])
    def test_mirror_equals_both_passes(self, n, mismatch, monkeypatch):
        system = build_system(ExplicitCouplings(random_couplings(n, np.random.default_rng(n))), n)
        run = MqcRun(system, 3, 0.2, uniform_phase_grid(8), mismatch=mismatch)
        mirrored = order_amplitudes(run)
        monkeypatch.setattr(mqcsim.mqc, "_mirrored", lambda run: False)
        both = order_amplitudes(run)
        assert np.max(np.abs(mirrored.amplitudes - both.amplitudes)) < 1e-12
        assert np.max(np.abs(mirrored.density - both.density)) < 1e-12

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("mode, tau, scale", [
        (Mode.IDEAL, 0.2, 1.0), (Mode.PULSE_LEVEL, 60e-6, 1000.0)])
    def test_each_sector_table_is_even_in_k(self, n, mode, tau, scale, monkeypatch):
        # rho_n and M_n are Hermitian, so element (c, r), at order -k, adds the
        # conjugate of element (r, c)'s share: the mirror's k -> -k is a copy
        monkeypatch.setattr(mqcsim.mqc, "_mirrored", lambda run: False)
        couplings = scale * random_couplings(n, np.random.default_rng(n))
        system = build_system(ExplicitCouplings(couplings), n)
        run = MqcRun(system, 3, tau, np.array([0.0]), mode=mode, mismatch=0.05)
        n_passes = 0
        for sector, f, b in _sector_blocks(run):
            amplitudes = np.zeros((4, 2 * n + 1), dtype=complex)
            density = np.zeros((4, 2 * n + 1))
            _sector_pass(f, b, system.magnetization[sector], n, amplitudes, density)
            mirror = amplitudes[:, ::-1].conj()
            assert np.max(np.abs(amplitudes - mirror)) <= 1e-12 * np.max(np.abs(amplitudes))
            assert np.max(np.abs(density - density[:, ::-1])) <= 1e-12 * np.max(density)
            n_passes += 1
        assert n_passes == 2


class TestRotatedFrame:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("mismatch", [0.0, 0.05])
    def test_ideal_blocks_are_real(self, n, mismatch):
        rng = np.random.default_rng(n)
        system = build_system(ExplicitCouplings(random_couplings(n, rng)), n)
        run = MqcRun(system, 1, 0.3, np.array([0.0]), mismatch=mismatch)
        eig = EigenBasis.compute(system, OperatorKind.HDQ)
        # the dense lab-frame route: complex exponentials and explicit F phases
        phase = np.exp(0.25j * np.pi * system.magnetization)
        frame = phase[:, None] * phase.conj()[None, :]
        lab = (eig.propagator(0.3), eig.propagator(-(1.0 + mismatch) * 0.3))
        for s, f, b in _sector_blocks(run):
            cut = np.ix_(s, s)
            for u, real in zip(lab, (f, b)):
                assert np.max(np.abs(u[cut].imag)) > 0.01  # complex in the lab frame
                rotated = frame[cut] * u[cut]
                assert np.max(np.abs(rotated.imag)) <= 1e-12
                assert np.max(np.abs(real - rotated.real)) <= 1e-12
                # F is unitary, so the real part is orthogonal
                assert np.max(np.abs(real @ real.T - np.eye(s.size))) < 1e-12


class TestMismatchAsTimeScale:
    """Hdq and Hzz are linear in the couplings, so reversed blocks with the
    couplings scaled by lambda are reversed blocks run lambda times as long."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("scale", [0.7, 1.05, 1.5])
    def test_ideal(self, n, scale):
        couplings = random_couplings(n, np.random.default_rng(n))
        system = build_system(ExplicitCouplings(couplings), n)
        scaled = build_system(ExplicitCouplings(couplings * scale), n)
        by_couplings = EigenBasis.compute(scaled, OperatorKind.HDQ).propagator(-0.3)
        by_time = EigenBasis.compute(system, OperatorKind.HDQ).propagator(-scale * 0.3)
        assert np.max(np.abs(by_couplings - by_time)) < 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("scale", [0.7, 1.05, 1.5])
    def test_pulse_level(self, n, scale):
        couplings = random_couplings(n, np.random.default_rng(n), 100.0, 2000.0)
        system = build_system(ExplicitCouplings(couplings), n)
        scaled = build_system(ExplicitCouplings(couplings * scale), n)
        by_couplings = dq_cycle(scaled, 3e-6, 8e-6, sign=-1)
        by_time = dq_cycle(system, scale * 3e-6, scale * 8e-6, sign=-1)
        assert np.max(np.abs(by_couplings - by_time)) < 1e-12

    def test_pulse_level_run_matches_scaled_couplings(self):
        # the definition of the mismatch: reversed cycles compiled under
        # couplings * (1 + mismatch), here checked by dense products
        n, mismatch, n_blocks = 4, 0.3, 3
        couplings = random_couplings(n, np.random.default_rng(3), 100.0, 2000.0)
        system = build_system(ExplicitCouplings(couplings), n)
        scaled = build_system(ExplicitCouplings(couplings * (1.0 + mismatch)), n)
        u_f = np.linalg.matrix_power(dq_cycle(system, sign=1), n_blocks)
        u_b = np.linalg.matrix_power(dq_cycle(scaled, sign=-1), n_blocks)
        mz = system.magnetization
        phases = uniform_phase_grid(8)
        runs = [MqcRun(system, n_blocks, 60e-6, phases, mode=Mode.PULSE_LEVEL,
                       mismatch=m) for m in (0.0, mismatch)]
        perfect, signal = (phase_signals(order_amplitudes(r))[-1] for r in runs)
        assert np.max(np.abs(signal.values - perfect.values)) > 1e-4
        for phi, val in zip(phases, signal.values):
            u = u_b @ np.diag(np.exp(1j * phi * mz)) @ u_f
            expected = np.trace(np.diag(mz) @ u @ np.diag(mz) @ u.conj().T)
            assert abs(val - expected.real / system.iz_norm()) < 1e-10

    def test_one_eigenbasis_per_ideal_run(self, monkeypatch):
        calls = []
        compute = EigenBasis.compute

        def counted(cls, *args):
            calls.append(args)
            return compute(*args)

        monkeypatch.setattr(EigenBasis, "compute", classmethod(counted))
        system = build_system(AllToAll(d0=1.0), 5)
        order_amplitudes(MqcRun(system, 3, 0.2, np.array([0.0]), mismatch=0.05))
        assert len(calls) == 1

    def test_one_hzz_build_per_pulse_level_run(self, monkeypatch):
        # the forward and the reversed cycle compile on one Hzz eigenbasis
        kinds = []
        build = mqcsim.evolution.hamiltonian_matrix

        def counted(system, kind, states=None):
            kinds.append(kind)
            return build(system, kind, states)

        monkeypatch.setattr(mqcsim.evolution, "hamiltonian_matrix", counted)
        system = build_system(AllToAll(d0=1000.0), 4)
        order_amplitudes(MqcRun(system, 2, 60e-6, np.array([0.0]),
                                mode=Mode.PULSE_LEVEL, mismatch=0.05))
        # one Hzz eigenbasis: one block per magnetization sector of 4 spins
        assert kinds == [OperatorKind.HZZ] * 5


class TestLoschmidtEcho:
    def test_ideal_mode_is_unity(self, sys2):
        run = MqcRun(sys2, 6, 0.4, np.array([0.0]))
        echo = loschmidt_echo(order_amplitudes(run))
        assert echo.shape == (7,)
        assert np.max(np.abs(echo - 1.0)) < 1e-9

    def test_pulse_level_vanishing_couplings(self):
        system = build_system(AllToAll(d0=1e-4), 4)  # d0 * tau ~ 6e-9
        run = MqcRun(system, 3, 60e-6, np.array([0.0]), mode=Mode.PULSE_LEVEL)
        echo = loschmidt_echo(order_amplitudes(run))
        assert np.max(np.abs(echo - 1.0)) < 1e-9

    @pytest.mark.parametrize("mode,tau", [(Mode.IDEAL, 0.05), (Mode.PULSE_LEVEL, 60e-6)])
    def test_mismatch_decay_monotone(self, mode, tau):
        n_spins = 8
        d0 = 1.0 if mode == Mode.IDEAL else 800.0
        system = build_system(AllToAll(d0=d0), n_spins)
        run = MqcRun(system, 8, tau, np.array([0.0]), mode=mode, mismatch=0.05)
        echo = loschmidt_echo(order_amplitudes(run))
        assert echo[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(echo[1:]) < 0.0)
        assert echo[-1] < 1.0


class TestOtoc:
    def test_zero_time(self, sys2):
        assert otoc_direct(sys2.couplings, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_spin_analytic(self, sys2):
        for t in (0.2, 0.7, 1.3):
            assert otoc_direct(sys2.couplings, t) == pytest.approx(
                4 * np.sin(t) ** 2, abs=1e-10
            )
            spec = density_spectrum(sys2, 1, t)
            assert otoc_second_moment(spec) == pytest.approx(
                4 * np.sin(t) ** 2, abs=1e-10
            )

    def test_identity_on_random_system(self):
        rng = np.random.default_rng(31)
        system = build_system(ExplicitCouplings(random_couplings(6, rng)), 6)
        t = 0.3
        spec = density_spectrum(system, 1, t)
        assert otoc_direct(system.couplings, t) == pytest.approx(
            otoc_second_moment(spec), abs=1e-8
        )

    def test_monotone_scrambling_window(self):
        # second moment grows with n over the documented pre-recurrence
        # window (n = 1..8 at d0 * tau_dq = 0.05 for all-to-all N = 8)
        system = build_system(AllToAll(d0=1.0), 8)
        run = MqcRun(system, 8, 0.05, np.array([0.0]))
        specs = density_spectra(order_amplitudes(run))
        moments = [otoc_second_moment(s) for s in specs]
        assert np.all(np.diff(moments) >= 0.0)
