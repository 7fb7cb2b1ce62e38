import dataclasses

import numpy as np
import pytest
import scipy.linalg

import mqcsim.evolution
from mqcsim import (
    AllToAll,
    Axis,
    Chain,
    DdConfig,
    DecayFit,
    EigenBasis,
    ExplicitCouplings,
    FitFailure,
    OperatorKind,
    build_system,
    cumulative_snr,
    fit_biexponential,
    optimal_cycles,
    pulse_matrix,
    run_dd,
    run_dd_stepwise,
    scans_to_match_snr,
    sweep,
)

import mqcsim.ddprobe
from mqcsim.ddprobe import (_TAPS, _flip_blocks, _floquet_basis, _fourier_sum, _polish,
                            mix_seed)
from oracles import multistart_biexponential, random_couplings
from snr import estimate_noise_sigma, measured_snr


def zero_system(n):
    return build_system(ExplicitCouplings(np.zeros((n, n))), n)


class TestRunDd:
    def test_zero_couplings_pi_pulses_constant(self):
        config = DdConfig(tau=0.3, theta=np.pi, n_cycles=32)
        series = run_dd(zero_system(4), config)
        assert np.max(np.abs(series.values - 1.0)) < 1e-10
        assert np.allclose(series.times, (np.arange(32) + 0.5) * 0.3)

    def test_zero_couplings_any_theta_constant(self):
        # pulses along x cannot rotate Ix; without couplings nothing moves
        config = DdConfig(tau=0.2, theta=np.pi / 4, n_cycles=16)
        series = run_dd(zero_system(3), config)
        assert np.max(np.abs(series.values - 1.0)) < 1e-10

    def test_deterministic_with_noise(self):
        system = build_system(AllToAll(d0=1.0), 4)
        config = DdConfig(
            tau=0.1, theta=np.pi / 4, n_cycles=64, noise_sigma=0.02,
            n_scans=4, rng_seed=99,
        )
        a = run_dd(system, config)
        b = run_dd(system, config)
        assert np.array_equal(a.values, b.values)
        c = run_dd(system, DdConfig(
            tau=0.1, theta=np.pi / 4, n_cycles=64, noise_sigma=0.02,
            n_scans=4, rng_seed=100,
        ))
        assert not np.array_equal(a.values, c.values)

    def test_spectral_matches_stepwise(self):
        rng = np.random.default_rng(17)
        system = build_system(ExplicitCouplings(random_couplings(5, rng)), 5)
        config = DdConfig(tau=0.23, theta=1.1, n_cycles=40, noise_sigma=0.0)
        fast = run_dd(system, config)
        slow = run_dd_stepwise(system, config)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-10

    def test_kernel_edges_match_stepwise(self):
        # the spectral kernel spreads over _TAPS points of a grid of
        # 4 n_cycles, so short series wrap the taps around the grid
        rng = np.random.default_rng(29)
        system = build_system(ExplicitCouplings(random_couplings(4, rng)), 4)
        for n_cycles in (1, 2, _TAPS - 1, _TAPS, _TAPS + 1, 2 * _TAPS + 3, 2049):
            config = DdConfig(tau=0.31, theta=0.9, n_cycles=n_cycles)
            fast = run_dd(system, config)
            slow = run_dd_stepwise(system, config)
            assert fast.values.shape == (n_cycles,)
            assert np.max(np.abs(fast.values - slow.values)) < 1e-10, n_cycles

    def test_spectral_route_reads_ix_as_the_tipped_density(self, monkeypatch):
        # no Y(pi/2) tip is built: the one Ix of a cell is density and readout
        axes, kinds = [], []
        pulse, build = mqcsim.ddprobe.pulse_matrix, mqcsim.ddprobe.hamiltonian_matrix
        monkeypatch.setattr(mqcsim.ddprobe, "pulse_matrix",
                            lambda axis, angle, n: axes.append(axis) or pulse(axis, angle, n))
        monkeypatch.setattr(mqcsim.ddprobe, "hamiltonian_matrix",
                            lambda system, kind: kinds.append(kind) or build(system, kind))
        run_dd(zero_system(3), DdConfig(tau=0.2, theta=0.7, n_cycles=4))
        assert axes == [Axis.X]
        assert kinds == [OperatorKind.IX_TOTAL]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DdConfig(tau=-1.0, theta=1.0, n_cycles=8)
        with pytest.raises(ValueError):
            DdConfig(tau=1.0, theta=0.0, n_cycles=8)
        with pytest.raises(ValueError):
            DdConfig(tau=1.0, theta=4.0, n_cycles=8)
        with pytest.raises(ValueError):
            DdConfig(tau=1.0, theta=1.0, n_cycles=8, transient_skip=-1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                DdConfig(tau=bad, theta=1.0, n_cycles=8)
            with pytest.raises(ValueError, match="noise_sigma"):
                DdConfig(tau=1.0, theta=1.0, n_cycles=8, noise_sigma=bad)

    def test_retention_higher_for_smaller_tau(self):
        # desk-scale mirror of the tau trend: exact closed-system dynamics
        # prethermalizes to a plateau, and the slow component retains more
        # signal for faster driving (smaller d0 * tau)
        system = build_system(AllToAll(d0=1.0), 8)
        fits = {}
        for d0tau in (0.1, 0.4):
            config = DdConfig(tau=d0tau, theta=np.pi / 4, n_cycles=256)
            fits[d0tau] = fit_biexponential(run_dd(system, config))
        assert fits[0.1].a_slow > fits[0.4].a_slow


class TestFourierSum:
    """The nonuniform FFT behind the spectral signal."""

    @pytest.mark.parametrize("n", [1, 2, 13, 14, 15, 64, 2049, 4096])
    def test_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        eps = 1e-9
        x = np.concatenate((
            [0.0, 2 * np.pi - eps, -(2 * np.pi - eps), 4 * np.pi - eps, -(4 * np.pi - eps)],
            rng.uniform(-4 * np.pi, 4 * np.pi, 200)))
        c = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
        # the direct sum in extended precision, so that its own rounding of
        # j x does not count against the kernel
        j = np.arange(n, dtype=np.longdouble)
        direct = np.exp(1j * np.outer(j, x.astype(np.longdouble))) @ c.astype(np.clongdouble)
        # two passes of atoms add into one grid
        f = _fourier_sum([(x[:50], c[:50]), (x[50:], c[50:])], n)
        assert f.shape == (n,)
        assert np.max(np.abs(f - direct)) <= 1e-12 * np.sum(np.abs(c))


class TestFloquetKernel:
    """The spin-flip blocks and the real Floquet basis of the DD kernel."""

    @staticmethod
    def cycle_blocks(system, tau, theta):
        half = EigenBasis.compute(system, OperatorKind.HZZ).propagator(tau / 2)
        pulse = pulse_matrix(Axis.X, theta, system.n_spins)
        return [h @ p @ h for h, p in zip(_flip_blocks(half), _flip_blocks(pulse))]

    @pytest.mark.parametrize("geometry", [AllToAll(d0=1.0), Chain(d0=1.0)],
                             ids=["all-to-all", "chain"])
    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("theta", [np.pi / 2, np.pi])
    def test_degenerate_systems_match_stepwise(self, geometry, n, theta):
        # uniform couplings and these angles leave exact eigenphase
        # degeneracies, the case the cluster re-split exists for
        system = build_system(geometry, n)
        config = DdConfig(tau=0.2, theta=theta, n_cycles=259)
        fast = run_dd(system, config).values
        slow = run_dd_stepwise(system, config).values
        assert np.max(np.abs(fast - slow)) < 1e-10

    @pytest.mark.parametrize("system", [
        build_system(ExplicitCouplings(random_couplings(8, np.random.default_rng(4), -1.5, 1.5)), 8),
        build_system(AllToAll(d0=1.0), 8),
        build_system(Chain(d0=1.0), 7),
    ], ids=["random-8", "all-to-all-8", "chain-7"])
    @pytest.mark.parametrize("theta", [np.pi / 4, np.pi])
    def test_basis_orthogonal_and_diagonalizing(self, system, theta):
        for v in self.cycle_blocks(system, 0.3, theta):
            o, phase = _floquet_basis(v)
            assert np.isrealobj(o)
            assert np.max(np.abs(o.T @ o - np.eye(o.shape[0]))) < 1e-12
            d = o.T @ v @ o
            assert np.max(np.abs(d - np.diag(np.diag(d)))) <= 1e-10
            assert np.max(np.abs(v @ o - o * np.exp(1j * phase))) <= 1e-10

    def test_sweep_grid_makes_no_schur_call(self, monkeypatch):
        calls = []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a, **kw: calls.append(1) or schur(*a, **kw))
        rng = np.random.default_rng(8)
        system = build_system(ExplicitCouplings(random_couplings(8, rng, 0.5, 1.5)), 8)
        thetas = [np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
        for tau in (0.1, 0.2):
            for theta in thetas:
                run_dd(system, DdConfig(tau=tau, theta=theta, n_cycles=16))
        assert calls == []

    def test_schur_fallback_matches_real_basis(self, monkeypatch):
        rng = np.random.default_rng(12)
        system = build_system(ExplicitCouplings(random_couplings(6, rng, -1.5, 1.5)), 6)
        config = DdConfig(tau=0.27, theta=1.3, n_cycles=259)
        real = run_dd(system, config).values
        calls = []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *a, **kw: calls.append(1) or schur(*a, **kw))
        monkeypatch.setattr(mqcsim.ddprobe, "_MAX_RESIDUE", -1.0)
        fallback = run_dd(system, config).values
        assert len(calls) == 2  # one per flip block
        assert np.max(np.abs(fallback - real)) < 1e-12


class TestBiexponentialFit:
    def test_noiseless_recovery_within_one_percent(self):
        t = np.linspace(0.05, 20, 400)
        y = 0.7 * np.exp(-t / 1.0) + 0.3 * np.exp(-t / 10.0)
        fit = fit_biexponential((t, y))
        assert fit.a_fast == pytest.approx(0.7, rel=0.01)
        assert fit.t_fast == pytest.approx(1.0, rel=0.01)
        assert fit.a_slow == pytest.approx(0.3, rel=0.01)
        assert fit.t_slow == pytest.approx(10.0, rel=0.01)
        assert fit.residual_rms < 1e-6
        assert not fit.degenerate
        assert fit.t_fast <= fit.t_slow
        assert fit.amplitude == pytest.approx(1.0, rel=0.01)

    def test_single_exponential_degenerates(self):
        t = np.linspace(0.1, 30, 300)
        y = 0.8 * np.exp(-t / 5.0)
        fit = fit_biexponential((t, y))
        assert fit.degenerate
        assert fit.a_fast == 0.0
        assert fit.t_slow == pytest.approx(5.0, rel=0.01)
        assert fit.a_slow == pytest.approx(0.8, rel=0.01)

    def test_degenerate_fit_fields_are_python_floats(self):
        t = np.linspace(0.1, 30, 300)
        fit = fit_biexponential((t, 0.8 * np.exp(-t / 5.0)))
        assert fit.degenerate
        names = [f.name for f in dataclasses.fields(DecayFit) if f.type == "float"]
        assert names == ["a_fast", "t_fast", "a_slow", "t_slow", "residual_rms"]
        for name in names:
            assert type(getattr(fit, name)) is float, name

    def test_white_noise_fails(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.1, 10, 200)
        y = rng.normal(0.0, 1.0, t.size)
        with pytest.raises(FitFailure):
            fit_biexponential((t, y))

    def test_transient_skip_window(self):
        t = np.linspace(0.05, 20, 200)
        y = 0.5 * np.exp(-t / 4.0)
        y[:8] += 0.5  # corrupted transient
        fit = fit_biexponential((t, y), transient_skip=8)
        assert fit.fit_window == (8, 199)
        assert fit.t_slow == pytest.approx(4.0, rel=0.01)

    def test_too_few_points(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            fit_biexponential((t, np.exp(-t)), transient_skip=5)

    def test_negative_skip_rejected(self):
        # a negative skip would slice the window from the end of the series
        t = np.linspace(0, 1, 10)
        with pytest.raises(ValueError, match="after skipping -9"):
            fit_biexponential((t, np.exp(-t)), transient_skip=-9)

    def test_non_finite_or_unordered_input_rejected(self):
        t = np.linspace(0.05, 20, 64)
        y = 0.8 * np.exp(-t / 4.0)
        for bad in (np.nan, np.inf, -np.inf):
            times, values = t.copy(), y.copy()
            times[10] = values[10] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_biexponential((times, y))
            with pytest.raises(ValueError, match="finite"):
                fit_biexponential((t, values))
        repeated = t.copy()
        repeated[20] = repeated[19]
        for times in (t[::-1], repeated):
            with pytest.raises(ValueError, match="increasing"):
                fit_biexponential((times, y))

    def test_window_beyond_underflow_fails(self):
        # exp(-t/T) underflows for every admissible T when t >> 1e6 x span
        t = 1e10 + np.arange(16.0)
        with pytest.raises(FitFailure, match="underflow"):
            fit_biexponential((t, np.exp(-(t - t[0]) / 4.0)))


    def test_polish_start_an_ulp_above_bound_still_polishes(self):
        # a grid amplitude clipped at the bound can round one ulp above it
        t = np.linspace(10.0, 20.0, 40)
        y = 100 * np.exp(-t) + 50 * np.exp(-t / 3.0)
        a_hi = 10 * np.max(y)
        start = [np.nextafter(a_hi, np.inf), 2.0]
        ssr0 = np.sum((start[0] * np.exp(-t / start[1]) - y) ** 2)
        ssr, (a, _) = _polish(t, y, start, a_hi, 1e-3, 1e9)
        assert a <= a_hi
        assert ssr < 0.1 * ssr0

class TestFitAgainstMultistart:
    """The grid scan plus one polish per model reaches the residual of the
    21-start reference fit and makes the same one/two-exponential call."""

    @staticmethod
    def check(t, y):
        # the comparison holds for fits below the amplitude floor too
        try:
            fit = fit_biexponential((t, y))
        except FitFailure as err:
            fit = err.diagnostics["fit"]
        ssr = fit.residual_rms**2 * t.size
        ref_ssr, ref_degenerate = multistart_biexponential(t, y)
        assert ssr <= ref_ssr * (1 + 1e-6)
        assert fit.degenerate == ref_degenerate

    @pytest.mark.parametrize("seed", range(4))
    def test_run_dd_series(self, seed):
        rng = np.random.default_rng(seed)
        system = build_system(ExplicitCouplings(random_couplings(6, rng)), 6)
        # seed 0 is noiseless
        for tau, theta in ((0.1, np.pi / 2), (0.2, np.pi / 4), (0.3, 3 * np.pi / 8)):
            series = run_dd(system, DdConfig(
                tau=tau, theta=theta, n_cycles=384, noise_sigma=0.01 * seed,
                n_scans=4, rng_seed=seed,
            ))
            self.check(series.times[8:], series.values[8:])

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_synthetic(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = np.linspace(0.05, 20, 300)
        for a_fast in (0.0, 0.3, 0.6):  # 0.0: one exponential plus noise
            t_fast = np.exp(rng.uniform(np.log(0.3), np.log(3.0)))
            t_slow = np.exp(rng.uniform(np.log(6.0), np.log(60.0)))
            y = a_fast * np.exp(-t / t_fast) + (1 - a_fast) * np.exp(-t / t_slow)
            self.check(t, y + rng.normal(0.0, 0.01, t.size))


class TestSnr:
    def test_cumulative_snr_monotone_for_flat_signal(self):
        snr = cumulative_snr(np.ones(64), 0.1)
        assert np.all(np.diff(snr) > 0)
        n_star, best = optimal_cycles(np.ones(64), 0.1)
        assert n_star == 64
        assert best == pytest.approx(np.sqrt(64) / 0.1)

    def test_optimal_cycles_interior_for_dying_signal(self):
        values = np.concatenate([np.ones(16), np.zeros(64)])
        n_star, _ = optimal_cycles(values, 0.05)
        assert n_star == 16

    def test_noise_estimator_recovers_sigma(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, 10, 2000)
        base = 0.7 * np.exp(-t / 4.0)
        sigma = 0.03
        est = estimate_noise_sigma(base + rng.normal(0, sigma, t.size))
        assert est == pytest.approx(sigma, rel=0.1)

    def test_snr_scales_sqrt_scans(self):
        # log-log slope of measured SNR against N_S is 1/2
        rng = np.random.default_rng(23)
        t = np.linspace(0, 10, 512)
        base = 0.4 + 0.4 * np.exp(-t / 3.0)
        sigma = 0.08
        scans = np.array([4, 8, 16, 32, 64, 128])
        log_snr = []
        for n_s in scans:
            vals = [
                measured_snr(base + rng.normal(0, sigma / np.sqrt(n_s), t.size))
                for _ in range(8)
            ]
            log_snr.append(np.log(np.median(vals)))
        slope = np.polyfit(np.log(scans), log_snr, 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_scan_equivalence_square_law(self):
        assert scans_to_match_snr(8, 1.0, 0.5) == pytest.approx(32.0)
        assert scans_to_match_snr(8, 1.0, 1.0 / np.sqrt(22)) == pytest.approx(176.0)
        with pytest.raises(ValueError):
            scans_to_match_snr(8, 0.0, 1.0)

    def test_scan_equivalence_measured(self):
        # matching a low-retention acquisition to the N_S = 8 reference
        # requires the squared retention ratio in scans
        rng = np.random.default_rng(31)
        t = np.linspace(0, 10, 512)
        base = 0.5 + 0.3 * np.exp(-t / 3.0)
        sigma = 0.1
        retention = 0.3
        n_hi = 8
        n_lo = scans_to_match_snr(n_hi, 1.0, retention)
        ratios = []
        for _ in range(12):
            snr_hi = measured_snr(base + rng.normal(0, sigma / np.sqrt(n_hi), t.size))
            snr_lo = measured_snr(
                retention * base + rng.normal(0, sigma / np.sqrt(n_lo), t.size)
            )
            ratios.append(snr_lo / snr_hi)
        assert np.median(ratios) == pytest.approx(1.0, abs=0.1)


class TestSweep:
    def test_single_cell_matches_direct_run(self):
        system = build_system(AllToAll(d0=1.0), 4)
        result = sweep(system, [0.2], [np.pi / 4], 64, base_seed=7)
        assert len(result.cells) == 1
        cell = result.cells[0]
        config = DdConfig(
            tau=0.2, theta=np.pi / 4, n_cycles=64, rng_seed=cell.rng_seed
        )
        series = run_dd(system, config)
        fit = fit_biexponential(series)
        assert cell.status == "ok"
        assert cell.fit.t_slow == fit.t_slow
        assert cell.fit.a_slow == fit.a_slow

    def test_cells_recomputable_independently(self):
        system = build_system(AllToAll(d0=1.0), 6)
        taus = [0.1, 0.3]
        thetas = [np.pi / 4, np.pi / 2]
        result = sweep(system, taus, thetas, 96, noise_sigma=0.01, base_seed=3)
        again = sweep(system, taus, thetas, 96, noise_sigma=0.01, base_seed=3)
        for a, b in zip(result.cells, again.cells):
            assert a.status == b.status
            assert a.snr == b.snr
            if a.fit is not None:
                assert a.fit.t_slow == b.fit.t_slow

    def test_failed_cells_recorded_and_sweep_continues(self):
        # pure noise on a zero-coupling system with a signal-free observable:
        # force failures via noise around zero by using a huge noise scale
        system = zero_system(3)
        result = sweep(
            system, [0.1], [np.pi / 2, np.pi], 64, noise_sigma=50.0, base_seed=1
        )
        assert len(result.cells) == 2
        assert any("fit_failed" in c.status for c in result.cells)

    def test_noise_cell_polish_capped(self, monkeypatch):
        # the first cell above: on pure noise no pair of grid columns beats
        # the best single one, so the pair polish is skipped and the fit
        # makes 11 model calls (2,012 when the pair polish ran to its cap of
        # 2000 evaluations, 15,603 with a finite-difference Jacobian and a
        # cap of 20000); the single exponential wins
        calls = []
        model = mqcsim.ddprobe._exp_sum

        def counted(*args):
            calls.append(1)
            return model(*args)

        monkeypatch.setattr(mqcsim.ddprobe, "_exp_sum", counted)
        result = sweep(
            zero_system(3), [0.1], [np.pi / 2], 64, noise_sigma=50.0, base_seed=1
        )
        assert len(calls) <= 50
        assert result.cells[0].fit.degenerate

    def test_cells_in_grid_order(self):
        # tau outer, theta inner, each cell seeded from its own grid index
        system = build_system(AllToAll(d0=1.0), 4)
        taus, thetas = [0.1, 0.2], [0.5, 1.0, 1.5]
        result = sweep(system, taus, thetas, 48, base_seed=5)
        assert [(c.tau, c.theta, c.rng_seed) for c in result.cells] == [
            (tau, theta, mix_seed(5, i, j))
            for i, tau in enumerate(taus) for j, theta in enumerate(thetas)]

    def test_one_hzz_build_per_sweep(self, monkeypatch):
        kinds = []
        build = mqcsim.evolution.hamiltonian_matrix

        def counted(system, kind, states=None):
            kinds.append(kind)
            return build(system, kind, states)

        monkeypatch.setattr(mqcsim.evolution, "hamiltonian_matrix", counted)
        system = build_system(AllToAll(d0=1.0), 4)
        sweep(system, [0.1, 0.2], [np.pi / 4, np.pi / 2], 32)
        # one Hzz eigenbasis: one block per magnetization sector of 4 spins
        assert kinds.count(OperatorKind.HZZ) == 5

    def test_empty_grid_rejected(self):
        system = build_system(AllToAll(d0=1.0), 4)
        with pytest.raises(ValueError):
            sweep(system, [], [1.0], 16)
