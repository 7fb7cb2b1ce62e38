"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test name carries its criterion number; the conftest summary hook
prints one pass/fail line per criterion at the end of the run. Runtime
limits are asserted inside the tests that carry them.
"""

import time
import warnings

import numpy as np
import pytest

from mqcsim import (
    AllToAll,
    DdConfig,
    ExplicitCouplings,
    IllConditionedWarning,
    Mode,
    MqcRun,
    OperatorKind,
    analyze,
    build_system,
    density_spectra,
    fit_biexponential,
    fit_power_law,
    invert,
    loschmidt_echo,
    make_kernel_problem,
    order_amplitudes,
    otoc_second_moment,
    phase_signals,
    run_dd,
    scans_to_match_snr,
    spectrum_from_phases,
    sweep,
    uniform_phase_grid,
)

from fixtures import (
    BIMODAL_ORDERS,
    BIMODAL_S,
    BIMODAL_W,
    SPECTRUM_NOISE,
    bimodal_noisy,
)
from oracles import aht_error, brute_force_mqc_signal, otoc_direct, random_couplings
from snr import measured_snr
from spectra import raw_weights, weight_at

warnings.simplefilter("ignore", IllConditionedWarning)


def test_c01_two_spin_analytic_mqc():
    """N=2, d=1, ideal mode against the brute-force dense oracle; < 1 s."""
    t0 = time.perf_counter()
    system = build_system(AllToAll(d0=1.0), 2)
    tau, n = 0.31, 3
    t = n * tau
    run = MqcRun(system, n, tau, uniform_phase_grid(16))
    signal = phase_signals(order_amplitudes(run))[-1]

    analytic = np.cos(t) ** 2 + np.sin(t) ** 2 * np.cos(2 * signal.phi)
    assert np.max(np.abs(signal.values - analytic)) < 1e-8
    oracle = np.array(
        [brute_force_mqc_signal(system.couplings, t, p) for p in signal.phi]
    )
    assert np.max(np.abs(signal.values - oracle)) < 1e-8

    spec = spectrum_from_phases(signal)
    assert abs(weight_at(spec, 0) - np.cos(t) ** 2) < 1e-8
    for k in (-2, 2):
        assert abs(weight_at(spec, k) - np.sin(t) ** 2 / 2) < 1e-8
    assert time.perf_counter() - t0 < 1.0


def _criterion2_fixtures():
    out = []
    for n_spins in (6, 8):
        system = build_system(AllToAll(d0=1.0), n_spins)
        tau = 0.05
        run = MqcRun(system, 4, tau, uniform_phase_grid(32))
        amps = order_amplitudes(run)
        signals = phase_signals(amps)[1:]  # n = 1..4
        oracles = density_spectra(amps)[1:]
        out.append((system, signals, oracles))
    return out


def test_c02_fourier_oracle_equivalence():
    """Phase-cycled vs density-resolved spectra, N=6 and 8, n=1..4; < 30 s."""
    t0 = time.perf_counter()
    for system, signals, oracles in _criterion2_fixtures():
        for signal, oracle in zip(signals, oracles):
            cycled = spectrum_from_phases(signal)
            k_all = range(-(signal.phi.size // 2 - 1), signal.phi.size // 2)
            for k in k_all:
                assert abs(weight_at(cycled, k) - weight_at(oracle, k)) < 1e-8
            # raw spectral total equals the phi = 0 echo
            assert abs(cycled.normalization - signal.values[0].real) < 1e-9
    assert time.perf_counter() - t0 < 30.0


def test_c03_even_order_selection():
    """Odd-order mass below 1e-10 across the criterion-2 fixtures."""
    for system, signals, oracles in _criterion2_fixtures():
        for signal, oracle in zip(signals, oracles):
            cycled = spectrum_from_phases(signal)
            for spec in (cycled, oracle):
                odd = spec.orders % 2 != 0
                assert np.sum(raw_weights(spec)[odd]) < 1e-10


def test_c04_otoc_identity():
    """Commutator OTOC equals the spectral second moment to 1e-8."""
    sys2 = build_system(AllToAll(d0=1.0), 2)
    for t in (0.2, 0.9):
        assert abs(otoc_direct(sys2.couplings, t) - 4 * np.sin(t) ** 2) < 1e-8

    rng = np.random.default_rng(123)
    fixtures = [
        (build_system(ExplicitCouplings(random_couplings(6, rng)), 6), 0.3),
        (build_system(AllToAll(d0=1.0), 8), 0.2),
    ]
    for system, t in fixtures:
        run = MqcRun(system, 1, t, np.array([0.0]))
        spec = density_spectra(order_amplitudes(run))[1]
        assert abs(otoc_direct(system.couplings, t) - otoc_second_moment(spec)) < 1e-8


def test_c05_aht_zeroth_order():
    """Halving couplings quarters the block defect at d0*tau_dq <= 0.05."""
    for n_spins in (4, 6):
        system = build_system(AllToAll(d0=1.0), n_spins)
        scale = 500.0  # d0 * tau_dq = 0.03
        err_full = aht_error(OperatorKind.HDQ, system, scale, 3e-6, 8e-6)
        err_half = aht_error(OperatorKind.HDQ, system, scale / 2, 3e-6, 8e-6)
        ratio = err_full / err_half
        assert 4.0 * 0.75 <= ratio <= 4.0 * 1.25


def test_c06_loschmidt_reversal():
    """Ideal echo is exactly unity; 5% mismatch decays strictly over n=1..6."""
    system8 = build_system(AllToAll(d0=800.0), 8)
    ideal = MqcRun(system8, 6, 60e-6, np.array([0.0]), mode=Mode.IDEAL)
    echo = loschmidt_echo(order_amplitudes(ideal))
    assert np.max(np.abs(echo - 1.0)) < 1e-9

    perturbed = MqcRun(
        system8, 6, 60e-6, np.array([0.0]), mode=Mode.PULSE_LEVEL, mismatch=0.05
    )
    echo = loschmidt_echo(order_amplitudes(perturbed))
    assert np.all(np.diff(echo[1:]) < 0.0)
    assert echo[6] < echo[1] < 1.0


def test_c07_inversion_roundtrip():
    """Bimodal truth at 1% measurement noise: >= 18/20 full recoveries; < 10 s."""
    t0 = time.perf_counter()
    noise_norm = SPECTRUM_NOISE * np.sqrt(BIMODAL_ORDERS.size)
    hits = 0
    for seed in range(20):
        prob = make_kernel_problem(
            BIMODAL_ORDERS, bimodal_noisy(seed), noise_estimate=SPECTRUM_NOISE
        )
        dist = invert(prob)
        assert np.all(dist.f >= 0.0)  # non-negativity exact
        assert dist.residual_norm <= 1.5 * noise_norm
        an = analyze(dist)
        locs = [p[0] for p in an.peaks]
        near = [
            [i for i, l in enumerate(locs) if abs(l - s) / s <= 0.15]
            for s in BIMODAL_S
        ]
        if all(near) and all(
            abs(an.populations[ix[0]] - w) <= 0.1 for ix, w in zip(near, BIMODAL_W)
        ):
            hits += 1
    assert hits >= 18
    assert time.perf_counter() - t0 < 10.0


def test_c08_growth_law_fitter():
    """t^3 front and t^2 width with 5% noise: exponents within +-0.2."""
    t = np.linspace(1.0, 8.0, 10)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        front = 5.0 * t**3 * (1 + rng.normal(0, 0.05, t.size))
        width = 2.0 * t**2 * (1 + rng.normal(0, 0.05, t.size))
        assert abs(fit_power_law(t, front).exponent - 3.0) <= 0.2
        assert abs(fit_power_law(t, width).exponent - 2.0) <= 0.2


def test_c09_scrambling_trend_pipeline():
    """N=10 all-to-all, n=0..8 at d0*tau=0.05 (pre-recurrence window):
    spectral second moment and inverted front both non-decreasing."""
    system = build_system(AllToAll(d0=1.0), 10)
    run = MqcRun(system, 8, 0.05, np.array([0.0]))
    specs = density_spectra(order_amplitudes(run))
    moments = np.array([otoc_second_moment(s) for s in specs])
    assert np.all(np.diff(moments) >= 0.0)

    fronts = []
    for spec in specs[1:]:
        # in-silico spectra carry model misfit, not measurement noise:
        # alpha comes from the L-curve corner
        # the half-spectrum, even k >= 0, as `invert` builds it
        keep = (spec.orders >= 0) & (spec.orders % 2 == 0)
        prob = make_kernel_problem(spec.orders[keep].astype(float), spec.weights[keep],
                                   s_min=1.0, s_max=1e3, n_grid=64)
        fronts.append(analyze(invert(prob)).front_97)
    assert np.all(np.diff(fronts) >= 0.0)

    # exponents reported, not gated: adamantane's t^3 / t^2 laws are not
    # expected at N = 10
    t_n = 0.05 * np.arange(1, 9)
    front_fit = fit_power_law(t_n, np.array(fronts), forced_exponent=3.0)
    print(
        f"[criterion 9] front growth exponent {front_fit.exponent:.2f} "
        f"(forced-3 log-residual {front_fit.forced_residual:.3f})"
    )


def test_c10_dd_fitting_and_sweep():
    """Bi-exponential recovery at 1%; SNR ~ sqrt(N_S); deterministic 4x4
    sweep at N=8 under 2 minutes."""
    # noiseless synthetic recovery within 1%
    t = np.linspace(0.05, 20, 400)
    y = 0.7 * np.exp(-t / 1.0) + 0.3 * np.exp(-t / 10.0)
    fit = fit_biexponential((t, y))
    for got, want in [
        (fit.a_fast, 0.7), (fit.t_fast, 1.0), (fit.a_slow, 0.3), (fit.t_slow, 10.0),
    ]:
        assert abs(got - want) / want <= 0.01

    # SNR scales as sqrt(N_S): log-log slope 0.5 +- 0.05
    rng = np.random.default_rng(77)
    tt = np.linspace(0, 10, 512)
    base = 0.4 + 0.4 * np.exp(-tt / 3.0)
    scans = np.array([4, 8, 16, 32, 64, 128])
    log_snr = [
        np.log(np.median([
            measured_snr(base + rng.normal(0, 0.08 / np.sqrt(ns), tt.size))
            for _ in range(8)
        ]))
        for ns in scans
    ]
    slope = np.polyfit(np.log(scans), log_snr, 1)[0]
    assert abs(slope - 0.5) <= 0.05

    # 4x4 sweep at N = 8: < 2 min, bit-reproducible, cells independently
    # recomputable
    system = build_system(AllToAll(d0=1.0), 8)
    taus = [0.05, 0.1, 0.2, 0.4]
    thetas = [np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
    t0 = time.perf_counter()
    result = sweep(
        system, taus, thetas, 2048, noise_sigma=0.01, n_scans=4, base_seed=11
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    again = sweep(
        system, taus, thetas, 2048, noise_sigma=0.01, n_scans=4, base_seed=11
    )
    for a, b in zip(result.cells, again.cells):
        assert a.status == b.status and a.snr == b.snr
        if a.fit is not None:
            assert (a.fit.a_fast, a.fit.t_fast, a.fit.a_slow, a.fit.t_slow) == (
                b.fit.a_fast, b.fit.t_fast, b.fit.a_slow, b.fit.t_slow
            )
    cell = result.cells[5]  # tau=0.1, theta=pi/4
    series = run_dd(system, DdConfig(
        tau=cell.tau, theta=cell.theta, n_cycles=2048, noise_sigma=0.01,
        n_scans=4, rng_seed=cell.rng_seed,
    ))
    refit = fit_biexponential(series)
    assert refit.t_slow == cell.fit.t_slow
    print(f"[criterion 10] sweep 4x4 at N=8: {elapsed:.1f} s")


def test_c11_scan_equivalence():
    """Matching SNR across retention levels needs the squared retention
    ratio in scans (tolerance 10%)."""
    retention = 1.0 / np.sqrt(22.0)  # mirrors the ~22x scan arithmetic
    n_hi = 8
    n_lo = scans_to_match_snr(n_hi, 1.0, retention)
    assert n_lo == pytest.approx(8 * 22.0)

    rng = np.random.default_rng(55)
    tt = np.linspace(0, 10, 512)
    base = 0.5 + 0.3 * np.exp(-tt / 3.0)
    sigma = 0.1
    ratios = []
    for _ in range(12):
        snr_hi = measured_snr(base + rng.normal(0, sigma / np.sqrt(n_hi), tt.size))
        snr_lo = measured_snr(
            retention * base + rng.normal(0, sigma / np.sqrt(n_lo), tt.size)
        )
        ratios.append(snr_lo / snr_hi)
    assert np.median(ratios) == pytest.approx(1.0, abs=0.10)
