"""Floquet pulse-train detection block: simulation, decay fits, sweeps.

The sequence is a pi/2 pulse along Y (tipping Iz into Ix) followed by a
train of theta rotations along X with period tau; the transverse signal is
sampled at the center of every window, t_j = (j + 1/2) tau after the tip.
Detection picks the component aligned with the initial transverse
magnetization (Ix); a magnitude mode is available behind ``detect``.

The cycle propagator is diagonalized once, so a run costs one Schur
factorization plus O(cycles * dim^2) phase updates regardless of cycle
count. Additive white Gaussian noise of scale ``noise_sigma/sqrt(n_scans)``
per acquisition window models scan averaging; everything is deterministic
under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.optimize import curve_fit

from .errors import FitFailure
from .evolution import Axis, EigenBasis, collective_pulse, pulse_matrix, hamiltonian_matrix
from .spins import OperatorKind, SpinSystem

_SEED_MIX_A = 0x9E3779B97F4A7C15
_SEED_MIX_B = 0xC2B2AE3D27D4EB4F


@dataclass
class DdConfig:
    """Parameters of one pulse-train acquisition."""

    tau: float
    theta: float
    n_cycles: int
    transient_skip: int = 8
    noise_sigma: float = 0.0
    n_scans: int = 1
    rng_seed: int = 0
    detect: str = "aligned"  # or "magnitude"

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")
        if not 0 < self.theta <= np.pi:
            raise ValueError("theta must lie in (0, pi]")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if self.transient_skip < 0:
            raise ValueError("transient_skip must be >= 0")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.n_scans < 1:
            raise ValueError("n_scans must be >= 1")
        if self.detect not in ("aligned", "magnitude"):
            raise ValueError("detect must be 'aligned' or 'magnitude'")


@dataclass
class DdSeries:
    """Sampled signal (t_j, s_j) with the generating config attached."""

    times: np.ndarray
    values: np.ndarray
    config: DdConfig


@dataclass
class DecayFit:
    """Bi-exponential parameters a_f e^{-t/T_f} + a_s e^{-t/T_s}.

    ``degenerate`` marks data that collapsed to a single exponential
    (a_fast = 0, t_fast = t_slow). ``fit_window`` holds the [first, last]
    sample indices used.
    """

    a_fast: float
    t_fast: float
    a_slow: float
    t_slow: float
    residual_rms: float
    fit_window: tuple[int, int]
    degenerate: bool = False

    @property
    def amplitude(self) -> float:
        """Extrapolation of the total fitted signal to t = 0."""
        return self.a_fast + self.a_slow


def run_dd(system: SpinSystem, config: DdConfig) -> DdSeries:
    """Simulate the pulse-train acquisition; see the module docstring."""
    iz = np.diag(system.magnetization).astype(complex)
    ix = hamiltonian_matrix(system, OperatorKind.IX_TOTAL)
    norm = float(system.iz_norm())
    rho0 = collective_pulse(iz, Axis.Y, np.pi / 2)

    half = EigenBasis.compute(system, OperatorKind.HZZ).propagator(config.tau / 2).matrix
    pulse = pulse_matrix(Axis.X, config.theta, system.n_spins)
    cycle = half @ pulse @ half  # sample-to-sample propagator

    # diagonalize the unitary cycle once; for a normal matrix the complex
    # Schur form is diagonal to roundoff
    t_mat, w = scipy.linalg.schur(cycle, output="complex")
    lam = np.diag(t_mat)
    rho_pre = half @ rho0 @ half.conj().T  # state at the first sample
    rho_s = w.conj().T @ rho_pre @ w
    obs = [w.conj().T @ ix @ w]
    if config.detect == "magnitude":
        iy = hamiltonian_matrix(system, OperatorKind.IY_TOTAL)
        obs.append(w.conj().T @ iy @ w)

    weights = [rho_s * o.T for o in obs]  # Tr{O V^j rho V^-j} summands
    z = lam[:, None] * lam[None, :].conj()
    cur = np.ones_like(z)
    comps = np.empty((len(obs), config.n_cycles))
    for j in range(config.n_cycles):
        for a, m in enumerate(weights):
            comps[a, j] = np.sum(m * cur).real / norm
        cur *= z
    signal = comps[0] if config.detect == "aligned" else np.hypot(*comps)

    if config.noise_sigma > 0:
        rng = np.random.default_rng(config.rng_seed)
        signal = signal + rng.normal(
            0.0, config.noise_sigma / np.sqrt(config.n_scans), config.n_cycles
        )
    times = (np.arange(config.n_cycles) + 0.5) * config.tau
    return DdSeries(times=times, values=signal, config=config)


def run_dd_stepwise(system: SpinSystem, config: DdConfig) -> DdSeries:
    """Cycle-by-cycle reference implementation of :func:`run_dd`.

    O(cycles * dim^3); kept as the independent cross-check of the
    spectral path (noise handling is identical).
    """
    iz = np.diag(system.magnetization).astype(complex)
    ix = hamiltonian_matrix(system, OperatorKind.IX_TOTAL)
    iy = hamiltonian_matrix(system, OperatorKind.IY_TOTAL)
    norm = float(system.iz_norm())
    half = EigenBasis.compute(system, OperatorKind.HZZ).propagator(config.tau / 2).matrix
    pulse = pulse_matrix(Axis.X, config.theta, system.n_spins)

    rho = collective_pulse(iz, Axis.Y, np.pi / 2)
    signal = np.empty(config.n_cycles)
    for j in range(config.n_cycles):
        rho = half @ rho @ half.conj().T
        sx = np.trace(ix @ rho).real / norm
        if config.detect == "magnitude":
            sy = np.trace(iy @ rho).real / norm
            signal[j] = np.hypot(sx, sy)
        else:
            signal[j] = sx
        rho = half @ rho @ half.conj().T
        rho = pulse @ rho @ pulse.conj().T
    if config.noise_sigma > 0:
        rng = np.random.default_rng(config.rng_seed)
        signal = signal + rng.normal(
            0.0, config.noise_sigma / np.sqrt(config.n_scans), config.n_cycles
        )
    times = (np.arange(config.n_cycles) + 0.5) * config.tau
    return DdSeries(times=times, values=signal, config=config)


def _biexp(t, a_f, t_f, a_s, t_s):
    return a_f * np.exp(-t / t_f) + a_s * np.exp(-t / t_s)


def _single_exp(t, a, t_s):
    return a * np.exp(-t / t_s)


def fit_biexponential(
    series: DdSeries | tuple[np.ndarray, np.ndarray],
    transient_skip: int | None = None,
    *,
    min_amplitude_snr: float = 2.0,
) -> DecayFit:
    """Nonlinear least squares of a bi-exponential decay.

    Multi-start over a fixed initializer grid, best fit by residual. Data
    the second exponential does not improve (within 1% of residual), or
    whose two time constants agree within 5%, collapses to the single
    exponential branch with ``a_fast = 0`` and ``degenerate=True``.

    Raises :class:`FitFailure` when the fitted t=0 amplitude does not
    exceed ``min_amplitude_snr`` times the residual rms, i.e. the window
    holds no decay structure above its own noise (pure noise fails).
    """
    if isinstance(series, DdSeries):
        t_all, y_all = series.times, series.values
        if transient_skip is None:
            transient_skip = series.config.transient_skip
    else:
        t_all, y_all = np.asarray(series[0], float), np.asarray(series[1], float)
        if transient_skip is None:
            transient_skip = 0
    t = t_all[transient_skip:]
    y = y_all[transient_skip:]
    if t.size < 8:
        raise ValueError(f"need >= 8 points after skip, got {t.size}")
    window = (int(transient_skip), int(t_all.size - 1))

    scale = float(np.max(np.abs(y))) or 1.0
    span = t[-1] - t[0]
    t_hi = 1e6 * span
    t_lo = 1e-3 * (t[1] - t[0])
    bounds2 = ([0.0, t_lo, 0.0, t_lo], [10 * scale, t_hi, 10 * scale, t_hi])

    best = None  # (ssr, params)
    for frac in (0.2, 0.5, 0.8):
        for tf0 in (span / 50, span / 5):
            for ts0 in (span / 2, 5 * span, 100 * span):
                p0 = [frac * scale, tf0, (1 - frac) * scale, ts0]
                try:
                    p, _ = curve_fit(
                        _biexp, t, y, p0=p0, bounds=bounds2, maxfev=20000
                    )
                except (RuntimeError, ValueError):
                    continue
                ssr = float(np.sum((_biexp(t, *p) - y) ** 2))
                if best is None or ssr < best[0]:
                    best = (ssr, p)

    single = None
    for ts0 in (span / 10, span, 50 * span):
        try:
            p, _ = curve_fit(
                _single_exp, t, y, p0=[scale, ts0],
                bounds=([0.0, t_lo], [10 * scale, t_hi]), maxfev=20000
            )
        except (RuntimeError, ValueError):
            continue
        ssr = float(np.sum((_single_exp(t, *p) - y) ** 2))
        if single is None or ssr < single[0]:
            single = (ssr, p)

    if best is None and single is None:
        raise FitFailure("no exponential model converged", {"window": window})

    use_single = best is None
    if not use_single and single is not None:
        a_f, t_f, a_s, t_s = best[1]
        if t_f > t_s:
            t_f, t_s, a_f, a_s = t_s, t_f, a_s, a_f
        close_times = abs(t_s - t_f) <= 0.05 * t_s
        no_gain = single[0] <= best[0] * 1.01
        use_single = close_times or no_gain

    if use_single:
        ssr, (a, t_s) = single
        fit = DecayFit(
            a_fast=0.0, t_fast=t_s, a_slow=float(a), t_slow=float(t_s),
            residual_rms=float(np.sqrt(ssr / t.size)), fit_window=window,
            degenerate=True,
        )
    else:
        ssr, (a_f, t_f, a_s, t_s) = best[0], best[1]
        if t_f > t_s:
            t_f, t_s, a_f, a_s = t_s, t_f, a_s, a_f
        fit = DecayFit(
            a_fast=float(a_f), t_fast=float(t_f), a_slow=float(a_s),
            t_slow=float(t_s), residual_rms=float(np.sqrt(ssr / t.size)),
            fit_window=window, degenerate=False,
        )

    if fit.amplitude < min_amplitude_snr * fit.residual_rms:
        raise FitFailure(
            f"fitted amplitude {fit.amplitude:.3g} below {min_amplitude_snr} x "
            f"residual rms {fit.residual_rms:.3g}: no decay structure",
            {"residual_rms": fit.residual_rms, "window": window, "fit": fit},
        )
    return fit


# --- SNR bookkeeping ------------------------------------------------------


def cumulative_snr(values: np.ndarray, sigma_eff: float) -> np.ndarray:
    """SNR(N) = sum_{j<=N} |s_j| / (sigma_eff * sqrt(N)) for N = 1..len.

    The summed-magnitude convention only supports relative comparisons;
    with ``sigma_eff <= 0`` the noise scale drops to 1 (relative units).
    """
    if sigma_eff <= 0:
        sigma_eff = 1.0
    n = np.arange(1, len(values) + 1)
    return np.cumsum(np.abs(values)) / (sigma_eff * np.sqrt(n))


def optimal_cycles(values: np.ndarray, sigma_eff: float) -> tuple[int, float]:
    """Cycle count N* maximizing the cumulative SNR, and the SNR there."""
    snr = cumulative_snr(values, sigma_eff)
    i = int(np.argmax(snr))
    return i + 1, float(snr[i])


def estimate_noise_sigma(values: np.ndarray) -> float:
    """Per-sample noise scale from second differences (trend-insensitive).

    Uses the median absolute second difference, so slow signal structure
    and isolated glitches barely bias it; exact white noise of std sigma
    gives sigma back in expectation.
    """
    values = np.asarray(values, float)
    if values.size < 4:
        raise ValueError("need at least 4 samples")
    d2 = values[2:] - 2 * values[1:-1] + values[:-2]
    return float(np.median(np.abs(d2)) / (0.6744897501960817 * np.sqrt(6.0)))


def measured_snr(series: DdSeries | np.ndarray) -> float:
    """Cumulative SNR over the full record with the noise scale estimated
    from the data itself (second differences)."""
    values = series.values if isinstance(series, DdSeries) else np.asarray(series)
    sigma = estimate_noise_sigma(values)
    return float(cumulative_snr(values, sigma)[-1])


def scans_to_match_snr(
    n_scans_ref: int, retention_ref: float, retention_other: float
) -> float:
    """Scans needed at ``retention_other`` to match the reference SNR.

    Under the white-noise model SNR scales as retention * sqrt(n_scans),
    so the required scan ratio is the squared retention ratio.
    """
    if retention_ref <= 0 or retention_other <= 0:
        raise ValueError("retention factors must be positive")
    return n_scans_ref * (retention_ref / retention_other) ** 2


# --- parameter sweep ------------------------------------------------------


def mix_seed(base: int, i: int, j: int) -> int:
    """Stable per-cell seed: base xor a splitmix-style hash of the index."""
    h = (i * _SEED_MIX_A + j * _SEED_MIX_B) & 0xFFFFFFFFFFFFFFFF
    return (base ^ h) & 0x7FFFFFFFFFFFFFFF


@dataclass
class SweepCell:
    tau: float
    theta: float
    status: str
    fit: DecayFit | None
    amplitude: float
    n_star: int
    snr: float
    rng_seed: int


@dataclass
class SweepResult:
    tau_grid: np.ndarray
    theta_grid: np.ndarray
    cells: list[SweepCell]

    def grid_of(self, attr: str) -> np.ndarray:
        """(len(tau_grid), len(theta_grid)) array of a cell or fit attribute.

        Fit parameters (``a_fast``, ``t_fast``, ``a_slow``, ``t_slow``)
        come out as NaN for cells whose fit failed.
        """
        if attr == "fit":
            raise ValueError("grid_of needs a scalar attribute")
        fit_attrs = ("a_fast", "t_fast", "a_slow", "t_slow")
        out = np.full((len(self.tau_grid), len(self.theta_grid)), np.nan)
        for idx, cell in enumerate(self.cells):
            i, j = divmod(idx, len(self.theta_grid))
            if attr in fit_attrs:
                val = getattr(cell.fit, attr) if cell.fit is not None else None
            else:
                val = getattr(cell, attr)
            out[i, j] = np.nan if val is None else val
        return out


def sweep(
    system: SpinSystem,
    tau_grid: Sequence[float],
    theta_grid: Sequence[float],
    n_cycles: int,
    *,
    noise_sigma: float = 0.0,
    n_scans: int = 1,
    transient_skip: int = 8,
    base_seed: int = 0,
) -> SweepResult:
    """Map (tau, theta) to decay fits, amplitudes, N* and SNR.

    Cells are independent, seeded deterministically from ``base_seed`` and
    the cell index; per-cell fit failures are recorded in ``status`` and
    the sweep continues.
    """
    tau_grid = np.asarray(list(tau_grid), float)
    theta_grid = np.asarray(list(theta_grid), float)
    if tau_grid.size == 0 or theta_grid.size == 0:
        raise ValueError("sweep grids must be non-empty")
    cells = []
    for i, tau in enumerate(tau_grid):
        for j, theta in enumerate(theta_grid):
            seed = mix_seed(base_seed, i, j)
            config = DdConfig(
                tau=float(tau), theta=float(theta), n_cycles=n_cycles,
                transient_skip=transient_skip, noise_sigma=noise_sigma,
                n_scans=n_scans, rng_seed=seed,
            )
            series = run_dd(system, config)
            sigma_eff = noise_sigma / np.sqrt(n_scans) if noise_sigma > 0 else 0.0
            n_star, snr = optimal_cycles(series.values, sigma_eff)
            try:
                fit = fit_biexponential(series)
                status = "ok"
                amplitude = fit.amplitude
            except FitFailure as err:
                fit = None
                status = f"fit_failed: {err}"
                amplitude = np.nan
            cells.append(
                SweepCell(
                    tau=float(tau), theta=float(theta), status=status, fit=fit,
                    amplitude=amplitude, n_star=n_star, snr=snr, rng_seed=seed,
                )
            )
    return SweepResult(tau_grid=tau_grid, theta_grid=theta_grid, cells=cells)
