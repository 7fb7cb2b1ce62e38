"""Floquet pulse-train detection block: simulation, decay fits, sweeps.

The sequence is a pi/2 pulse along Y (tipping Iz into Ix) followed by a
train of theta rotations along X with period tau; the transverse signal is
sampled at the center of every window, t_j = (j + 1/2) tau after the tip.
Detection picks the component aligned with the initial transverse
magnetization (Ix); a magnitude mode is available behind ``detect``.

The cycle propagator is diagonalized once, so a cell costs one Schur
factorization plus one (chunk x dim) @ (dim x dim) GEMM per chunk of
cycles; the Hzz eigenbasis, the observables and the tipped density are
built once per system and shared by every cell of a sweep. The decay fit
is a grid scan over time constants, with the amplitudes solved in closed
form, plus one local polish of each model. Additive white Gaussian noise
of scale ``noise_sigma/sqrt(n_scans)`` per acquisition window models scan
averaging; everything is deterministic under a fixed seed.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.optimize import curve_fit

from .errors import FitFailure
from .evolution import Axis, EigenBasis, collective_pulse, pulse_matrix, hamiltonian_matrix
from .spins import OperatorKind, SpinSystem

_SEED_MIX_A = 0x9E3779B97F4A7C15
_SEED_MIX_B = 0xC2B2AE3D27D4EB4F

# cycles per GEMM of the signal kernel: bounds its working set to a few
# chunk x dim arrays whatever the cycle count
_CHUNK = 128
# time constants per decade in the fit's grid scan
_GRID_PER_DECADE = 8
# smallest 1 - g^2 of two unit grid columns whose 2x2 Gram system is solved
_MIN_DET = 1e-9


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


class _DdSetup:
    """The per-system pieces of an acquisition, built once and shared by
    every cell of a sweep: the Hzz eigenbasis, the observables and the
    tipped initial density ``rho0 = Y(pi/2) Iz``."""

    def __init__(self, system: SpinSystem):
        self.system = system
        self.hzz = EigenBasis.compute(system, OperatorKind.HZZ)
        self.ix = hamiltonian_matrix(system, OperatorKind.IX_TOTAL)
        iz = np.diag(system.magnetization).astype(complex)
        self.rho0 = collective_pulse(iz, Axis.Y, np.pi / 2)
        self.norm = float(system.iz_norm())

    @cached_property
    def iy(self) -> np.ndarray:
        return hamiltonian_matrix(self.system, OperatorKind.IY_TOTAL)


# the setup a running sweep shares with the run_dd calls of its cells; the
# cells still go through run_dd, the public entry point that perfbench's
# traced run spans, and run_dd builds its own setup for any other system
_SWEEP_SETUP: ContextVar[_DdSetup | None] = ContextVar("_SWEEP_SETUP", default=None)


def _signal(setup: _DdSetup, config: DdConfig) -> np.ndarray:
    """Noiseless signal s_j, j = 0..n_cycles-1, from the cycle's spectrum."""
    half = setup.hzz.propagator(config.tau / 2).matrix
    pulse = pulse_matrix(Axis.X, config.theta, setup.system.n_spins)
    cycle = half @ pulse @ half  # sample-to-sample propagator

    # diagonalize the unitary cycle once; for a normal matrix the complex
    # Schur form is diagonal to roundoff
    t_mat, w = scipy.linalg.schur(cycle, output="complex")
    # eigenphases, so that lam^j stays on the unit circle for any j
    phase = np.angle(np.diag(t_mat))
    rho_s = w.conj().T @ (half @ setup.rho0 @ half.conj().T) @ w  # first sample
    obs = [setup.ix] if config.detect == "aligned" else [setup.ix, setup.iy]
    # Tr{O V^j rho V^-j} = sum_ab W_ab lam_a^j conj(lam_b)^j with
    # W = rho_s * (w^+ O w)^T; the observables sit side by side in one W
    weights = np.hstack([rho_s * (w.conj().T @ o @ w).T for o in obs])
    dim = phase.size
    comps = np.empty((len(obs), config.n_cycles))
    for start in range(0, config.n_cycles, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, config.n_cycles))
        lam = np.exp(1j * np.outer(j, phase))
        prod = (lam @ weights).reshape(j.size, len(obs), dim)
        comps[:, j] = np.sum(prod * lam.conj()[:, None, :], axis=2).real.T
    comps /= setup.norm
    return comps[0] if config.detect == "aligned" else np.hypot(*comps)


def run_dd(system: SpinSystem, config: DdConfig) -> DdSeries:
    """Simulate the pulse-train acquisition; see the module docstring."""
    setup = _SWEEP_SETUP.get()
    if setup is None or setup.system is not system:
        setup = _DdSetup(system)
    signal = _signal(setup, config)
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


def _exp_sum(t, *p):
    """sum_k a_k exp(-t / T_k) with p = (a_1, log T_1, a_2, log T_2, ...)."""
    return sum(a * np.exp(-t * np.exp(-u)) for a, u in zip(p[::2], p[1::2]))


def _grid_starts(
    t: np.ndarray, y: np.ndarray, a_hi: float, t_hi: float
) -> tuple[list[float], list[float]]:
    """Best bi- and single-exponential starts on a log grid of time constants.

    With the time constants fixed the model is linear in its amplitudes
    (variable projection), so each grid column and each pair of columns
    gets its non-negative amplitudes in closed form from a 1x1 or 2x2 Gram
    system. Returns ``[a_f, t_f, a_s, t_s]`` and ``[a, t_s]``.
    """
    # from the sample spacing up: a shorter time constant fits one sample
    dt = t[1] - t[0]
    taus = np.geomspace(dt, t_hi, int(_GRID_PER_DECADE * np.log10(t_hi / dt)) + 2)
    basis = np.exp(-t[:, None] / taus)
    sq = np.sum(basis**2, axis=0)
    keep = sq >= np.finfo(float).tiny  # columns that underflowed carry nothing
    if np.count_nonzero(keep) < 2:
        raise FitFailure("every grid time constant underflows over the window")
    taus, norms = taus[keep], np.sqrt(sq[keep])
    basis = basis[:, keep] / norms  # unit columns: the Gram diagonal is 1
    gram, b = basis.T @ basis, basis.T @ y
    c_hi = a_hi * norms  # the amplitude bound in unit-column coordinates

    # one column: y.y - SSR = 2 c b - c^2
    c1 = np.clip(b, 0.0, c_hi)
    gain1 = 2 * c1 * b - c1**2
    s = int(np.argmax(gain1))
    single = [c1[s] / norms[s], taus[s]]

    # two columns (i < k): y.y - SSR = c.b at the unconstrained optimum,
    # which is the NNLS one when it is feasible; on a boundary the pair
    # reduces to a single column, which the scan above covers
    i, k = np.triu_indices(taus.size, 1)
    g = gram[i, k]
    det = 1.0 - g * g
    solvable = det > _MIN_DET
    inv = np.divide(1.0, det, out=np.zeros_like(det), where=solvable)
    ci = (b[i] - g * b[k]) * inv
    ck = (b[k] - g * b[i]) * inv
    ok = solvable & (ci >= 0) & (ck >= 0) & (ci <= c_hi[i]) & (ck <= c_hi[k])
    gain = np.where(ok, ci * b[i] + ck * b[k], -np.inf)
    p = int(np.argmax(gain))
    if gain[p] > gain1[s]:
        pair = [ci[p] / norms[i[p]], taus[i[p]], ck[p] / norms[k[p]], taus[k[p]]]
    else:
        pair = [0.0, taus[0], *single]
    return pair, single


def _polish(t, y, start, a_hi, t_lo, t_hi) -> tuple[float, np.ndarray]:
    """One local least-squares fit of :func:`_exp_sum` from ``start`` =
    (a_1, T_1, ...) under 0 <= a <= a_hi and t_lo <= T <= t_hi; returns the
    SSR and (a_1, T_1, ...).

    The time constants move in log space, so a step scales with the time
    constant it changes, whatever its size.
    """
    x0 = np.array(start, float)
    x0[1::2] = np.log(x0[1::2])
    n = x0.size // 2
    bounds = ([0.0, np.log(t_lo)] * n, [a_hi, np.log(t_hi)] * n)
    # a grid start on a bound can round an ulp outside it, which curve_fit
    # rejects as infeasible
    x0 = np.clip(x0, *bounds)
    try:
        x, _ = curve_fit(_exp_sum, t, y, p0=x0, bounds=bounds, maxfev=20000)
    except (RuntimeError, ValueError):
        x = x0
    ssr = float(np.sum((_exp_sum(t, *x) - y) ** 2))
    x[1::2] = np.exp(x[1::2])
    return ssr, x


def fit_biexponential(
    series: DdSeries | tuple[np.ndarray, np.ndarray],
    transient_skip: int | None = None,
    *,
    min_amplitude_snr: float = 2.0,
) -> DecayFit:
    """Nonlinear least squares of a bi-exponential decay.

    A grid scan over log-spaced time constants, with the amplitudes
    projected out in closed form, picks the start of one local polish of
    each model. Data the second exponential does not improve (within 1%
    of residual), or whose two time constants agree within 5%, collapses
    to the single exponential branch with ``a_fast = 0`` and
    ``degenerate=True``.

    Raises ValueError for non-finite or non-increasing times, non-finite
    values, or fewer than 8 points after the skip. Raises
    :class:`FitFailure` when the fitted t=0 amplitude does not exceed
    ``min_amplitude_snr`` times the residual rms, i.e. the window holds no
    decay structure above its own noise (pure noise fails), and when the
    window lies so far from t = 0 that exp(-t/T) underflows for all T.
    """
    if isinstance(series, DdSeries):
        t_all, y_all = series.times, series.values
        if transient_skip is None:
            transient_skip = series.config.transient_skip
    else:
        t_all, y_all = np.asarray(series[0], float), np.asarray(series[1], float)
        if transient_skip is None:
            transient_skip = 0
    if not (np.all(np.isfinite(t_all)) and np.all(np.isfinite(y_all))):
        raise ValueError("fit needs finite times and values")
    if np.any(np.diff(t_all) <= 0):
        raise ValueError("fit needs strictly increasing times")
    t = t_all[transient_skip:]
    y = y_all[transient_skip:]
    if t.size < 8:
        raise ValueError(f"need >= 8 points after skip, got {t.size}")
    window = (int(transient_skip), int(t_all.size - 1))

    scale = float(np.max(np.abs(y))) or 1.0
    t_hi = 1e6 * (t[-1] - t[0])
    t_lo = 1e-3 * (t[1] - t[0])
    pair0, single0 = _grid_starts(t, y, 10 * scale, t_hi)
    best = _polish(t, y, pair0, 10 * scale, t_lo, t_hi)
    single = _polish(t, y, single0, 10 * scale, t_lo, t_hi)

    a_f, t_f, a_s, t_s = best[1]
    if t_f > t_s:
        t_f, t_s, a_f, a_s = t_s, t_f, a_s, a_f
    close_times = abs(t_s - t_f) <= 0.05 * t_s
    no_gain = single[0] <= best[0] * 1.01

    if close_times or no_gain:
        ssr, (a, t_s) = single
        fit = DecayFit(
            a_fast=0.0, t_fast=t_s, a_slow=float(a), t_slow=float(t_s),
            residual_rms=float(np.sqrt(ssr / t.size)), fit_window=window,
            degenerate=True,
        )
    else:
        fit = DecayFit(
            a_fast=float(a_f), t_fast=float(t_f), a_slow=float(a_s),
            t_slow=float(t_s), residual_rms=float(np.sqrt(best[0] / t.size)),
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
    # every cell's run_dd shares one setup: the system is the same throughout
    token = _SWEEP_SETUP.set(_DdSetup(system))
    try:
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
    finally:
        _SWEEP_SETUP.reset(token)
    return SweepResult(tau_grid=tau_grid, theta_grid=theta_grid, cells=cells)
