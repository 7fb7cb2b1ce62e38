"""Cluster-size distributions from coherence spectra by regularized inversion.

The forward model is a Gaussian mixture over cluster sizes,

    S_k = sum_j exp(-k^2 / s_j) f(s_j) + eps_k,

inverted on the half-spectrum (k >= 0, exploiting the k -> -k symmetry)
over a logarithmic size grid. The inverse problem is badly conditioned,
so we solve

    min_f ||K f - S||^2 + alpha^2 ||L f||^2   subject to  f >= 0

with L the second-difference (curvature) operator on the log-size grid;
non-negativity comes from the active-set NNLS solver itself, never from
post-hoc clipping. ``alpha`` is chosen by the discrepancy principle when
the noise scale is known (a simulation knows what it injected) and by the
L-curve corner otherwise.

The kernel convention follows exp(-k^2/s) literally, which makes a
component of size s contribute a second moment of s/2 to the normalized
coherence distribution; size claims are convention-dependent up to that
factor of two (the single-Gaussian legacy convention is provided by
:func:`gaussian_fit_baseline` for comparison).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit, nnls

from .errors import (
    FitFailure,
    IllConditionedWarning,
    NoFeasibleSolution,
    NonPositiveData,
    NoPeaks,
)

_COND_WARN = 1e12
_ALPHA_RANGE = (1e-6, 1e4)
_DISCREPANCY_SAFETY = 1.0


@dataclass
class KernelProblem:
    """Half-spectrum data against the Gaussian-mixture kernel.

    ``noise_estimate`` is the noise scale eps, either one scalar for every
    point or a per-order vector (heteroscedastic measurements weight the
    fit rows accordingly); zero means unknown and selects the L-curve
    fallback for alpha.
    """

    orders: np.ndarray
    size_grid: np.ndarray
    kernel: np.ndarray
    data: np.ndarray
    noise_estimate: float | np.ndarray = 0.0


@dataclass
class ClusterDistribution:
    """Non-negative weights f(s_j) with the regularization bookkeeping."""

    size_grid: np.ndarray
    f: np.ndarray
    alpha: float
    residual_norm: float
    n_blocks: int | None = None

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.f))


@dataclass
class DistributionAnalytics:
    """Peaks, widths, populations, and the 97% cumulative front."""

    peaks: list[tuple[float, float]]  # (s_peak, height)
    fwhm: list[float]
    populations: list[float]
    front_97: float


@dataclass
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float
    forced_exponent: float | None = None
    forced_prefactor: float | None = None
    forced_residual: float | None = None


@dataclass
class GaussianFit:
    """Legacy single-Gaussian baseline A*exp(-k^2/s)."""

    s: float
    amplitude: float
    residual: float
    degenerate: bool = False


def make_kernel_problem(
    orders: np.ndarray,
    data: np.ndarray,
    *,
    s_min: float = 1.0,
    s_max: float = 1e4,
    n_grid: int = 64,
    noise_estimate: float | np.ndarray = 0.0,
) -> KernelProblem:
    """Assemble K_{kj} = exp(-k_k^2 / s_j) on a log-spaced size grid."""
    orders = np.asarray(orders, dtype=float)
    data = np.asarray(data, dtype=float)
    if orders.ndim != 1 or orders.shape != data.shape:
        raise ValueError("orders and data must be 1-D arrays of equal length")
    if np.any(orders < 0):
        raise ValueError("kernel inversion uses the half-spectrum, k >= 0")
    if np.any(np.diff(orders) <= 0):
        raise ValueError("orders must be strictly increasing")
    if n_grid < 8:
        raise ValueError("size grid needs at least 8 points")
    if not 0 < s_min < s_max:
        raise ValueError("need 0 < s_min < s_max")
    noise = np.asarray(noise_estimate, dtype=float)
    if not (np.all(np.isfinite(orders)) and np.all(np.isfinite(data))
            and np.all(np.isfinite(noise))):
        raise ValueError("orders, data and noise_estimate must be finite")
    if noise.ndim not in (0, 1) or (noise.ndim == 1 and noise.shape != data.shape):
        raise ValueError("noise_estimate must be a scalar or match the data")
    if np.any(noise < 0):
        raise ValueError("noise_estimate must be non-negative")
    size_grid = np.geomspace(s_min, s_max, n_grid)
    kernel = np.exp(-np.outer(orders**2, 1.0 / size_grid))
    return KernelProblem(
        orders=orders, size_grid=size_grid, kernel=kernel, data=data,
        noise_estimate=float(noise) if noise.ndim == 0 else noise,
    )


def problem_from_spectrum(spectrum, **grid_kwargs) -> KernelProblem:
    """Half-spectrum problem from a CoherenceSpectrum (even k >= 0 only)."""
    keep = (spectrum.orders >= 0) & (spectrum.orders % 2 == 0)
    return make_kernel_problem(
        spectrum.orders[keep].astype(float), spectrum.weights[keep], **grid_kwargs
    )


def _second_difference(n: int) -> np.ndarray:
    # grid is uniform in log s; the constant spacing is absorbed into alpha
    l = np.zeros((n - 2, n))
    for i in range(n - 2):
        l[i, i : i + 3] = (1.0, -2.0, 1.0)
    return l


def _solve_tikhonov_nnls(
    kernel: np.ndarray, data: np.ndarray, smoother: np.ndarray, alpha: float
) -> tuple[np.ndarray, float, float]:
    """Returns (f, data residual norm, penalty norm ||L f||)."""
    stacked = np.vstack([kernel, alpha * smoother])
    rhs = np.concatenate([data, np.zeros(smoother.shape[0])])
    f, _ = nnls(stacked, rhs)
    residual = float(np.linalg.norm(kernel @ f - data))
    penalty = float(np.linalg.norm(smoother @ f))
    return f, residual, penalty


def _menger_curvature(p1, p2, p3) -> float:
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    num = 2 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    d12 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    d23 = (x3 - x2) ** 2 + (y3 - y2) ** 2
    d13 = (x3 - x1) ** 2 + (y3 - y1) ** 2
    den = np.sqrt(d12 * d23 * d13)
    return float(num / den) if den > 0 else 0.0


def _lcurve_alpha(kernel, data, smoother) -> float:
    """Golden-section search for the L-curve corner (max Menger curvature)."""
    gs = (1 + np.sqrt(5)) / 2

    def point(log_a):
        _, res, pen = _solve_tikhonov_nnls(kernel, data, smoother, 10.0**log_a)
        # floor the squares, not the norms: 1e-300 ** 2 underflows to 0 and log10(0) = -inf
        return (np.log10(max(res**2, 1e-300)), np.log10(max(pen**2, 1e-300)))

    xs = [np.log10(_ALPHA_RANGE[0]), 0.0, 0.0, np.log10(_ALPHA_RANGE[1])]
    xs[1] = (xs[3] + gs * xs[0]) / (1 + gs)
    xs[2] = xs[0] + (xs[3] - xs[1])
    ps = [point(v) for v in xs]
    best = xs[1]
    while (xs[3] - xs[0]) > 1e-3:
        c3 = _menger_curvature(ps[1], ps[2], ps[3])
        while c3 <= 0 and (xs[3] - xs[0]) > 1e-3:
            xs[3], ps[3] = xs[2], ps[2]
            xs[2], ps[2] = xs[1], ps[1]
            xs[1] = (xs[3] + gs * xs[0]) / (1 + gs)
            ps[1] = point(xs[1])
            c3 = _menger_curvature(ps[1], ps[2], ps[3])
        c2 = _menger_curvature(ps[0], ps[1], ps[2])
        if c2 > c3:
            best = xs[1]
            xs[3], ps[3] = xs[2], ps[2]
            xs[2], ps[2] = xs[1], ps[1]
            xs[1] = (xs[3] + gs * xs[0]) / (1 + gs)
            ps[1] = point(xs[1])
        else:
            best = xs[2]
            xs[0], ps[0] = xs[1], ps[1]
            xs[1], ps[1] = xs[2], ps[2]
            xs[2] = xs[0] + (xs[3] - xs[1])
            ps[2] = point(xs[2])
    return 10.0**best


def _discrepancy_alpha(kernel, data, smoother, target: float) -> float:
    """Smallest alpha (log-bisection) whose residual reaches ``target``."""
    log_lo, log_hi = np.log10(_ALPHA_RANGE[0]), np.log10(_ALPHA_RANGE[1])
    _, res_lo, _ = _solve_tikhonov_nnls(kernel, data, smoother, 10.0**log_lo)
    if res_lo >= target:
        # even (near-)unregularized cannot reach the noise floor
        warnings.warn(
            f"discrepancy target {target:.3e} unreachable; residual floor "
            f"{res_lo:.3e}",
            IllConditionedWarning,
        )
        return 10.0**log_lo
    _, res_hi, _ = _solve_tikhonov_nnls(kernel, data, smoother, 10.0**log_hi)
    if res_hi <= target:
        return 10.0**log_hi
    for _ in range(50):
        mid = 0.5 * (log_lo + log_hi)
        _, res, _ = _solve_tikhonov_nnls(kernel, data, smoother, 10.0**mid)
        if res < target:
            log_lo = mid
        else:
            log_hi = mid
        if log_hi - log_lo < 1e-4:
            break
    return 10.0**log_hi


def invert(
    problem: KernelProblem, alpha: float | None = None, *, n_blocks: int | None = None
) -> ClusterDistribution:
    """Regularized non-negative inversion of one coherence spectrum.

    ``alpha=None`` selects the parameter automatically: discrepancy
    principle against ``noise_estimate`` when that is positive, L-curve
    corner otherwise. A per-point noise vector additionally weights the
    fit rows by 1/sigma_k (floored at 1e-3 of the largest sigma). Small
    negative data entries (noise floor) are clipped to zero before
    solving.
    """
    data = np.asarray(problem.data, dtype=float)
    if data.size and np.max(data) <= 0:
        raise NoFeasibleSolution("all-zero (or negative) spectrum")
    data = np.clip(data, 0.0, None)

    cond = np.linalg.cond(problem.kernel)
    if cond > _COND_WARN:
        warnings.warn(
            f"kernel condition number {cond:.2e} exceeds {_COND_WARN:.0e}; "
            "this is expected and motivates the regularization",
            IllConditionedWarning,
        )

    noise = np.asarray(problem.noise_estimate, dtype=float)
    kernel_w, data_w = problem.kernel, data
    if noise.ndim == 1 and np.max(noise) > 0:
        sigma = np.maximum(noise, 1e-3 * np.max(noise))
        sigma_bar = float(np.sqrt(np.mean(sigma**2)))
        row_w = sigma_bar / sigma
        kernel_w = row_w[:, None] * problem.kernel
        data_w = row_w * data
    else:
        sigma_bar = float(np.max(noise))  # scalar, or 0 for unknown

    smoother = _second_difference(problem.size_grid.size)
    if alpha is None:
        if sigma_bar > 0:
            target = _DISCREPANCY_SAFETY * sigma_bar * np.sqrt(data.size)
            alpha = _discrepancy_alpha(kernel_w, data_w, smoother, target)
        else:
            alpha = _lcurve_alpha(kernel_w, data_w, smoother)
    elif alpha < 0:
        raise ValueError("alpha must be >= 0")

    f, _, _ = _solve_tikhonov_nnls(kernel_w, data_w, smoother, alpha)
    residual = float(np.linalg.norm(problem.kernel @ f - data))
    return ClusterDistribution(
        size_grid=problem.size_grid.copy(), f=f, alpha=float(alpha),
        residual_norm=residual, n_blocks=n_blocks,
    )


# --- distribution analytics ------------------------------------------------


def _interp_crossing(x0, y0, x1, y1, level):
    """x where the segment (x0,y0)-(x1,y1) crosses ``level`` (linear)."""
    if y1 == y0:
        return x1
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def analyze(
    dist: ClusterDistribution,
    *,
    prominence: float = 0.02,
    front_fraction: float = 0.97,
) -> DistributionAnalytics:
    """Peaks, FWHM, per-peak populations, and the cumulative front.

    Peaks are local maxima with prominence above ``prominence * max(f)``
    (edge bins count). Widths interpolate the half-height crossings on the
    log-size axis and are reported as Delta-s in linear units. The weights
    are treated as point masses on the grid: populations are plain sums
    between the valleys separating adjacent peaks, and the front is the
    interpolated size below which ``front_fraction`` of the mass lies.
    """
    from scipy.signal import find_peaks

    f = np.asarray(dist.f, dtype=float)
    s = np.asarray(dist.size_grid, dtype=float)
    total = float(np.sum(f))
    if total <= 0:
        raise NoPeaks("distribution carries no mass")

    padded = np.concatenate([[0.0], f, [0.0]])
    idx, _ = find_peaks(padded, prominence=prominence * float(np.max(f)))
    peak_idx = [int(i) - 1 for i in idx]
    if not peak_idx:
        raise NoPeaks(f"no peak above prominence {prominence} * max(f)")

    x = np.log(s)
    dx = x[1] - x[0]
    # virtual zero-height points one step beyond each edge guarantee that
    # every half-height crossing exists
    xe = np.concatenate([[x[0] - dx], x, [x[-1] + dx]])
    fe = np.concatenate([[0.0], f, [0.0]])
    peaks, widths = [], []
    for p in peak_idx:
        # sub-grid apex by a parabola through the three points around p
        s_peak, height = float(s[p]), float(f[p])
        if 0 < p < f.size - 1:
            den = f[p - 1] - 2 * f[p] + f[p + 1]
            if den < 0:
                shift = 0.5 * (f[p - 1] - f[p + 1]) / den
                if abs(shift) <= 1.0:
                    s_peak = float(np.exp(x[p] + shift * dx))
                    height = float(f[p] - 0.25 * (f[p - 1] - f[p + 1]) * shift)
        peaks.append((s_peak, height))
        half = f[p] / 2.0
        i = p + 1  # index into extended arrays
        while fe[i] >= half:
            i -= 1
        xl = _interp_crossing(xe[i], fe[i], xe[i + 1], fe[i + 1], half)
        i = p + 1
        while fe[i] >= half:
            i += 1
        xr = _interp_crossing(xe[i - 1], fe[i - 1], xe[i], fe[i], half)
        widths.append(float(np.exp(xr) - np.exp(xl)))

    # valleys between adjacent peaks bound the populations
    bounds = [0]
    for a, b in zip(peak_idx[:-1], peak_idx[1:]):
        bounds.append(a + int(np.argmin(f[a : b + 1])))
    bounds.append(f.size)
    populations = [float(np.sum(f[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]

    cum = np.cumsum(f)
    target = front_fraction * total
    j = int(np.searchsorted(cum, target))
    if j == 0:
        front = float(s[0])
    else:
        front = float(
            np.exp(_interp_crossing(x[j - 1], cum[j - 1], x[j], cum[j], target))
        )
    return DistributionAnalytics(
        peaks=peaks, fwhm=widths, populations=populations, front_97=front
    )


def mixture_second_moment(dist: ClusterDistribution, orders: np.ndarray) -> float:
    """Second moment of the mixture's normalized coherence distribution.

    A component of size s is a normalized Gaussian of second moment s/2
    over the coherence orders; components enter in proportion to their
    spectral mass f_j * Z_j with Z_j the kernel column sum over the full
    (symmetric, even-order) k range spanned by ``orders``.
    """
    orders = np.asarray(orders, dtype=float)
    sym_weight = np.where(orders > 0, 2.0, 1.0)  # k and -k
    z = np.einsum(
        "k,kj->j", sym_weight, np.exp(-np.outer(orders**2, 1.0 / dist.size_grid))
    )
    mass = dist.f * z
    if np.sum(mass) <= 0:
        raise NoFeasibleSolution("mixture carries no spectral mass")
    return float(np.sum(mass * dist.size_grid / 2.0) / np.sum(mass))


# --- growth-law fitting -----------------------------------------------------


def fit_power_law(
    times: np.ndarray, values: np.ndarray, forced_exponent: float | None = None
) -> PowerLawFit:
    """Log-log least squares y = prefactor * t**exponent.

    With ``forced_exponent`` the prefactor is fit alone as well and the
    rms log-residual of that constrained model is reported alongside the
    free fit. The points may come in any order and may repeat a time (the
    pooled orders of several analytics files do). Raises ValueError for
    fewer than 4 points, non-finite input or fewer than two distinct
    times, and :class:`NonPositiveData` for a time or value <= 0.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size < 4:
        raise ValueError("need at least 4 points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("power-law fit needs finite times and values")
    if np.unique(t).size < 2:
        raise ValueError("power-law fit needs at least two distinct times")
    if np.any(t <= 0) or np.any(y <= 0):
        raise NonPositiveData("power-law fit needs positive times and values")
    lt, ly = np.log(t), np.log(y)
    slope, intercept = np.polyfit(lt, ly, 1)
    model = slope * lt + intercept
    ss_res = float(np.sum((ly - model) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    fit = PowerLawFit(
        exponent=float(slope), prefactor=float(np.exp(intercept)), r_squared=r2
    )
    if forced_exponent is not None:
        log_pref = float(np.mean(ly - forced_exponent * lt))
        resid = float(np.sqrt(np.mean((ly - forced_exponent * lt - log_pref) ** 2)))
        fit.forced_exponent = float(forced_exponent)
        fit.forced_prefactor = float(np.exp(log_pref))
        fit.forced_residual = resid
    return fit


def gaussian_fit_baseline(orders: np.ndarray, weights: np.ndarray) -> GaussianFit:
    """Single-Gaussian legacy model S_k ~ A exp(-k^2/s).

    This is the classical spin-counting baseline; it often fails for long
    evolution times, which is why :func:`invert` exists. A spectrum with
    fewer than three distinct orders cannot determine a width and is
    returned flagged degenerate.
    """
    k = np.asarray(orders, dtype=float)
    w = np.asarray(weights, dtype=float)
    keep = k >= 0
    k, w = k[keep], w[keep]
    if k.size < 3 or np.count_nonzero(w > 0) < 2:
        return GaussianFit(
            s=float("nan"), amplitude=float(w[np.argmin(k)]) if w.size else 0.0,
            residual=0.0, degenerate=True,
        )

    def model(kk, a, s):
        return a * np.exp(-(kk**2) / s)

    a0 = float(w[np.argmin(k)]) or float(np.max(w))
    pos = (k > 0) & (w > 0)
    if np.any(pos):
        kk1 = k[pos][0]
        s0 = float(np.clip(-kk1**2 / np.log(max(w[pos][0] / a0, 1e-12)), 1e-2, 1e6))
    else:
        s0 = 10.0
    try:
        p, _ = curve_fit(
            model, k, w, p0=[a0, s0], bounds=([0, 1e-6], [np.inf, 1e9]), maxfev=20000
        )
    except (RuntimeError, ValueError) as err:
        raise FitFailure(f"single-Gaussian baseline failed: {err}") from err
    residual = float(np.sqrt(np.mean((model(k, *p) - w) ** 2)))
    return GaussianFit(s=float(p[1]), amplitude=float(p[0]), residual=residual)
