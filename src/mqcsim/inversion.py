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
the noise scale, one number for every order, is known (a simulation knows
what it injected) and by the L-curve corner otherwise. :func:`analyze`
reads peaks, widths, populations and the 97% cumulative front off the
result at fixed thresholds.

The kernel convention follows exp(-k^2/s) literally, which makes a
component of size s contribute a second moment of s/2 to the normalized
coherence distribution; size claims are convention-dependent up to that
factor of two.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, nnls

from .errors import (
    IllConditionedWarning,
    InvalidParameter,
    NoFeasibleSolution,
    NoPeaks,
    integer,
    number,
    vector,
)

_COND_WARN = 1e12
_ALPHA_RANGE = (1e-6, 1e4)
# a peak stands this fraction of max(f) above its surroundings
_PROMINENCE = 0.02
# the front is the size below which this fraction of the mass lies
_FRONT_FRACTION = 0.97


@dataclass
class KernelProblem:
    """Half-spectrum data against the Gaussian-mixture kernel.

    ``noise_estimate`` is the noise scale eps of every point; zero means
    unknown and selects the L-curve fallback for alpha.
    """

    orders: np.ndarray
    size_grid: np.ndarray
    kernel: np.ndarray
    data: np.ndarray
    noise_estimate: float = 0.0


@dataclass
class ClusterDistribution:
    """Non-negative weights f(s_j) with the regularization bookkeeping."""

    size_grid: np.ndarray
    f: np.ndarray
    alpha: float
    residual_norm: float

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


def make_kernel_problem(
    orders: np.ndarray,
    data: np.ndarray,
    *,
    s_min: float = 1.0,
    s_max: float = 1e4,
    n_grid: int = 64,
    noise_estimate: float = 0.0,
) -> KernelProblem:
    """Assemble K_{kj} = exp(-k_k^2 / s_j) on a log-spaced size grid."""
    orders = vector(orders, "orders")
    data = vector(data, "data")
    if orders.shape != data.shape:
        raise InvalidParameter("data", "orders and data must have equal length")
    if np.any(orders < 0):
        raise InvalidParameter("orders", "kernel inversion uses the half-spectrum, k >= 0")
    if np.any(np.diff(orders) <= 0):
        raise InvalidParameter("orders", "orders must be strictly increasing")
    if integer(n_grid, "n_grid") < 8:
        raise InvalidParameter("n_grid", "size grid needs at least 8 points")
    if not 0 < number(s_min, "s_min") < np.inf:
        raise InvalidParameter("s_min", "s_min must be positive and finite")
    if not s_min < number(s_max, "s_max") < np.inf:
        raise InvalidParameter("s_max", "need s_min < s_max < inf")
    for name, value in (("orders", orders), ("data", data)):
        if not np.all(np.isfinite(value)):
            raise InvalidParameter(name, f"{name} must be finite")
    if not 0 <= number(noise_estimate, "noise_estimate") < np.inf:
        raise InvalidParameter("noise_estimate",
                               "noise_estimate must be finite and non-negative")
    size_grid = np.geomspace(s_min, s_max, n_grid)
    kernel = np.exp(-np.outer(orders**2, 1.0 / size_grid))
    return KernelProblem(orders=orders, size_grid=size_grid, kernel=kernel, data=data,
                         noise_estimate=float(noise_estimate))


def _second_difference(n: int) -> np.ndarray:
    # grid is uniform in log s; the constant spacing is absorbed into alpha
    return np.diff(np.eye(n), 2, axis=0)


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

    def drop_right():
        # the bracket shrinks to [x0, x2]: a new interior point replaces x1
        xs[3], ps[3] = xs[2], ps[2]
        xs[2], ps[2] = xs[1], ps[1]
        xs[1] = (xs[3] + gs * xs[0]) / (1 + gs)
        ps[1] = point(xs[1])

    best = xs[1]
    while (xs[3] - xs[0]) > 1e-3:
        c3 = _menger_curvature(ps[1], ps[2], ps[3])
        while c3 <= 0 and (xs[3] - xs[0]) > 1e-3:
            drop_right()
            c3 = _menger_curvature(ps[1], ps[2], ps[3])
        c2 = _menger_curvature(ps[0], ps[1], ps[2])
        if c2 > c3:
            best = xs[1]
            drop_right()
        else:
            best = xs[2]
            xs[0], ps[0] = xs[1], ps[1]
            xs[1], ps[1] = xs[2], ps[2]
            xs[2] = xs[0] + (xs[3] - xs[1])
            ps[2] = point(xs[2])
    return 10.0**best


def _discrepancy_alpha(kernel, data, smoother, target: float) -> float:
    """Alpha whose residual equals ``target``, by Brent's method in log alpha.

    The NNLS residual grows with alpha, so the ends of ``_ALPHA_RANGE``
    bracket the crossing once neither end already settles it; the root is
    located to 1e-4 in log10 alpha.
    """
    @functools.cache
    def residual(log_a):
        return _solve_tikhonov_nnls(kernel, data, smoother, 10.0**log_a)[1]

    log_lo, log_hi = np.log10(_ALPHA_RANGE[0]), np.log10(_ALPHA_RANGE[1])
    if residual(log_lo) >= target:
        # even (near-)unregularized cannot reach the noise floor
        warnings.warn(
            f"discrepancy target {target:.3e} unreachable; residual floor "
            f"{residual(log_lo):.3e}",
            IllConditionedWarning,
        )
        return 10.0**log_lo
    if residual(log_hi) <= target:
        return 10.0**log_hi
    # the cache hands brentq the two end residuals without a second solve
    log_alpha = brentq(lambda log_a: residual(log_a) - target, log_lo, log_hi, xtol=1e-4)
    return 10.0**log_alpha


def invert(problem: KernelProblem, alpha: float | None = None) -> ClusterDistribution:
    """Regularized non-negative inversion of one coherence spectrum.

    ``alpha=None`` selects the parameter automatically: discrepancy
    principle against ``noise_estimate`` when that is positive, L-curve
    corner otherwise. Small negative data entries (noise floor) are
    clipped to zero before solving.
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

    smoother = _second_difference(problem.size_grid.size)
    if alpha is None:
        if problem.noise_estimate > 0:
            target = problem.noise_estimate * np.sqrt(data.size)
            alpha = _discrepancy_alpha(problem.kernel, data, smoother, target)
        else:
            alpha = _lcurve_alpha(problem.kernel, data, smoother)
    elif not 0 <= number(alpha, "alpha") < np.inf:
        raise InvalidParameter("alpha", "alpha must be finite and >= 0")

    f, residual, _ = _solve_tikhonov_nnls(problem.kernel, data, smoother, alpha)
    return ClusterDistribution(
        size_grid=problem.size_grid.copy(), f=f, alpha=float(alpha), residual_norm=residual
    )


# --- distribution analytics ------------------------------------------------


def _interp_crossing(x0, y0, x1, y1, level):
    """x where the segment (x0,y0)-(x1,y1) crosses ``level`` (linear)."""
    if y1 == y0:
        return x1
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def _side_min(side: np.ndarray) -> float:
    """Lowest sample of ``side`` before the first one above ``side[0]``."""
    higher = np.flatnonzero(side > side[0])
    return float(np.min(side[: higher[0]] if higher.size else side))


def _find_peaks(x: np.ndarray, min_prominence: float) -> list[int]:
    """Local maxima of ``x`` with prominence at least ``min_prominence``.

    The same indices as scipy's ``find_peaks(x, prominence=min_prominence)``:
    the end samples are never peaks, a flat top counts once, at its middle
    sample (rounded down), and the prominence is the height above the
    higher of the lowest samples reached on either side before a sample
    higher than the peak.
    """
    peaks = []
    i, last = 1, x.size - 1
    while i < last:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < last and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                p = (i + ahead - 1) // 2
                base = max(_side_min(x[p::-1]), _side_min(x[p:]))
                if min_prominence <= x[p] - base:
                    peaks.append(p)
                i = ahead
        i += 1
    return peaks


def analyze(dist: ClusterDistribution) -> DistributionAnalytics:
    """Peaks, FWHM, per-peak populations, and the 97% cumulative front.

    Peaks are local maxima with prominence at least 2% of max(f) (edge
    bins count). Widths interpolate the half-height crossings on the
    log-size axis and are reported as Delta-s in linear units. The weights
    are treated as point masses on the grid: populations are plain sums
    between the valleys separating adjacent peaks, and the front is the
    interpolated size below which 97% of the mass lies.
    """
    f = np.asarray(dist.f, dtype=float)
    s = np.asarray(dist.size_grid, dtype=float)
    total = float(np.sum(f))
    if total <= 0:
        raise NoPeaks("distribution carries no mass")

    # virtual zero-height points one step beyond each edge let edge bins
    # count as peaks and guarantee that every half-height crossing exists
    fe = np.concatenate([[0.0], f, [0.0]])
    peak_idx = [i - 1 for i in _find_peaks(fe, _PROMINENCE * float(np.max(f)))]
    if not peak_idx:
        raise NoPeaks(f"no peak above prominence {_PROMINENCE} * max(f)")

    x = np.log(s)
    dx = x[1] - x[0]
    xe = np.concatenate([[x[0] - dx], x, [x[-1] + dx]])
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
    target = _FRONT_FRACTION * total
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
    (symmetric, even-order) k range spanned by ``orders``, which must be a
    1-D array of real numbers.
    """
    orders = vector(orders, "orders")
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
    pooled orders of several analytics files do). Raises
    :class:`InvalidParameter` for times and values that are not 1-D arrays
    of real numbers of equal length, fewer than 4 points, a time or value
    that is not finite and positive, fewer than two distinct times, or a forced
    exponent that is not a finite number.
    """
    t = vector(times, "times")
    y = vector(values, "values")
    if t.shape != y.shape:
        raise InvalidParameter("values", "times and values must have equal length")
    if t.size < 4:
        raise InvalidParameter("times", "need at least 4 points")
    for name, value in (("times", t), ("values", y)):
        if not np.all(np.isfinite(value)):
            raise InvalidParameter(name, f"power-law fit needs finite {name}")
        if np.any(value <= 0):
            raise InvalidParameter(name, f"power-law fit needs positive {name}")
    if np.unique(t).size < 2:
        raise InvalidParameter("times", "power-law fit needs at least two distinct times")
    if forced_exponent is not None:
        if not np.isfinite(number(forced_exponent, "forced_exponent")):
            raise InvalidParameter("forced_exponent", "forced_exponent must be finite")
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
