"""Floquet pulse-train detection block: simulation, decay fits, sweeps.

The sequence is a pi/2 pulse along Y (tipping Iz into Ix) followed by a
train of theta rotations along X with period tau; the transverse signal is
sampled at the center of every window, t_j = (j + 1/2) tau after the tip.
Detection reads the component aligned with the initial transverse
magnetization, Tr{Ix rho_j} / Tr{Iz^2}, and nothing else: the global spin
flip prod sigma_x commutes with Hzz, with the X pulses and with the tipped
density Ix, and anticommutes with Iy, so Tr{Iy rho_j} = 0 at every sample.

The cycle propagator V = half . X(theta) . half is diagonalized once per
cell, and never as one D x D matrix. V and Ix, the tipped density,
commute with the spin flip, so each splits into two (D/2) x (D/2) blocks
on the flip-symmetric and flip-antisymmetric states, and the signal is
the sum of the two blocks' signals. Each block runs in its real
orthonormal Hzz eigenbasis E_b, read off the flip-paired sectors of
:meth:`EigenBasis.compute` with no ``eigh`` of its own. There the half
propagator is the diagonal d = exp(-i lambda tau/2), and the cycle is the
elementwise d P~ d with P~ = E_b^T P_b E_b, so a cell builds no D x D
propagator. Each block of the cycle is a symmetric unitary, so it has a
real orthogonal eigenbasis, which real ``eigh`` calls find; the complex
Schur form is only the fallback for a basis that leaves an off-diagonal
residue. In that basis the signal is a Fourier sum over the (D/2)^2
differences of a block's eigenphases, evaluated at every cycle at once by
one nonuniform FFT per cell: each difference is spread over a few points
of a grid of 4 n_cycles, and one inverse FFT reads the grid out. A cell
then costs two real eigendecompositions, five products of (D/2) x (D/2)
matrices per block, O(D^2) spreading and one FFT of O(n_cycles log
n_cycles), rather than D^2 n_cycles products. The tip makes Iz into Ix
exactly, so the spectral route takes Ix as the density and builds none;
the stepwise reference tips Iz.

A system keeps what depends on it alone among its derived tables: the Hzz
eigenbasis, and per block E_b, its eigenvalues and Ix~ = E_b^T Ix_b E_b.
It keeps the last angle's P~ in one slot beside them, 16 D^2 bytes in
all. A sweep runs its cells angle by angle, so each angle's pulse is
built once and every cell shares the rest without further setup. The
decay fit is a grid scan over time constants, with the amplitudes solved
in closed form, plus one local polish of each model the scan supports; a
sweep fits its cells in grid order, so the cells that share their sample
times share the grid. Additive
white Gaussian noise of scale ``noise_sigma/sqrt(n_scans)`` per
acquisition window models scan averaging; everything is deterministic
under a fixed seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.optimize import curve_fit

from .errors import FitFailure, InvalidParameter, integer, number, vector
from .evolution import (
    Axis,
    EigenBasis,
    _flip_blocks,
    _mul,
    _require_dense,
    collective_pulse,
    hamiltonian_matrix,
    pulse_matrix,
)
from .spins import OperatorKind, SpinSystem, _derived, _slot, require_memory

_SEED_MIX_A = 0x9E3779B97F4A7C15
_SEED_MIX_B = 0xC2B2AE3D27D4EB4F

# taps of the signal kernel's "exponential of semicircle" spreading
# function, and its shape parameter for a grid oversampled twice: the
# Fourier sum comes out within 1e-12 of the atoms' total weight
_TAPS = 14
_BETA = 2.30 * _TAPS
# atoms spread per pass: bounds the pass's few atoms x _TAPS temporaries
# whatever the block size
_ATOMS = 512
# Gauss-Legendre nodes on [0, 1] of the spreading function's transform;
# 16 already reach its roundoff
_NODES = 20
# time constants per decade in the fit's grid scan
_GRID_PER_DECADE = 8
# a fit whose t=0 amplitude is below this many residual rms holds no decay
_MIN_AMPLITUDE_SNR = 2.0
# smallest 1 - g^2 of two unit grid columns whose 2x2 Gram system is solved
_MIN_DET = 1e-9
# weight of Im V in the real symmetric matrix Re V + c Im V whose
# eigenvectors diagonalize a symmetric unitary cycle V
_MIX = 0.6180339887498949
# adjacent eigenvalues of Re V + c Im V closer than this form one run, which
# the perpendicular combination re-splits
_CLUSTER_GAP = 1e-4
# largest off-diagonal |O^T V O| the real Floquet basis may leave; above it
# the block falls back to the complex Schur form
_MAX_RESIDUE = 1e-9


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

    def __post_init__(self):
        if not 0 < number(self.tau, "tau") < np.inf:
            raise InvalidParameter("tau", "tau must be positive and finite")
        if not 0 < number(self.theta, "theta") <= np.pi:
            raise InvalidParameter("theta", "theta must lie in (0, pi]")
        for name in ("n_cycles", "transient_skip", "n_scans", "rng_seed"):
            integer(getattr(self, name), name)
        if self.n_cycles < 1:
            raise InvalidParameter("n_cycles", "n_cycles must be >= 1")
        if self.transient_skip < 0:
            raise InvalidParameter("transient_skip", "transient_skip must be >= 0")
        if not 0 <= number(self.noise_sigma, "noise_sigma") < np.inf:
            raise InvalidParameter("noise_sigma", "noise_sigma must be finite and >= 0")
        if self.n_scans < 1:
            raise InvalidParameter("n_scans", "n_scans must be >= 1")
        if self.rng_seed < 0:
            raise InvalidParameter("rng_seed", "rng_seed must be >= 0")


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


def _floquet_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors (columns) and eigenphases of a symmetric unitary ``v``.

    Re v and Im v are commuting real symmetric matrices, so v has a real
    orthogonal eigenbasis (Dyson, J. Math. Phys. 3, 140, 1962), taken from
    one real ``eigh`` of Re v + c Im v. Its eigenvalue sqrt(1 + c^2)
    cos(phi - phi0) is the same for phi and 2 phi0 - phi, so each run of
    near-equal eigenvalues is re-split by the perpendicular combination
    Im v - c Re v, which is sqrt(1 + c^2) sin(phi - phi0). Each eigenvalue
    is its column's o^T v o; where some entry of v o - o diag leaves a
    residue above ``_MAX_RESIDUE``, the complex Schur vectors are returned
    instead.
    """
    re, im = v.real, v.imag
    vals, o = scipy.linalg.eigh(re + _MIX * im, driver="evd")
    perp = im - _MIX * re
    # the runs of two or more eigenvalues: edges[r] <= run < edges[r + 1]
    edges = np.flatnonzero(np.diff(vals) >= _CLUSTER_GAP) + 1
    edges = np.concatenate(([0], edges, [vals.size]))
    wide = np.flatnonzero(np.diff(edges) > 1)
    for lo, hi in zip(edges[wide], edges[wide + 1]):
        oc = o[:, lo:hi]
        o[:, lo:hi] = oc @ np.linalg.eigh(oc.T @ perp @ oc)[1]
    del perp
    vo = _mul(o.T, v).T  # v o = (o^T v)^T, since v is symmetric
    diag = np.einsum("ij,ij->j", o, vo)
    vo -= o * diag
    if np.max(np.abs(vo)) > _MAX_RESIDUE:
        t_mat, o = scipy.linalg.schur(v, output="complex")
        diag = np.diag(t_mat)
    return o, np.angle(diag)


def _signal(system: SpinSystem, config: DdConfig) -> np.ndarray:
    """Noiseless signal s_j, j < n_cycles, from the cycle's spectrum; Ix is the tipped density."""
    _require_dense(system.dim, "run_dd")
    tables = _flip_tables(system)
    pulses = _pulse_blocks(system, config.theta)
    trace = 0.0

    def atoms():
        # the spin flip keeps every operator block-diagonal: the signal is
        # the sum of the two blocks' signals
        nonlocal trace
        for (energy, _, ix), pulse in zip(tables, pulses):
            half = np.exp(-1j * energy * (config.tau / 2))
            phase, weights = _block_weights(half, pulse, ix)
            trace += np.trace(weights).real
            yield from _pair_atoms(phase, weights)
            del weights

    # the atoms are all spread once the sum returns, so the trace is complete
    signal = _fourier_sum(atoms(), config.n_cycles).real + trace
    signal /= system.iz_norm()
    return signal


def _flip_tables(system: SpinSystem) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(lambda, E, Ix~) of each flip block of Hzz, built once and kept with
    the system's other tables: the block's Hzz eigenvalues, its real
    orthonormal eigenvectors in the columns of E, and Ix~ = E^T Ix_b E."""
    def build():
        bases = _flip_eigenbases(system)
        ix = _flip_blocks(hamiltonian_matrix(system, OperatorKind.IX_TOTAL))
        return [(energy, e, _congruence(e, ix_b)) for (energy, e), ix_b in zip(bases, ix)]

    return _derived(system, "dd-flip-tables", build)


def _pulse_blocks(system: SpinSystem, theta: float) -> list[np.ndarray]:
    """P~ = E^T P_b E of each flip block of the pulse X(theta), in the
    block's Hzz eigenbasis; the system keeps the last angle's."""
    def build():
        pulse = _flip_blocks(pulse_matrix(Axis.X, theta, system.n_spins))
        return [_congruence(e, p) for (_, e, _), p in zip(_flip_tables(system), pulse)]

    return _slot(system, "dd-pulse", theta, build)


def _congruence(e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """e^T m e for a real ``e`` and a symmetric ``m``: e^T (e^T m)^T."""
    return _mul(e.T, _mul(e.T, m).T)


def _flip_eigenbases(system: SpinSystem) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues and real orthonormal eigenvectors (columns) of Hzz's two
    flip blocks, on the states s < D/2 as :func:`_flip_blocks` orders them,
    read from :meth:`EigenBasis.compute`'s magnetization sectors.

    The flip maps the sector of popcount k onto that of N - k. An
    eigenvector v of a sector k > N/2 gives one column of each block: v_s
    at the states s < D/2 of the sector, and +-v_s at ~s for its states
    s >= D/2, + in the flip-even block and - in the odd one. At even N the
    sector k = N/2 maps onto itself, and each of its eigenvectors is
    (u, +-u reversed)/sqrt(2) on its m states below D/2 and their images:
    the sign of v[:m] . v[::-1][:m] gives its block, sqrt(2) v[:m] = u.
    """
    basis = EigenBasis.compute(system, OperatorKind.HZZ)
    n, dim = system.n_spins, system.dim
    half = dim // 2
    vectors = np.zeros((2, half, half))
    energies = [[], []]
    col = 0
    for s, w, v in list(zip(basis.sectors, basis.eigenvalues, basis.eigenvectors))[n // 2 + 1:]:
        low = s < half
        rows = np.where(low, s, dim - 1 - s)
        vectors[0][rows, col:col + w.size] = v
        vectors[1][rows, col:col + w.size] = np.where(low, 1.0, -1.0)[:, None] * v
        for out in energies:
            out.append(w)
        col += w.size
    if n % 2 == 0:
        k = n // 2
        s, w, v = basis.sectors[k], basis.eigenvalues[k], basis.eigenvectors[k]
        m = s.size // 2
        odd = np.einsum("ij,ij->j", v[:m], v[::-1][:m]) < 0
        for vecs, out, cols in zip(vectors, energies, (~odd, odd)):
            vecs[s[:m], col:col + m] = np.sqrt(2) * v[:m, cols]
            out.append(w[cols])
    return [(np.concatenate(out), vecs) for out, vecs in zip(energies, vectors)]


def _block_weights(
    half: np.ndarray, pulse: np.ndarray, ix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases of one flip block of the cycle V = half . pulse . half,
    and the weights W of its signal Tr{Ix V^j rho V^-j} = sum_ab W_ab
    e^{ij(phase_a - phase_b)}, all in the block's Hzz eigenbasis, where the
    half propagator is the diagonal ``half``: W = rho_s * (w^dag Ix w)^T for
    the Floquet basis w and the first sample rho_s = w^dag (half Ix half^*) w
    in it."""
    w, phase = _floquet_basis(half[:, None] * pulse * half)
    w_dag = w.T if np.isrealobj(w) else w.conj().T
    # rho_s^T = w^T (w^dag rho)^T keeps the real w left in both products
    rho_t = _mul(w.T, _mul(w_dag, half[:, None] * ix * half.conj()).T)
    return phase, (rho_t * _mul(w_dag, _mul(ix, w))).T


def _pair_atoms(phase: np.ndarray, weights: np.ndarray):
    """The atoms of sum_ab W_ab e^{ij(phase_a - phase_b)} off the diagonal,
    in passes of at most about ``_ATOMS``: the real part of the pairs (a, b)
    and (b, a) is that of one atom x = phase_a - phase_b, c = W_ab +
    conj(W_ba). A pass takes whole rows a of the triangle a < b."""
    n = phase.size
    r0 = 0
    while r0 < n - 1:
        r1 = min(r0 + max(1, _ATOMS // (n - 1 - r0)), n - 1)
        # the rows r0 <= a < r1 against the columns b > r0; keep b > a
        x = phase[r0:r1, None] - phase[r0 + 1:]
        c = weights[r0:r1, r0 + 1:] + weights[r0 + 1:, r0:r1].T.conj()
        upper = np.arange(r0 + 1, n) > np.arange(r0, r1)[:, None]
        yield x[upper], c[upper]
        r0 = r1


def _fourier_sum(atoms, n: int) -> np.ndarray:
    """f_j = sum_k c_k e^{i j x_k} for j < n over every pass (x, c) of
    ``atoms``, by a type-1 nonuniform FFT (Greengard & Lee, SIAM Rev. 46,
    443, 2004).

    Each atom is spread with the "exponential of semicircle" function
    exp(beta (sqrt(1 - z^2) - 1)) (Barnett, Magland & af Klinteberg, SIAM J.
    Sci. Comput. 41, C479, 2019) over ``_TAPS`` points of a periodic grid of
    4 n points, twice oversampled for the band [-n, n); one inverse FFT of
    the grid, divided by the function's transform, gives f. The x are taken
    modulo 2 pi.
    """
    size = 4 * n
    taps = np.arange(_TAPS)
    # the real and imaginary parts of the grid, with room for the taps that
    # run past its end
    acc = np.zeros((2, size + _TAPS - 1))
    for x, c in atoms:
        # grid position of each atom and the first of its taps
        u = x * (size / (2 * np.pi))
        first = np.ceil(u - _TAPS / 2)
        idx = (np.remainder(first.astype(np.intp), size)[:, None] + taps).ravel()
        # each tap's offset from the atom in half-widths: [-1, 1) up to roundoff
        z = ((first - u)[:, None] + taps) * (2 / _TAPS)
        kernel = np.exp(_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))
        for row, coef in zip(acc, (c.real, c.imag)):
            row += np.bincount(idx, (kernel * coef[:, None]).ravel(), acc.shape[1])
    # fold the taps past the end back onto the grid, more than once round a
    # grid shorter than the taps
    for lap in range(size, acc.shape[1], size):
        tail = acc[:, lap:lap + size]
        acc[:, :tail.shape[1]] += tail
    grid = acc[0, :size] + 1j * acc[1, :size]
    del acc
    np.fft.ifft(grid, out=grid)
    f = grid[:n] * size
    f /= _kernel_transform(n)
    return f


@functools.lru_cache(maxsize=1)
def _kernel_transform(n: int) -> np.ndarray:
    """The transform of :func:`_fourier_sum`'s spreading function at the
    frequencies j < n of its 4 n point grid, read-only: the integral of
    exp(beta (sqrt(1 - z^2) - 1)) cos(pi j taps z / (4 n)) over z in
    [-1, 1], times taps / 2, by Gauss-Legendre quadrature."""
    z, weight = np.polynomial.legendre.leggauss(2 * _NODES)
    z, weight = z[_NODES:], weight[_NODES:]  # the function is even: z in [0, 1]
    weight = _TAPS * weight * np.exp(_BETA * (np.sqrt(1.0 - z * z) - 1.0))
    freq = np.arange(n) * (np.pi * _TAPS / (4 * n))
    out = np.zeros(n)
    for zq, wq in zip(z, weight):
        out += wq * np.cos(freq * zq)
    out.flags.writeable = False
    return out


# bytes per cycle of the series: the signal, the noise draw, the noisy sum,
# the sample times and their index range, one float64 each
_SERIES_BYTES = 5 * 8
# bytes per cycle of the signal kernel: on its grid of 4 points a cycle,
# the two float64 rows, one pass's float64 counts and the complex128 grid
# they are read into; then the complex128 sum and the float64 transform of
# the spreading function with the three temporaries of its quadrature
_KERNEL_BYTES = 4 * (2 * 8 + 8 + 16) + 16 + 4 * 8


def _require_series(config: DdConfig, bytes_per_cycle: int = _SERIES_BYTES) -> None:
    """Budget check of the arrays sized by ``n_cycles``, ``bytes_per_cycle``
    each cycle. Made before the first of them is allocated."""
    require_memory(bytes_per_cycle * config.n_cycles, f"a series of {config.n_cycles} cycles")


def run_dd(system: SpinSystem, config: DdConfig) -> DdSeries:
    """Simulate the pulse-train acquisition; see the module docstring."""
    _require_series(config, _SERIES_BYTES + _KERNEL_BYTES)
    return _series(_signal(system, config), config)


def run_dd_stepwise(system: SpinSystem, config: DdConfig) -> DdSeries:
    """Cycle-by-cycle reference implementation of :func:`run_dd`.

    O(cycles * dim^3); kept as the independent cross-check of the
    spectral path (the noise model is shared). It tips the kernel's Iz with
    :func:`collective_pulse`, steps the full density by the whole cycle, and
    reads the Ix trace of each sample itself, so neither the flip blocks nor
    Ix as the tipped density is assumed. Each D x D matrix is built once
    those it replaces are gone.
    """
    _require_series(config)
    _require_dense(system.dim, "run_dd_stepwise")
    basis = EigenBasis.compute(system, OperatorKind.HZZ)
    rho = collective_pulse(
        hamiltonian_matrix(system, OperatorKind.IZ_TOTAL), Axis.Y, np.pi / 2)
    half = basis.evolve_columns(np.eye(system.dim), config.tau / 2)
    rho = half @ rho @ half.conj().T  # the first sample sits half a delay in
    cycle = (half @ pulse_matrix(Axis.X, config.theta, system.n_spins)) @ half
    del half
    ix = hamiltonian_matrix(system, OperatorKind.IX_TOTAL)
    norm = float(system.iz_norm())

    # Tr{Ix rho} = vdot(Ix, rho) for the Hermitian Ix, with no D x D product
    signal = np.empty(config.n_cycles)
    for j in range(config.n_cycles):
        signal[j] = np.vdot(ix, rho).real / norm
        rho = cycle @ rho @ cycle.conj().T
    return _series(signal, config)


def _series(signal: np.ndarray, config: DdConfig) -> DdSeries:
    """The acquired series: the noiseless signal plus white noise of scale
    ``noise_sigma/sqrt(n_scans)`` drawn from ``rng_seed``, sampled at the
    window centers ``(j + 1/2) tau``."""
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


def _exp_sum_jac(t, *p):
    """Jacobian of :func:`_exp_sum`, one column per parameter:
    d/da = exp(-t/T) and d/d(log T) = a (t/T) exp(-t/T)."""
    cols = []
    for a, u in zip(p[::2], p[1::2]):
        rate = np.exp(-u)
        decay = np.exp(-t * rate)
        cols += [decay, a * t * rate * decay]
    return np.stack(cols, axis=1)


@functools.lru_cache(maxsize=1)
def _fit_grid(t_bytes: bytes, t_hi: float) -> tuple[np.ndarray, ...]:
    """The part of :func:`_grid_starts` that depends on the sample times
    alone, read-only: the log grid of time constants, the norms of its
    columns exp(-t/T), the unit columns and their Gram matrix. The cells of
    a sweep share their times, so one entry serves a whole row of cells."""
    t = np.frombuffer(t_bytes)
    # from the sample spacing up: a shorter time constant fits one sample
    dt = t[1] - t[0]
    taus = np.geomspace(dt, t_hi, int(_GRID_PER_DECADE * np.log10(t_hi / dt)) + 2)
    # the grid and its squares, or its kept columns, one float64 each per cell
    require_memory(2 * 8 * t.size * taus.size,
                   f"the fit grid of {t.size} samples x {taus.size} time constants")
    basis = -t[:, None] / taus
    np.exp(basis, out=basis)
    sq = np.sum(basis**2, axis=0)
    keep = sq >= np.finfo(float).tiny  # columns that underflowed carry nothing
    if np.count_nonzero(keep) < 2:
        raise FitFailure("every grid time constant underflows over the window")
    taus, norms = taus[keep], np.sqrt(sq[keep])
    if not keep.all():
        basis = basis[:, keep]
    basis /= norms  # unit columns: the Gram diagonal is 1
    grid = taus, norms, basis, basis.T @ basis
    for array in grid:
        array.flags.writeable = False
    return grid


def _grid_starts(
    t: np.ndarray, y: np.ndarray, a_hi: float, t_hi: float
) -> tuple[list[float] | None, list[float]]:
    """Best bi- and single-exponential starts on a log grid of time constants.

    With the time constants fixed the model is linear in its amplitudes
    (variable projection), so each grid column and each pair of columns
    gets its non-negative amplitudes in closed form from a 1x1 or 2x2 Gram
    system. Returns ``[a_f, t_f, a_s, t_s]`` and ``[a, t_s]``; the pair is
    None when no pair of columns beats the best single column.
    """
    taus, norms, basis, gram = _fit_grid(t.tobytes(), t_hi)
    b = basis.T @ y
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
    if gain[p] <= gain1[s]:
        return None, single
    return [ci[p] / norms[i[p]], taus[i[p]], ck[p] / norms[k[p]], taus[k[p]]], single


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
        x, _ = curve_fit(
            _exp_sum, t, y, p0=x0, bounds=bounds, maxfev=2000, jac=_exp_sum_jac
        )
    except (RuntimeError, ValueError):
        x = x0
    ssr = float(np.sum((_exp_sum(t, *x) - y) ** 2))
    x[1::2] = np.exp(x[1::2])
    return ssr, x


def require_fit_window(n_points: int, transient_skip: int) -> None:
    """Raise :class:`InvalidParameter` naming ``transient_skip`` unless it
    is >= 0 and leaves at least 8 of ``n_points`` samples to fit. A config
    is checked here, not at construction, since a series that is never
    fitted may be shorter; callers that fit check before they simulate."""
    if not 0 <= integer(transient_skip, "transient_skip") <= n_points - 8:
        raise InvalidParameter("transient_skip", f"need >= 8 of the {n_points} points "
                                                 f"after skipping {transient_skip}")


def fit_biexponential(
    series: DdSeries | tuple[np.ndarray, np.ndarray],
    transient_skip: int | None = None,
) -> DecayFit:
    """Nonlinear least squares of a bi-exponential decay.

    A grid scan over log-spaced time constants, with the amplitudes
    projected out in closed form, picks the start of one local polish of
    each model. Data where no pair of grid columns beats the best single
    one, where the polished pair does not improve on the single exponential
    (within 1% of residual), or where its two time constants agree within
    5%, collapses to the single exponential branch with ``a_fast = 0`` and
    ``degenerate=True``.

    Raises :class:`InvalidParameter` for times and values that are not 1-D
    arrays of real numbers or of unequal length, non-finite or non-increasing
    times, non-finite values, or fewer than 8 points after the skip. Raises
    :class:`FitFailure` when the fitted t=0 amplitude does not exceed
    ``_MIN_AMPLITUDE_SNR`` (2) times the residual rms, i.e. the window holds no
    decay structure above its own noise (pure noise fails), and when the
    window lies so far from t = 0 that exp(-t/T) underflows for all T.
    """
    if isinstance(series, DdSeries):
        t_all, y_all = series.times, series.values
        if transient_skip is None:
            transient_skip = series.config.transient_skip
    else:
        t_all, y_all = vector(series[0], "series"), vector(series[1], "series")
        if transient_skip is None:
            transient_skip = 0
    if t_all.ndim != 1 or t_all.shape != y_all.shape:
        raise InvalidParameter("series", "fit needs 1-D times and values of equal length")
    if not (np.all(np.isfinite(t_all)) and np.all(np.isfinite(y_all))):
        raise InvalidParameter("series", "fit needs finite times and values")
    if np.any(np.diff(t_all) <= 0):
        raise InvalidParameter("series", "fit needs strictly increasing times")
    require_fit_window(t_all.size, transient_skip)
    t = t_all[transient_skip:]
    y = y_all[transient_skip:]
    window = (int(transient_skip), int(t_all.size - 1))

    scale = float(np.max(np.abs(y))) or 1.0
    t_hi = 1e6 * (t[-1] - t[0])
    t_lo = 1e-3 * (t[1] - t[0])
    pair0, single0 = _grid_starts(t, y, 10 * scale, t_hi)
    # the polished single exponential, unless the polished pair beats it
    ssr, (a_slow, t_slow) = _polish(t, y, single0, 10 * scale, t_lo, t_hi)
    a_fast, t_fast = 0.0, t_slow
    degenerate = True
    if pair0 is not None:
        pair_ssr, (a_f, t_f, a_s, t_s) = _polish(t, y, pair0, 10 * scale, t_lo, t_hi)
        if t_f > t_s:
            t_f, t_s, a_f, a_s = t_s, t_f, a_s, a_f
        if abs(t_s - t_f) > 0.05 * t_s and ssr > pair_ssr * 1.01:
            ssr, a_fast, t_fast, a_slow, t_slow = pair_ssr, a_f, t_f, a_s, t_s
            degenerate = False
    fit = DecayFit(
        a_fast=float(a_fast), t_fast=float(t_fast), a_slow=float(a_slow),
        t_slow=float(t_slow), residual_rms=float(np.sqrt(ssr / t.size)),
        fit_window=window, degenerate=degenerate,
    )

    if fit.amplitude < _MIN_AMPLITUDE_SNR * fit.residual_rms:
        raise FitFailure(
            f"fitted amplitude {fit.amplitude:.3g} below {_MIN_AMPLITUDE_SNR} x "
            f"residual rms {fit.residual_rms:.3g}: no decay structure",
            {"residual_rms": fit.residual_rms, "window": window, "fit": fit},
        )
    return fit


# --- SNR bookkeeping ------------------------------------------------------


def cumulative_snr(values: np.ndarray, sigma_eff: float) -> np.ndarray:
    """SNR(N) = sum_{j<=N} |s_j| / (sigma_eff * sqrt(N)) for N = 1..len.

    The summed-magnitude convention only supports relative comparisons;
    with ``sigma_eff <= 0`` the noise scale drops to 1 (relative units).
    ``values`` that are empty or not finite real numbers, and a
    ``sigma_eff`` that is not a finite number, are refused.
    """
    values = vector(values, "values")
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise InvalidParameter("values", "values must be non-empty and finite")
    if not np.isfinite(number(sigma_eff, "sigma_eff")):
        raise InvalidParameter("sigma_eff", "sigma_eff must be finite")
    if sigma_eff <= 0:
        sigma_eff = 1.0
    n = np.arange(1, len(values) + 1)
    return np.cumsum(np.abs(values)) / (sigma_eff * np.sqrt(n))


def optimal_cycles(values: np.ndarray, sigma_eff: float) -> tuple[int, float]:
    """Cycle count N* maximizing the cumulative SNR, and the SNR there."""
    snr = cumulative_snr(values, sigma_eff)
    i = int(np.argmax(snr))
    return i + 1, float(snr[i])


def scans_to_match_snr(
    n_scans_ref: int, retention_ref: float, retention_other: float
) -> float:
    """Scans needed at ``retention_other`` to match the reference SNR.

    Under the white-noise model SNR scales as retention * sqrt(n_scans),
    so the required scan ratio is the squared retention ratio.
    """
    if integer(n_scans_ref, "n_scans_ref") < 1:
        raise InvalidParameter("n_scans_ref", "n_scans_ref must be at least 1")
    for name, value in (("retention_ref", retention_ref),
                        ("retention_other", retention_other)):
        if not 0 < number(value, name) < np.inf:
            raise InvalidParameter(name, f"{name} must be positive and finite")
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
    n_star: int
    snr: float
    rng_seed: int


@dataclass
class SweepResult:
    """The cells of a sweep in grid order: tau outer, theta inner."""

    cells: list[SweepCell]


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
    """Map (tau, theta) to decay fits, N* and SNR.

    Cells are independent, seeded deterministically from ``base_seed`` and
    the cell index; per-cell fit failures are recorded in ``status`` and
    the sweep continues. Every cell's config is built before the first
    cell runs, so a grid value out of range fails the sweep at once, as
    does a ``transient_skip`` that leaves fewer than 8 samples to fit.
    The signals run angle by angle, so each angle's pulse is built once;
    the fits run in grid order, so the cells of one tau share the fit grid
    of their sample times.
    """
    tau_grid = vector(tau_grid, "tau_grid")
    theta_grid = vector(theta_grid, "theta_grid")
    for name, grid in (("tau_grid", tau_grid), ("theta_grid", theta_grid)):
        if grid.size == 0:
            raise InvalidParameter(name, f"{name} must be non-empty")
    integer(base_seed, "base_seed")
    configs = {
        (i, j): DdConfig(
            tau=float(tau), theta=float(theta), n_cycles=n_cycles,
            transient_skip=transient_skip, noise_sigma=noise_sigma,
            n_scans=n_scans, rng_seed=mix_seed(base_seed, i, j),
        )
        for i, tau in enumerate(tau_grid)
        for j, theta in enumerate(theta_grid)
    }
    require_fit_window(n_cycles, transient_skip)
    # every cell's times and values, float64 each, are kept until its fit
    require_memory(16 * n_cycles * len(configs), f"the series of {len(configs)} sweep cells")
    sigma_eff = noise_sigma / np.sqrt(n_scans)
    by_angle = sorted(configs, key=lambda ij: ij[::-1])
    runs = {ij: run_dd(system, configs[ij]) for ij in by_angle}
    cells = []
    for ij, config in configs.items():
        series = runs.pop(ij)
        n_star, snr = optimal_cycles(series.values, sigma_eff)
        try:
            fit = fit_biexponential(series)
            status = "ok"
        except FitFailure as err:
            fit = None
            status = f"fit_failed: {err}"
        cells.append(
            SweepCell(
                tau=config.tau, theta=config.theta, status=status, fit=fit,
                n_star=n_star, snr=snr, rng_seed=config.rng_seed,
            )
        )
    return SweepResult(cells)
