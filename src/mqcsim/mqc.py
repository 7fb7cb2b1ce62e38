"""Multiple-quantum coherence protocol, spectra, echoes, and second moments.

The protocol starts from the deviation density rho_0 = Iz (the identity
part of the thermal state is invariant and dropped), applies n forward
double-quantum blocks U_f, a collective phase rotation phi, n reversed
blocks U_b, and reads out along Iz:

    S_n(phi) = Tr{Iz U_b^n R rho_n R^dag (U_b^n)^dag} / Tr{Iz^2},
    rho_n = U_f^n rho_0 (U_f^n)^dag,   R = exp(+i phi Iz).

The closing rotation exp(-i phi Iz) of the experiment, and any Hzz filter
delay before detection, commute with Iz and drop out of the readout, so
neither appears here. Moving the reversed blocks onto the observable gives
the Heisenberg readout M_n = (U_b^n)^dag Iz U_b^n, and R multiplies the
element (r, c) by exp(i k phi), with k = m_r - m_c its coherence order.
Hence the order-amplitude identity

    S_n(phi) = sum_k A_{n,k} exp(i k phi),
    A_{n,k} = sum_{m_r - m_c = k} (M_n)_{cr} (rho_n)_{rc} / Tr{Iz^2}.

One pass over n, advancing rho_n and M_n by one block each, fills the
table A: it gives the phase signals on any grid and the phi = 0 Loschmidt
echo sum_k A_{n,k}. The same pass bins |(rho_n)_{rc}|^2 by order from
rho_n alone. That table is the density-matrix oracle, which phase
cycling can never access experimentally; the Fourier transform of S over
a uniform phi grid must reproduce it under perfect reversal. Dividing by
Tr{Iz^2} = N * 2**(N-2) makes the unperturbed echo unit height.

The pass runs once per popcount-parity sector. Hdq, Hzz and the
eight-pulse block change the popcount by 0 or +-2, and rho_0 = Iz is
diagonal, so rho_n and M_n have no element between states of opposite
parity, and the (D/2) x (D/2) blocks of the two sectors carry all of A.
In ideal mode at odd N one pass does: the global flip X (s -> ~s)
commutes with Hdq, also under a mismatch, maps Iz to -Iz and swaps the
two sectors, so element (~r, ~c) of rho_n and of M_n is minus element
(r, c), at order -k. Sector 1 thus adds sector 0's tables at -k. X maps
a +-Y pulse to a -+Y pulse, so it does not commute with the pulse-level
reversed cycle, and pulse-level runs keep both passes.
In ideal mode the blocks come straight from the sector eigenbases of Hdq,
and no D x D propagator is formed. They are taken in the frame of
F = exp(i pi Iz / 4), the phase rotation at phi = pi/4, which multiplies
element (r, c) by exp(i pi k / 4). Hdq changes m by +-2, so in
exp(-i Hdq t) = C - i S, with C = cos(Hdq t) and S = sin(Hdq t) real, C
lives on k = 0 mod 4 and S on k = 2 mod 4. The rotated block is thus
(-1)^floor(k/4) * (C + S): the real product V cas(w t) V^T (cas = cos +
sin, Hartley's kernel) with its sign flipped where k = 4 or 6 mod 8.
rho_0 commutes with F, so rho_n and M_n are real there too, and neither
A_{n,k} nor |(rho_n)_{rc}|^2 changes: F multiplies (rho_n)_{rc} by
exp(i pi k / 4) and (M_n)_{cr} by its conjugate. Pulse-level blocks
stay complex in the same loop.

Two execution modes: ``IDEAL`` evolves under the effective Hamiltonians
exactly; ``PULSE_LEVEL`` builds the eight-pulse block and realizes the
reversed block by shifting every pulse phase by pi/2, which is the
standard construction for -Hdq. A forward/backward coupling mismatch
emulates imperfect reversal and degrades the echo. Hdq and Hzz are linear
in the couplings, so scaling the reversed couplings by 1 + mismatch scales
the reversed time instead: both directions share one eigenbasis (ideal) or
one system with longer reversed delays (pulse level).

Finite systems revive: unlike a macroscopic sample, the second moment
oscillates once the coherence distribution feels the system size, so
trend statements hold only over a pre-recurrence window of block counts
(pinned per fixture in the tests).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (ImaginaryResidueWarning, InvalidParameter, NoFeasibleSolution, choice,
                     integer, number, vector)
from .evolution import EigenBasis, _require_dense, dq_cycle
from .spins import OperatorKind, SpinSystem, parity_sectors, require_memory

_RESIDUE_TOL = 1e-8


class Mode(str, Enum):
    IDEAL = "ideal"
    PULSE_LEVEL = "pulse"


def uniform_phase_grid(m: int) -> np.ndarray:
    """m phases covering [0, 2*pi); resolves coherence orders |k| <= m/2 - 1.

    Raises InvalidParameter unless ``m`` is an integer of at least 2."""
    m = integer(m, "m")
    if m < 2:
        raise InvalidParameter("m", "need at least 2 phases")
    return np.arange(m) * (2.0 * np.pi / m)


@dataclass
class MqcRun:
    """One protocol configuration: n_blocks forward blocks of length tau_dq.

    ``mismatch`` scales the couplings of the reversed blocks by
    ``1 + mismatch`` and must exceed -1, since a factor <= 0 reverses
    nothing; zero means perfect reversal. In pulse-level mode each block
    is one eight-pulse cycle of period ``tau_dq`` (:func:`dq_cycle`).
    """

    system: SpinSystem
    n_blocks: int
    tau_dq: float
    phases: np.ndarray
    mode: Mode = Mode.IDEAL
    mismatch: float = 0.0

    def __post_init__(self):
        self.phases = vector(self.phases, "phases")
        if not np.all(np.isfinite(self.phases)):
            raise InvalidParameter("phases", "phases must be finite")
        for name in ("tau_dq", "mismatch"):
            if not np.isfinite(number(getattr(self, name), name)):
                raise InvalidParameter(name, f"{name} must be finite")
        if integer(self.n_blocks, "n_blocks") < 0:
            raise InvalidParameter("n_blocks", "n_blocks must be >= 0")
        if self.phases.size == 0:
            raise InvalidParameter("phases", "phases must be non-empty")
        if np.any(np.diff(self.phases) <= 0):
            raise InvalidParameter("phases", "phases must be strictly increasing")
        if self.phases[0] < 0 or self.phases[-1] >= 2 * np.pi:
            raise InvalidParameter("phases", "phases must lie in [0, 2*pi)")
        if self.tau_dq <= 0:
            raise InvalidParameter("tau_dq", "tau_dq must be positive")
        if self.mismatch <= -1:
            raise InvalidParameter("mismatch", "mismatch must be > -1")
        self.mode = choice(Mode, self.mode, "mode")


@dataclass
class PhaseSignal:
    """S_{n,phi} on the run's phase grid, normalized to unit n=0 echo."""

    phi: np.ndarray
    values: np.ndarray
    n_blocks: int


@dataclass
class CoherenceSpectrum:
    """Non-negative coherence-order weights, normalized to unit total.

    ``normalization`` is the raw total (in Tr{Iz^2} units) before the
    division; for a perfectly reversed run it equals the Loschmidt echo.
    """

    orders: np.ndarray
    weights: np.ndarray
    n_blocks: int
    normalization: float


@dataclass
class OrderAmplitudes:
    """Per-order tables of one protocol pass; row n covers n blocks.

    ``amplitudes[n, j]`` is A_{n,k} and ``density[n, j]`` the oracle weight
    sum_{m_r - m_c = k} |(rho_n)_{rc}|^2 / Tr{Iz^2}, for k = ``orders[j]``.
    """

    run: MqcRun
    orders: np.ndarray
    amplitudes: np.ndarray
    density: np.ndarray


def _mirrored(run: MqcRun) -> bool:
    """True where sector 1's pass is sector 0's at -k: ideal mode at odd N.
    The pulse-level reversed cycle is built of +-Y pulses, which X maps to
    -+Y pulses, so X does not commute with it and both passes run."""
    return run.mode == Mode.IDEAL and run.system.n_spins % 2 == 1


def _sector_blocks(run: MqcRun):
    """(sector, U_f block, U_b block) for each popcount-parity sector that
    the pass runs on: real ideal blocks in the frame F = exp(i pi Iz / 4),
    or complex blocks cut from the pulse-level cycles of :func:`dq_cycle`. The
    mismatch scales U_b's time. A mirrored run gets sector 0's blocks only.
    """
    system = run.system
    scale = 1.0 + run.mismatch
    if run.mode == Mode.PULSE_LEVEL:
        sectors = parity_sectors(system.n_spins)
        u_f = dq_cycle(system, run.tau_dq, sign=+1)
        f_blocks = [u_f[np.ix_(s, s)] for s in sectors]
        del u_f  # freed before the reversed cycle is built
        u_b = dq_cycle(system, scale * run.tau_dq, sign=-1)
        for s, f in zip(sectors, f_blocks):
            yield s, f, u_b[np.ix_(s, s)]
        return
    eig = EigenBasis.compute(system, OperatorKind.HDQ)
    n_passes = 1 if _mirrored(run) else 2
    for s, w, v in zip(eig.sectors[:n_passes], eig.eigenvalues, eig.eigenvectors):
        m = system.magnetization[s]
        # (-1)^floor(k/4) is -1 where k = m_r - m_c is 4 or 6 mod 8
        flip = np.subtract.outer(m, m) % 8 >= 4

        def block(t: float) -> np.ndarray:
            """F exp(-i Hdq t) F^dag = (-1)^floor(k/4) * cas(Hdq t)."""
            u = (v * (np.cos(w * t) + np.sin(w * t))) @ v.T
            return np.negative(u, out=u, where=flip)

        # reversed block: exp(+i tau Hdq') = exp(-i Hdq * (-scale * tau))
        yield s, block(run.tau_dq), block(-scale * run.tau_dq)


def _conjugate(a: np.ndarray, x: np.ndarray, a_dag: np.ndarray,
               tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ x @ a_dag, written to ``out`` through ``tmp``."""
    np.matmul(a, x, out=tmp)
    return np.matmul(tmp, a_dag, out=out)


def _sector_pass(f: np.ndarray, b: np.ndarray, m: np.ndarray, n_spins: int,
                 amplitudes: np.ndarray, density: np.ndarray) -> None:
    """Add one sector's share of both tables, for n = 0 .. len(density) - 1,
    with forward block ``f``, reversed block ``b`` and magnetizations ``m``."""
    n_orders = density.shape[1]
    f_dag, b_dag = f.conj().T, b.conj().T
    k_index = (np.rint(m[:, None] - m[None, :]).astype(int) + n_spins).ravel()

    def binned(weights: np.ndarray) -> np.ndarray:
        return np.bincount(k_index, weights=weights.ravel(), minlength=n_orders)

    real = not np.iscomplexobj(f)
    rho = np.diag(m).astype(f.dtype)
    readout, tmp, spare = rho.copy(), np.empty_like(rho), np.empty_like(rho)
    for n in range(len(density)):
        if n > 0:
            rho, spare = _conjugate(f, rho, f_dag, tmp, spare), rho
            readout, spare = _conjugate(b_dag, readout, b, tmp, spare), readout
        overlap = np.multiply(readout.T, rho, out=tmp)  # (r, c): (M_n)_{cr} (rho_n)_{rc}
        amplitudes[n] += binned(overlap.real)
        if not real:
            amplitudes[n] += 1j * binned(overlap.imag)
        # |rho_n|^2; a real pass writes it to spare, unused until the next products
        squares = np.abs(rho, out=spare if real else None)
        density[n] += binned(np.square(squares, out=squares))


def order_amplitudes(run: MqcRun) -> OrderAmplitudes:
    """Both per-order tables for n = 0 .. run.n_blocks from one pass.

    The pass runs once per popcount-parity sector on the blocks of
    :func:`_sector_blocks`, holding them, rho_n, M_n and two product
    buffers that every block reuses: a fixed number of (D/2) x (D/2)
    matrices whatever n_blocks is. A mirrored run passes over sector 0
    alone and adds its tables at -k for sector 1; no output can tell that
    from a plain copy. rho_n and M_n are Hermitian, so element (c, r), at
    order -k, adds the conjugate of element (r, c)'s share: each sector's
    A_{n,-k} is conj(A_{n,k}), which the real ideal pass makes A_{n,k}, and
    its density table is even. The dense pass and the per-n tables are
    each checked against the memory budget first.
    """
    system = run.system
    _require_dense(system.dim, f"order_amplitudes-{run.mode.value}")
    mz = system.magnetization
    n_orders = 2 * system.n_spins + 1
    # per n: the complex and the real table, then the phase signals that
    # phase_signals makes of them
    require_memory((run.n_blocks + 1) * (24 * n_orders + 16 * run.phases.size),
                   f"the order table of n_blocks={run.n_blocks}")
    amplitudes = np.zeros((run.n_blocks + 1, n_orders), dtype=complex)
    density = np.zeros((run.n_blocks + 1, n_orders))
    for sector, f, b in _sector_blocks(run):
        _sector_pass(f, b, mz[sector], system.n_spins, amplitudes, density)
        del f, b  # freed before the next sector's blocks are built
    if _mirrored(run):  # column j holds k = j - N, so [::-1] maps k to -k
        amplitudes = amplitudes + amplitudes[:, ::-1]
        density = density + density[:, ::-1]
    norm = system.iz_norm()
    return OrderAmplitudes(
        run=run,
        orders=np.arange(-system.n_spins, system.n_spins + 1),
        amplitudes=amplitudes / norm,
        density=density / norm,
    )


def phase_signals(amps: OrderAmplitudes) -> list[PhaseSignal]:
    """S_n(phi) = sum_k A_{n,k} exp(i k phi) on the run's grid, n = 0 .. n_blocks."""
    phases = amps.run.phases
    values = amps.amplitudes @ np.exp(1j * np.outer(amps.orders, phases))
    return [
        PhaseSignal(phi=phases.copy(), values=row, n_blocks=n)
        for n, row in enumerate(values)
    ]


def _spectrum_from_raw(raw: np.ndarray, orders: np.ndarray, n_blocks: int) -> CoherenceSpectrum:
    total = float(np.sum(raw))
    if total <= 0.0:
        raise NoFeasibleSolution("spectrum carries no weight")
    return CoherenceSpectrum(
        orders=orders, weights=raw / total, n_blocks=n_blocks, normalization=total
    )


def spectrum_from_phases(signal: PhaseSignal) -> CoherenceSpectrum:
    """Invert Fourier transform of S_{n,phi} over the uniform phase grid.

    The grid must be exactly the m-point cover of [0, 2*pi); orders up to
    |k| = m/2 - 1 are recoverable (the grid step sets the maximum order).
    Imaginary residues and negative weights below 1e-8 are discarded
    silently; larger ones trigger a warning.
    """
    phi = signal.phi
    m = phi.size
    expected = uniform_phase_grid(m)
    if phi.shape != expected.shape or np.max(np.abs(phi - expected)) > 1e-9:
        raise InvalidParameter("signal", "phase grid is not uniform over [0, 2*pi)")
    coeff = np.fft.ifft(signal.values)  # coeff[k] = (1/m) sum_j S_j exp(+i k phi_j)
    k_max = m // 2 - 1
    orders = np.arange(-k_max, k_max + 1)
    raw = coeff[orders % m]
    worst_imag = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
    if worst_imag > _RESIDUE_TOL:
        warnings.warn(
            f"imaginary residue {worst_imag:.2e} above {_RESIDUE_TOL:g}",
            ImaginaryResidueWarning,
        )
    raw = raw.real
    worst_neg = float(-np.min(raw)) if raw.size else 0.0
    if worst_neg > _RESIDUE_TOL:
        warnings.warn(
            f"negative spectral weight {worst_neg:.2e} clipped to zero",
            ImaginaryResidueWarning,
        )
    raw = np.clip(raw, 0.0, None)
    return _spectrum_from_raw(raw, orders, signal.n_blocks)


def density_spectra(amps: OrderAmplitudes) -> list[CoherenceSpectrum]:
    """Oracle spectra for every n = 0 .. n_blocks from the |rho_n|^2 table."""
    return [
        _spectrum_from_raw(raw, amps.orders, n) for n, raw in enumerate(amps.density)
    ]


def loschmidt_echo(amps: OrderAmplitudes) -> np.ndarray:
    """S_n(0) = sum_k A_{n,k} for n = 0 .. n_blocks; unity under perfect reversal."""
    return amps.amplitudes.sum(axis=1).real


def otoc_second_moment(spectrum: CoherenceSpectrum) -> float:
    """Second moment sum_k k^2 S_k of the normalized coherence distribution."""
    return float(np.sum(spectrum.orders.astype(float) ** 2 * spectrum.weights))
