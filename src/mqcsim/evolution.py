"""Exact time evolution: propagators, collective pulses, the eight-pulse cycle.

Hzz and Hdq evolve state vectors along two paths that must agree wherever
both run: an eigendecomposition path (the default up to ``EIGEN_MAX_DIM``)
and a matrix-free Chebyshev series in H, :func:`krylov_expmv`, which needs
only a bound on the spectrum and so has no convergence to fail. Their
densities always use the eigendecomposition. The collective spins Iz, Ix
and Iy rotate vectors and densities in closed form, as a tensor product of
single-spin rotations (:func:`collective_pulse`). Negative times are
legitimate and mean time reversal.

:class:`EigenBasis` diagonalizes Hzz per magnetization sector, since it
keeps the popcount: N+1 ``eigh`` calls of at most C(N, N/2) states instead
of one of size D. Hdq changes the popcount by +-2, so it is
block-diagonal over the two popcount-parity sectors, and it commutes with
the global flip X = prod sigma_x. At odd N, X swaps the two sectors and one
``eigh`` of size D/2 serves both; at even N, X maps each sector onto
itself and splits it into X-even and X-odd halves, four ``eigh`` calls of
size D/4. All run in real arithmetic. Each sector block is assembled on
its own through :func:`hamiltonian_matrix` from the bitwise kernel, so no
D x D generator or identity is formed.
:meth:`EigenBasis.propagator` assembles the dense exp(-iHt) from
the sector blocks, and the MQC engine builds its own real blocks straight
from the sector eigenbases.
:meth:`EigenBasis.compute` keeps each basis among its system's derived
tables, so every caller on one system shares one diagonalization per kind.

Pulses are ideal delta rotations ``exp(-i*angle*I_axis)`` applied as a
tensor product of single-spin rotations; finite pulse widths are out of
scope. :func:`dq_cycle` builds the dense propagator of the eight-pulse
cycle, which realizes the double-quantum Hamiltonian at leading order
during free dipolar evolution; its delays satisfy ``4*delta1 + 6*delta2``
= total period. Acceptance check c05 establishes its leading order
numerically, and ``tests/oracles.dq_cycle_direct`` rebuilds it step by
step. Shifting every pulse phase by ``pi/2`` (the ``sign=-1`` cycle)
negates the effective double-quantum Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.special

from .errors import InvalidParameter, choice, number
from .spins import (
    OperatorKind,
    SpinSystem,
    _derived,
    _pair_bytes,
    _require_vector_path,
    _spin_count,
    _zz_diagonal,
    all_finite,
    apply_operator,
    magnetization_sectors,
    parity_sectors,
    require_memory,
)

# peak bytes of each dense path in D x D complex matrices (16 D^2 bytes):
# the largest peak that tracemalloc sees at N = 8, 9 and 10, rounded up to
# within 1.25x of each (tests/test_memory.py). Hdq's eigenbasis keeps sector
# 0's eigenvectors while it assembles sector 1 at even N only, so it has a
# factor per parity. The Hzz basis assembles one magnetization sector at a
# time; the largest is a share of D that falls as N grows, so its factor,
# set at N=8, grows looser above it. The interpreter, the imports and
# BLAS's own buffers are outside every factor.
_DENSE_FACTORS = {
    "order_amplitudes-ideal": 1.3,
    "order_amplitudes-pulse": 4.7,
    "run_dd": 2.8,
    "run_dd_stepwise": 6.5,
    "evolve-density": 5.1,
    "dq_cycle": 4.5,
    "eigenbasis-dq-even": 0.8,
    "eigenbasis-dq-odd": 0.65,
    "eigenbasis-zz": 0.45,
}
# evolve(method="auto") switches state vectors from eigendecomposition to
# Krylov above this
EIGEN_MAX_DIM = 1 << 10
# krylov_expmv drops the Chebyshev terms past |bt| whose Bessel
# coefficient is below this (roundoff for a unit vector)
_SERIES_TOL = 1e-16

# single-spin operators in the (down, up) = (0, 1) ordering of spins.py
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # I+
_SM = _SP.T.conj()
_IX1 = 0.5 * (_SP + _SM)
_IY1 = (_SP - _SM) / 2j


class Axis(str, Enum):
    X = "X"
    Y = "Y"
    MINUS_X = "-X"
    MINUS_Y = "-Y"
    Z = "Z"


_AXIS_OP = {
    Axis.X: _IX1,
    Axis.Y: _IY1,
    Axis.MINUS_X: -_IX1,
    Axis.MINUS_Y: -_IY1,
    Axis.Z: np.diag([-0.5, 0.5]).astype(complex),
}
# the axis of each collective spin, which evolve rotates in closed form
_COLLECTIVE_AXES = {OperatorKind.IX_TOTAL: Axis.X, OperatorKind.IY_TOTAL: Axis.Y,
                    OperatorKind.IZ_TOTAL: Axis.Z}


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entry of |u u^dag - 1|; zero for an exactly unitary matrix."""
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def _require_dense(dim: int, path: str) -> None:
    """Budget check of one dense path, named by its key in ``_DENSE_FACTORS``;
    each path makes it before its first large allocation. The estimate is
    inf past 64 spins, beyond any budget, rather than a float overflow."""
    need = math.ceil(_DENSE_FACTORS[path] * 16 * dim * dim) if dim <= 1 << 64 else math.inf
    require_memory(need, f"the dense {path} path at D={dim}")


def hamiltonian_matrix(
    system: SpinSystem, kind: OperatorKind, states: np.ndarray | None = None
) -> np.ndarray:
    """Dense operator matrix, assembled column-wise from the bitwise kernel:
    float64 for every kind but Iy, complex128 for Iy.

    With ``states``, increasing basis-state indices, only the block on those
    states: the kernel acts on the D x |states| slice of the identity and the
    rows ``states`` of its output are kept. The kernel treats each column on
    its own, so the block equals that block of the full matrix bit for bit.
    Its budget check counts the arrays it makes rather than using a traced
    factor. Raises InvalidParameter for ``states`` that are not increasing
    indices below D.
    """
    kind = choice(OperatorKind, kind, "kind")
    dim = system.dim
    if states is not None:
        cols = np.asarray(states)
        if not (cols.ndim == 1 and np.issubdtype(cols.dtype, np.integer)
                and np.all(np.diff(cols) > 0)
                and (cols.size == 0 or 0 <= cols[0] and cols[-1] < dim)):
            raise InvalidParameter("states",
                                   "states must be increasing basis-state indices below D")
    size = dim if states is None else cols.size
    # per entry of the D x |states| slice: the float64 slice, the kernel's
    # output and the Ix/Iy scratch of half the output, for Iy complex and
    # with the kernel's complex copy of the slice; then the cut block, numpy's
    # iteration buffers for the kernel's strided updates and, for Hzz and
    # Hdq, the pair kernel's temporaries and factors
    iy = kind is OperatorKind.IY_TOTAL
    cut = (16 if iy else 8) * size**2 if size < dim else 0
    need = (48 if iy else 20) * dim * size + cut + 48 * np.getbufsize()
    if kind in (OperatorKind.HZZ, OperatorKind.HDQ):
        need += _pair_bytes(system.n_spins, size)
    require_memory(need, f"a dense {size}x{size} operator block")
    if states is None:
        cols = np.arange(dim)
    basis = np.zeros((dim, size))
    basis[cols, np.arange(size)] = 1.0
    out = apply_operator(kind, system, basis)
    del basis  # gone before the cut
    return out if size == dim else out[cols]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; a real ``a`` acts on the real and imaginary parts of a complex
    ``b`` as one real product, half the flops of a complex one."""
    if np.isrealobj(a) and np.iscomplexobj(b):
        return (a @ np.ascontiguousarray(b).view(np.float64)).view(np.complex128)
    return a @ b


@dataclass
class EigenBasis:
    """Eigendecomposition of Hzz or Hdq, reusable across times.

    The generator is block-diagonal over ``sectors``, lists of basis states
    it has no matrix element between: the N+1 magnetization sectors for Hzz
    and the two popcount-parity sectors for Hdq. Block j has the eigenvalues
    ``eigenvalues[j]``, ascending, and the real eigenvectors in the columns
    of ``eigenvectors[j]``. Each block is assembled on its own by
    ``hamiltonian_matrix(system, kind, sector)``, so no D x D generator or
    identity exists. Hdq's two blocks come from the global spin flip
    (:func:`_flip_symmetric_eigh`): at odd N only sector 0 is assembled, and
    sector 1 shares its eigenvalue array and takes its eigenvectors with the
    rows reversed.
    """

    sectors: list[np.ndarray]
    eigenvalues: list[np.ndarray]
    eigenvectors: list[np.ndarray]

    @classmethod
    def compute(cls, system: SpinSystem, kind: OperatorKind) -> "EigenBasis":
        """The eigenbasis of ``kind`` on ``system``, diagonalized on the first
        call for that pair and kept with the system's other derived tables,
        so every later call returns the same object; a caller must not
        modify the arrays it is handed.

        Raises InvalidParameter for a kind other than Hzz and Hdq: the
        collective spins rotate in closed form through :func:`collective_pulse`.
        """
        kind = choice(OperatorKind, kind, "kind")
        if kind not in (OperatorKind.HZZ, OperatorKind.HDQ):
            raise InvalidParameter("kind", f"no eigenbasis of {kind.value}: collective "
                                           f"spins rotate through collective_pulse")

        def build() -> EigenBasis:
            _require_dense(system.dim, _eigenbasis_path(system, kind))
            if kind is OperatorKind.HDQ:
                sectors = parity_sectors(system.n_spins)
                pairs = _flip_symmetric_eigh(system, sectors)
            else:
                sectors = magnetization_sectors(system.n_spins)
                pairs = [_eigh(hamiltonian_matrix(system, kind, s)) for s in sectors]
            return cls(sectors, [w for w, _ in pairs], [v for _, v in pairs])

        return _derived(system, ("eigenbasis", kind), build)

    def propagator(self, t: float) -> np.ndarray:
        """Dense exp(-iHt), zero between sectors."""
        dim = sum(s.size for s in self.sectors)
        u = np.zeros((dim, dim), dtype=complex)
        for s, w, v in zip(self.sectors, self.eigenvalues, self.eigenvectors):
            u[np.ix_(s, s)] = _mul(v, np.exp(-1j * w * t)[:, None] * v.T)
        return u

    def evolve_columns(self, mat: np.ndarray, t: float) -> np.ndarray:
        """exp(-iHt) @ mat without forming the propagator when mat is thin."""
        out = np.empty(mat.shape, dtype=complex)
        for s, w, v in zip(self.sectors, self.eigenvalues, self.eigenvectors):
            ph = np.exp(-1j * w * t)
            out[s] = _mul(v, ph[:, None] * _mul(v.T, mat[s]))
        return out


def _eigenbasis_path(system: SpinSystem, kind: OperatorKind) -> str:
    """The ``_DENSE_FACTORS`` key of the eigenbasis of ``kind``."""
    if kind is OperatorKind.HDQ:
        return "eigenbasis-dq-" + ("odd" if system.n_spins % 2 else "even")
    return f"eigenbasis-{kind.value}"


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # divide and conquer: Hdq's clustered spectrum slows the default driver
    # down about 6x at D/2 = 2048
    return scipy.linalg.eigh(h, driver="evd")


def _flip_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of a matrix that commutes with the global spin flip
    s -> ~s, on states listed in increasing order so that ~ reverses them:
    on (|s> + |~s>)/sqrt2 and (|s> - |~s>)/sqrt2 for the s of the first
    half, they are m[s, s'] + m[s, ~s'] and m[s, s'] - m[s, ~s']."""
    h = m.shape[0] // 2
    same, cross = m[:h, :h], m[:h, ::-1][:, :h]  # column k of cross is ~k
    return same + cross, same - cross


def _flip_symmetric_eigh(
    system: SpinSystem, sectors: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(eigenvalues, eigenvectors) of Hdq per popcount-parity sector, through
    the global flip X: s -> ~s, which commutes with Hdq.

    Each sector lists its states in increasing order and ~ reverses that
    order. At odd N, X swaps the two sectors, so sector 1's block is sector
    0's with both index orders reversed, bit for bit: only sector 0's block
    is assembled, and sector 1 takes its eigenvalues and its eigenvectors
    with the rows reversed. At even N, X maps each sector onto itself:
    state i of a sector pairs with state M-1-i, and the X-even and X-odd
    halves A + B and A - B, with A = H[L, L], B = H[L, ~L] and L the first
    M/2 states (those below D/2), unfold to (v on L, +-v on ~L)/sqrt(2),
    sorted by eigenvalue as eigh sorts them.
    """
    def block(s: np.ndarray) -> np.ndarray:
        return hamiltonian_matrix(system, OperatorKind.HDQ, s)

    def flip_halves(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # a function of its own, so its temporaries are gone before the
        # next sector is assembled
        half = s.size // 2
        (w_even, v_even), (w_odd, v_odd) = map(_eigh, _flip_blocks(block(s)))
        w = np.concatenate([w_even, w_odd])
        order = np.argsort(w, kind="stable")
        top = (np.hstack([v_even, v_odd]) * np.sqrt(0.5))[:, order]
        sign = np.repeat([1.0, -1.0], half)[order]
        return w[order], np.vstack([top, (top * sign)[::-1]])

    if system.n_spins % 2:
        w, v = _eigh(block(sectors[0]))
        return [(w, v), (w, np.ascontiguousarray(v[::-1]))]
    return [flip_halves(s) for s in sectors]


def _require_finite(obj: np.ndarray, t: float) -> None:
    if not np.isfinite(number(t, "t")):
        raise InvalidParameter("t", f"evolution time must be finite, got {t}")
    if not all_finite(obj):
        raise InvalidParameter("obj", "state or density to evolve must be finite")


def _spectral_bound(system: SpinSystem, kind: OperatorKind) -> float:
    """Weyl bound on |eigenvalue| of ``kind``; N/2 for collective spins.
    Hzz = 2Z - X - Y and Hdq = Y - X, where Z = sum_{i<j} d_ij Iz_i Iz_j is
    half the diagonal of Hzz, of spread w, and X, Y alike are rotations
    of Z. By Weyl, Hzz lies within +-2w and Hdq within +-w for couplings of
    any sign, never above Gershgorin's sum_{i<j} |d_ij| (Hdq: half), exact at N=2."""
    w = 0.5 * float(np.ptp(_zz_diagonal(system)))
    bounds = {OperatorKind.HZZ: 2 * w, OperatorKind.HDQ: w}
    return bounds.get(choice(OperatorKind, kind, "kind"), system.n_spins / 2)


def krylov_expmv(
    system: SpinSystem, kind: OperatorKind, v: np.ndarray, t: float
) -> np.ndarray:
    """Matrix-free exp(-iHt) v as a Chebyshev series in H.

    ``exp(-iHt) v = J_0(bt) v + 2 sum_{k>=1} (-i)^k J_k(bt) T_k(H/b) v``
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984), where ``b`` is
    :func:`_spectral_bound`'s Weyl bound on |eigenvalue| of H, rigorous for
    couplings of any sign. The series is cut once ``k > |bt|`` and the Bessel
    coefficients fall below ``_SERIES_TOL``; each term costs one
    ``apply_operator`` call, so the cost grows linearly with ``|bt|``. For
    Hzz and Hdq that call is the split pair kernel of :mod:`mqcsim.spins`:
    a few sparse products on the complex vector's float64 view, 2-3 ms
    for Hdq at N = 14 on 2 vCPUs, and no BLAS call, so the result does not
    depend on the BLAS thread count.

    Raises InvalidParameter unless ``v`` has shape (D,), and for a
    non-finite ``t`` or ``v``; checks the vector path's budget before it
    reads ``v``.
    """
    _require_vector_path(system.n_spins)
    v = np.asarray(v, dtype=complex)
    if v.shape != (system.dim,):
        raise InvalidParameter("v", f"state shape {v.shape} is not ({system.dim},)")
    _require_finite(v, t)
    b = _spectral_bound(system, kind)
    x = b * t
    n_terms = int(abs(x)) + 1
    while abs(scipy.special.jv(n_terms, x)) >= _SERIES_TOL:
        n_terms += 1
    out = scipy.special.jv(0, x) * v
    prev, cur = np.zeros_like(v), v
    for k in range(1, n_terms):
        # T_1 = (H/b) T_0 and T_{k+1} = 2 (H/b) T_k - T_{k-1}
        scale = (1 if k == 1 else 2) / b
        prev, cur = cur, scale * apply_operator(kind, system, cur) - prev
        out += 2 * (1, -1j, -1, 1j)[k % 4] * scipy.special.jv(k, x) * cur
    return out


def evolve(
    obj: np.ndarray,
    system: SpinSystem,
    kind: OperatorKind,
    t: float,
    *,
    method: str = "auto",
) -> np.ndarray:
    """Evolve a state vector (shape (D,)) or density matrix (shape (D, D)).

    Vectors become ``exp(-iHt) psi``; densities become
    ``exp(-iHt) rho exp(+iHt)``. ``t < 0`` reverts the evolution.
    Iz, Ix and Iy rotate both in closed form (:func:`collective_pulse`);
    Hzz and Hdq evolve densities in their eigenbasis. For vectors ``method``
    is "auto", "eigen" or "krylov": "krylov" runs the matrix-free series for
    every kind, and auto runs it for Hzz and Hdq above ``EIGEN_MAX_DIM``.
    Raises InvalidParameter for an unknown kind or method,
    ``method="krylov"`` on a density, a bad shape or a non-finite ``t``/``obj``.
    The vector path's budget is checked before ``obj`` is read.
    """
    if method not in ("auto", "eigen", "krylov"):
        raise InvalidParameter("method", f"unknown method {method!r}")
    kind = choice(OperatorKind, kind, "kind")
    _require_vector_path(system.n_spins)
    axis = _COLLECTIVE_AXES.get(kind)
    obj = np.asarray(obj)
    dim = system.dim
    is_density = obj.ndim == 2
    if obj.shape != ((dim, dim) if is_density else (dim,)):
        raise InvalidParameter("obj", f"object shape {obj.shape} does not match dim {dim}")
    _require_finite(obj, t)
    if is_density:
        if method == "krylov":
            raise InvalidParameter("method", 'method="krylov" evolves state vectors only')
        _require_dense(dim, "evolve-density")
        if axis is not None:
            return collective_pulse(obj, axis, t)
        # U (U rho)^dag = U rho^dag U^dag, whose adjoint is U rho U^dag
        basis = EigenBasis.compute(system, kind)
        half = basis.evolve_columns(obj.astype(complex, copy=False), t)
        return basis.evolve_columns(half.conj().T, t).conj().T
    psi = obj.astype(complex, copy=False)
    if method == "krylov" or (axis is None and method == "auto" and dim > EIGEN_MAX_DIM):
        return krylov_expmv(system, kind, psi, t)
    if axis is not None:
        return collective_pulse(psi, axis, t)
    return EigenBasis.compute(system, kind).evolve_columns(psi[:, None], t)[:, 0]


# --- collective rotations ------------------------------------------------


def _pulse_u2(axis: Axis, angle: float) -> np.ndarray:
    """exp(-i*angle*S) for the single-spin operator S of ``axis``; S^2 = 1/4,
    so it is cos(angle/2) - 2i sin(angle/2) S."""
    if not np.isfinite(number(angle, "angle")):
        raise InvalidParameter("angle", "pulse angle must be finite")
    op = _AXIS_OP[choice(Axis, axis, "axis")]
    return np.cos(angle / 2) * np.eye(2) - 2j * np.sin(angle / 2) * op


def _apply_left(u2: np.ndarray, mat: np.ndarray, n_spins: int) -> np.ndarray:
    """(u2 x ... x u2) @ mat for mat of shape (2**n, k)."""
    cols = mat.shape[1] if mat.ndim == 2 else 1
    t = mat.reshape((2,) * n_spins + (cols,))
    for ax in range(n_spins):
        t = np.moveaxis(np.tensordot(u2, t, axes=([1], [ax])), 0, ax)
    return t.reshape(mat.shape)


def collective_pulse(obj: np.ndarray, axis: Axis, angle: float) -> np.ndarray:
    """Apply exp(-i*angle*I_axis) to a state vector or density matrix.

    Raises InvalidParameter unless ``obj`` has shape (2**N,) or
    (2**N, 2**N) for N >= 2 and is finite.
    """
    u2 = _pulse_u2(axis, angle)
    obj = np.asarray(obj, dtype=complex)
    dim = obj.shape[0] if obj.ndim in (1, 2) else 0
    n = dim.bit_length() - 1
    if dim < 4 or dim != 1 << n or obj.shape[1:] not in ((), (dim,)):
        raise InvalidParameter("obj", f"shape {obj.shape} is not (2**N,) or "
                                      f"(2**N, 2**N) for N >= 2")
    if not all_finite(obj):
        raise InvalidParameter("obj", "state or density to rotate must be finite")
    if obj.ndim == 1:
        return _apply_left(u2, obj[:, None], n)[:, 0]
    out = _apply_left(u2, obj, n)
    return _apply_left(u2, out.conj().T, n).conj().T


def pulse_matrix(axis: Axis, angle: float, n_spins: int) -> np.ndarray:
    """Dense exp(-i*angle*I_axis) on ``n_spins`` spins, a Kronecker product.

    Raises InvalidParameter for an ``n_spins`` that is not an integer of at
    least 2 and CapExceeded when the matrix would not fit in the budget.
    """
    u2 = _pulse_u2(axis, angle)
    n_spins = _spin_count(n_spins)
    # the last kron holds its 2**(N-1)-square input, its 2**N-square output
    # and numpy's iteration buffers for the broadcast product
    require_memory((20 << 2 * n_spins) + 48 * np.getbufsize(), f"a {n_spins}-spin pulse matrix")
    out = np.array([[1.0]], dtype=complex)
    for _ in range(n_spins):
        out = np.kron(out, u2)
    return out


def dq_cycle(
    system: SpinSystem, delta1: float = 3e-6, delta2: float = 8e-6, sign: int = +1
) -> np.ndarray:
    """Dense propagator of the eight-pulse double-quantum cycle (Baum et al.,
    J. Chem. Phys. 83, 2015, 1985), period 4*delta1 + 6*delta2: each pi/2
    pulse follows its delay of free Hzz evolution, and a closing delta2
    ends the cycle.

    ``sign=+1`` uses +-X pulses and realizes Hdq at leading order;
    ``sign=-1`` shifts every pulse phase by pi/2 (+-Y pulses), which
    realizes -Hdq and reverses the evolution. Raises InvalidParameter,
    before any allocation, for a delay that is not finite and positive and
    for a ``sign`` other than +1 or -1.
    """
    for name, delay in (("delta1", delta1), ("delta2", delta2)):
        if not 0 < number(delay, name) < math.inf:
            raise InvalidParameter(name, f"{name} must be finite and positive, got {delay}")
    if sign not in (+1, -1):
        raise InvalidParameter("sign", f"sign must be +1 or -1, got {sign!r}")
    p, m = (Axis.X, Axis.MINUS_X) if sign == +1 else (Axis.Y, Axis.MINUS_Y)
    # (delay, the pulse after it), earliest first
    steps = [(delta1, p), (delta2, p), (delta1, m), (2 * delta2, m),
             (delta1, p), (delta2, p), (delta1, m), (delta2, m)]
    _require_dense(system.dim, "dq_cycle")
    u = np.eye(system.dim, dtype=complex)
    basis = EigenBasis.compute(system, OperatorKind.HZZ)
    for delay, axis in steps:
        u = basis.evolve_columns(u, delay)
        u = _apply_left(_pulse_u2(axis, np.pi / 2), u, system.n_spins)
    return basis.evolve_columns(u, delta2)
