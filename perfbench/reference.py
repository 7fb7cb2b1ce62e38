"""Dense reference physics built from Kronecker products with numpy and scipy.

The correctness checks compare mqcsim against these. They share no code with
mqcsim (not the bitwise operator kernel, not its dense assembly, not its
eigenbases or pulses), so a check fails when mqcsim's kernel is wrong even
if the wrong operator is still Hermitian and every mqcsim route agrees with
every other. Sizes are the checks' small ones (D = 2**N up to 512).

Basis: bit i of a state index is spin i, with 0 = down and 1 = up, as in
mqcsim. Operators are spin-1/2 operators (Pauli / 2).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

ID = np.eye(2, dtype=complex)
SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
SZ = np.diag([-0.5, 0.5]).astype(complex)


def product(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kronecker product with ``ops[i]`` on spin i and the identity elsewhere.

    Spin i is bit i of the index, so it is factor n-1-i of the product.
    """
    out = np.ones((1, 1), dtype=complex)
    for i in reversed(range(n)):
        out = np.kron(out, ops.get(i, ID))
    return out


def collective(op: np.ndarray, n: int) -> np.ndarray:
    """sum_i op_i, e.g. Iz = sum_i Iz_i."""
    return sum(product({i: op}, n) for i in range(n))


def _pair_sum(couplings: np.ndarray, terms) -> np.ndarray:
    n = len(couplings)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            for coeff, a, b in terms:
                h += couplings[i, j] * coeff * product({i: a, j: b}, n)
    return h


def hdq(couplings: np.ndarray) -> np.ndarray:
    """Double-quantum Hamiltonian sum_{i<j} -d_ij (Ix_i Ix_j - Iy_i Iy_j)."""
    return _pair_sum(couplings, [(-1.0, SX, SX), (1.0, SY, SY)])


def hzz(couplings: np.ndarray) -> np.ndarray:
    """Secular dipolar Hamiltonian sum_{i<j} d_ij (2 Iz_i Iz_j - Ix_i Ix_j - Iy_i Iy_j)."""
    return _pair_sum(couplings, [(2.0, SZ, SZ), (-1.0, SX, SX), (-1.0, SY, SY)])


def evolve_state(couplings: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i Hdq t) psi."""
    return scipy.linalg.expm(-1j * t * hdq(couplings)) @ psi


def coherence_spectra(couplings: np.ndarray, n_max: int, tau_dq: float) -> list[dict[int, float]]:
    """Normalized coherence-order weights of rho_n = U^n Iz U^-n, U = exp(-i Hdq tau_dq).

    One dict {order: weight} per n = 0 .. n_max; the weight of order k is the
    sum of |rho_rc|^2 over elements with m(r) - m(c) = k, over the total.
    """
    n = len(couplings)
    u = scipy.linalg.expm(-1j * tau_dq * hdq(couplings))
    rho = collective(SZ, n)
    mz = np.diag(rho).real
    index = (np.rint(mz[:, None] - mz[None, :]).astype(int) + n).ravel()
    out = []
    for step in range(n_max + 1):
        if step:
            rho = u @ rho @ u.conj().T
        raw = np.bincount(index, weights=(np.abs(rho) ** 2).ravel(), minlength=2 * n + 1)
        out.append({k - n: w / raw.sum() for k, w in enumerate(raw)})
    return out


def dd_series(couplings: np.ndarray, tau: float, theta: float, n_cycles: int) -> np.ndarray:
    """Noiseless pulse-train signal, cycle by cycle.

    A pi/2 pulse about Y tips Iz; each cycle is free evolution under Hzz for
    tau/2, a sample of Tr{Ix rho} / Tr{Iz^2}, tau/2 more, and a theta pulse
    about X.
    """
    n = len(couplings)
    iz, ix, iy = (collective(s, n) for s in (SZ, SX, SY))
    norm = np.trace(iz @ iz).real
    half = scipy.linalg.expm(-0.5j * tau * hzz(couplings))
    pulse = scipy.linalg.expm(-1j * theta * ix)
    tip = scipy.linalg.expm(-0.5j * np.pi * iy)
    rho = tip @ iz @ tip.conj().T
    signal = np.empty(n_cycles)
    for j in range(n_cycles):
        rho = half @ rho @ half.conj().T
        signal[j] = np.trace(ix @ rho).real / norm
        rho = pulse @ half @ rho @ half.conj().T @ pulse.conj().T
    return signal
