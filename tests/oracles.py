"""Independent dense constructions used to cross-check the package.

Everything here is built from explicit Kronecker products of 2x2 matrices
and shares no code with the bitwise kernels in mqcsim.spins; it is the
brute-force side of every dual-route check.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
# single-spin operators in the package's (down, up) = (0, 1) ordering
SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # I+
SM = SP.conj().T
IX = 0.5 * (SP + SM)
IY = (SP - SM) / 2j
IZ = np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex)


def op_on(op, i, n):
    """``op`` on spin i, identity elsewhere; bit i of the index = spin i."""
    out = np.array([[1.0]], dtype=complex)
    for k in range(n - 1, -1, -1):
        out = np.kron(out, op if k == i else I2)
    return out


def total_op(op, n):
    return sum(op_on(op, i, n) for i in range(n))


def dense_hzz(couplings):
    n = couplings.shape[0]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            if couplings[i, j] == 0:
                continue
            h += couplings[i, j] * (
                3 * op_on(IZ, i, n) @ op_on(IZ, j, n)
                - op_on(IX, i, n) @ op_on(IX, j, n)
                - op_on(IY, i, n) @ op_on(IY, j, n)
                - op_on(IZ, i, n) @ op_on(IZ, j, n)
            )
    return h


def dense_hdq(couplings):
    n = couplings.shape[0]
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            if couplings[i, j] == 0:
                continue
            pp = op_on(SP, i, n) @ op_on(SP, j, n)
            h += -0.5 * couplings[i, j] * (pp + pp.conj().T)
    return h


def dense_operator(kind, couplings, n, phi=0.0):
    """Mirror of apply_operator's contract, dense and kron-built."""
    if kind == "iz":
        return total_op(IZ, n)
    if kind == "ix":
        return total_op(IX, n)
    if kind == "iy":
        return total_op(IY, n)
    if kind == "zz":
        return dense_hzz(couplings)
    if kind == "dq":
        return dense_hdq(couplings)
    if kind == "dq_phase":
        import scipy.linalg

        rz = scipy.linalg.expm(-1j * phi * total_op(IZ, n))
        return rz @ dense_hdq(couplings) @ rz.conj().T
    raise ValueError(kind)


def brute_force_mqc_signal(couplings, t, phi, back_couplings=None):
    """Dense-matrix protocol evaluation sharing no code with the package.

    The reversed evolution runs under ``back_couplings`` (default: the
    forward ones); ``couplings * (1 + mismatch)`` mirrors ``MqcRun.mismatch``.
    """
    import scipy.linalg

    n = couplings.shape[0]
    h = dense_hdq(couplings)
    h_back = h if back_couplings is None else dense_hdq(back_couplings)
    iz = total_op(IZ, n)
    u = (
        scipy.linalg.expm(-1j * phi * iz)
        @ scipy.linalg.expm(1j * t * h_back)
        @ scipy.linalg.expm(1j * phi * iz)
        @ scipy.linalg.expm(-1j * t * h)
    )
    rho = u @ iz @ u.conj().T
    return np.trace(iz @ rho).real / np.trace(iz @ iz).real


def random_state(n, rng):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_couplings(n, rng, lo=0.4, hi=1.6):
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = rng.uniform(lo, hi)
    return d


def multistart_biexponential(t, y):
    """Bi-exponential least squares from a fixed grid of 21 starts.

    The reference for ``fit_biexponential``: 18 ``curve_fit`` starts of the
    two-exponential model and 3 of the single one, under the same bounds,
    and the same rule for collapsing to one exponential (the second does
    not lower the SSR by 1%, or the time constants agree within 5%).
    Returns (SSR of the chosen model, degenerate).
    """
    from scipy.optimize import curve_fit

    def biexp(t, a_f, t_f, a_s, t_s):
        return a_f * np.exp(-t / t_f) + a_s * np.exp(-t / t_s)

    def single_exp(t, a, t_s):
        return a * np.exp(-t / t_s)

    scale = float(np.max(np.abs(y))) or 1.0
    span = t[-1] - t[0]
    t_lo, t_hi = 1e-3 * (t[1] - t[0]), 1e6 * span

    def best_of(model, starts, lower, upper):
        best = None
        for p0 in starts:
            try:
                p, _ = curve_fit(model, t, y, p0=p0, bounds=(lower, upper),
                                 maxfev=20000)
            except (RuntimeError, ValueError):
                continue
            ssr = float(np.sum((model(t, *p) - y) ** 2))
            if best is None or ssr < best[0]:
                best = (ssr, p)
        return best

    pair = best_of(
        biexp,
        [[frac * scale, tf0, (1 - frac) * scale, ts0]
         for frac in (0.2, 0.5, 0.8)
         for tf0 in (span / 50, span / 5)
         for ts0 in (span / 2, 5 * span, 100 * span)],
        [0.0, t_lo, 0.0, t_lo], [10 * scale, t_hi, 10 * scale, t_hi],
    )
    single = best_of(
        single_exp, [[scale, ts0] for ts0 in (span / 10, span, 50 * span)],
        [0.0, t_lo], [10 * scale, t_hi],
    )
    if pair is None:
        return single[0], True
    t_f, t_s = sorted((pair[1][1], pair[1][3]))
    if single is not None and (abs(t_s - t_f) <= 0.05 * t_s or single[0] <= pair[0] * 1.01):
        return single[0], True
    return pair[0], False
