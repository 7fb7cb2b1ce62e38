"""Shared synthetic fixtures for inversion tests and the acceptance gate."""

import numpy as np

# bimodal cluster-size truth: masses 0.3 at s=20 and 0.7 at s=400
BIMODAL_S = (20.0, 400.0)
BIMODAL_W = (0.3, 0.7)
BIMODAL_ORDERS = np.arange(0, 62, 2.0)

# "1% noise" on the measured phase signals; the M-point Fourier transform
# that produces a coherence spectrum averages it down by sqrt(M)
PHASE_NOISE = 0.01
N_PHASES = 32
SPECTRUM_NOISE = PHASE_NOISE / np.sqrt(N_PHASES)


def bimodal_clean(orders=BIMODAL_ORDERS):
    return sum(
        w * np.exp(-np.asarray(orders, float) ** 2 / s)
        for w, s in zip(BIMODAL_W, BIMODAL_S)
    )


def bimodal_noisy(seed, orders=BIMODAL_ORDERS, noise=SPECTRUM_NOISE):
    rng = np.random.default_rng(seed)
    return bimodal_clean(orders) + rng.normal(0.0, noise, len(orders))


def single_gaussian_fit(orders, weights):
    """The classical spin-counting model A exp(-k^2/s), fit by least squares
    to a decaying spectrum whose orders start at k = 0: (s, A, rms residual).

    The reference that the mixture inversion has to beat on a bimodal
    spectrum; its start reads s off the first two orders.
    """
    from scipy.optimize import curve_fit

    def model(k, a, s):
        return a * np.exp(-(k**2) / s)

    k, w = np.asarray(orders, float), np.asarray(weights, float)
    s0 = -k[1] ** 2 / np.log(w[1] / w[0])
    (a, s), _ = curve_fit(model, k, w, p0=[w[0], s0], bounds=([0, 1e-6], [np.inf, 1e9]),
                          maxfev=20000)
    return float(s), float(a), float(np.sqrt(np.mean((model(k, a, s) - w) ** 2)))
