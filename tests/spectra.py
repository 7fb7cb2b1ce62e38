"""Readings of a ``CoherenceSpectrum`` that only the tests take."""

import numpy as np


def weight_at(spec, k):
    """The normalized weight of coherence order ``k``; 0.0 for an order
    the spectrum does not hold."""
    hit = np.nonzero(spec.orders == k)[0]
    return float(spec.weights[hit[0]]) if hit.size else 0.0


def raw_weights(spec):
    """The weights before normalization, in Tr{Iz^2} units."""
    return spec.weights * spec.normalization
