"""The SNR instrument of the scan-count checks: a record's noise scale and
cumulative SNR, both estimated from the record itself."""

import numpy as np

from mqcsim import cumulative_snr


def estimate_noise_sigma(values):
    """Per-sample noise scale from second differences (trend-insensitive).

    Uses the median absolute second difference, so slow signal structure
    and isolated glitches barely bias it; exact white noise of std sigma
    gives sigma back in expectation.
    """
    values = np.asarray(values, float)
    d2 = values[2:] - 2 * values[1:-1] + values[:-2]
    return float(np.median(np.abs(d2)) / (0.6744897501960817 * np.sqrt(6.0)))


def measured_snr(values):
    """Cumulative SNR over the full record, with the noise scale estimated
    from the record's second differences."""
    return float(cumulative_snr(values, estimate_noise_sigma(values))[-1])
