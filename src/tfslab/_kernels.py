"""Causal convolution, the one primitive behind the discrete operators.

Every discrete fractional operator in this package (L1 Caputo derivative,
Riemann-Liouville product integration, modal source convolution, Duhamel
convolution) reduces to a causal convolution along the time axis,

    out[i] = sum_{j<=i} signal[j] * kernel[i-j],    i = 0..n-1,

evaluated here by FFT convolution.
"""

import numpy as np


def causal_conv(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal convolution of ``signal`` (1D or 2D, time on axis 0) with a
    scalar ``kernel`` of length >= signal length, truncated to the signal
    length."""
    from scipy.signal import fftconvolve

    signal = np.asarray(signal, dtype=np.complex128)
    kernel = np.asarray(kernel, dtype=np.complex128)
    n = signal.shape[0]
    if kernel.shape[0] < n:
        raise ValueError("kernel shorter than signal")
    if signal.ndim == 1:
        return fftconvolve(signal, kernel[:n])[:n]
    return fftconvolve(signal, kernel[:n, None], axes=0)[:n]
