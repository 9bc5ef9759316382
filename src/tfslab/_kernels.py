"""Causal convolution, the one primitive behind the discrete operators.

Every discrete fractional operator in this package (L1 Caputo derivative,
Riemann-Liouville product integration, modal source convolution, Duhamel
convolution) reduces to a causal convolution along the time axis,

    out[i] = sum_{j<=i} signal[j] * kernel[i-j],    i = 0..n-1,

evaluated here by FFT convolution (``scipy.fft``).
"""

import numpy as np
import scipy.fft


def causal_conv(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal convolution of ``signal`` (1D or 2D, time on axis 0) with a
    scalar ``kernel`` of length >= signal length, truncated to the signal
    length."""
    signal = np.asarray(signal, dtype=np.complex128)
    kernel = np.asarray(kernel, dtype=np.complex128)
    n = signal.shape[0]
    if kernel.shape[0] < n:
        raise ValueError("kernel shorter than signal")
    # the transform length scipy.signal.fftconvolve picks for a full
    # convolution, so results match it bit for bit
    length = scipy.fft.next_fast_len(2 * n - 1, False)
    k = scipy.fft.fft(kernel[:n], length)
    if signal.ndim == 2:
        k = k[:, None]
    return scipy.fft.ifft(scipy.fft.fft(signal, length, axis=0) * k, axis=0)[:n]
