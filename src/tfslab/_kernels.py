"""Causal convolution, the one primitive behind the discrete operators.

Every discrete fractional operator in this package (L1 Caputo derivative,
Riemann-Liouville product integration, modal source convolution, Duhamel
convolution) reduces to a causal convolution along the time axis,

    out[i] = sum_{j<=i} signal[j] * kernel[i-j],    i = 0..n-1,

evaluated here by FFT convolution (``numpy.fft``).
"""

import numpy as np


def _fast_length(n: int) -> int:
    """Smallest 11-smooth integer >= n (only prime factors 2, 3, 5, 7, 11):
    the transform length ``scipy.fft.next_fast_len(n, False)`` picks."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def causal_conv(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal convolution of ``signal`` (1D or 2D, time on axis 0) with a
    ``kernel`` of length >= signal length, truncated to the signal length.
    A 1D operand serves every column of a 2D one, so one call convolves a
    batch of signals with one kernel or one signal with a batch of kernels."""
    signal = np.asarray(signal, dtype=np.complex128)
    kernel = np.asarray(kernel, dtype=np.complex128)
    n = signal.shape[0]
    if kernel.shape[0] < n:
        raise ValueError("kernel shorter than signal")
    if signal.ndim + kernel.ndim > 3:
        raise ValueError(f"signal {signal.shape} and kernel {kernel.shape}: one must be 1D")
    # the transform length scipy.signal.fftconvolve picks for a full
    # convolution, so results match it bit for bit
    length = _fast_length(2 * n - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers check finiteness
        k = np.fft.fft(kernel[:n], length, axis=0)
        # transposed, a 1D operand broadcasts over the other's columns; the
        # signal's transform stays the left factor (not bitwise commutative)
        return np.fft.ifft((np.fft.fft(signal, length, axis=0).T * k.T).T, axis=0)[:n]
