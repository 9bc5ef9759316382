import subprocess
import sys

import numpy as np
import pytest

from tfslab import _kernels


def brute_conv(signal, kernel):
    n = signal.shape[0]
    out = np.zeros_like(signal, dtype=complex)
    for i in range(n):
        for j in range(i + 1):
            out[i] += signal[j] * kernel[i - j]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.Philox(7))


def test_1d_matches_bruteforce(rng):
    sig = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    ker = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    got = _kernels.causal_conv(sig, ker)
    np.testing.assert_allclose(got, brute_conv(sig, ker), rtol=1e-12, atol=1e-12)


def test_2d_matches_bruteforce(rng):
    sig = rng.standard_normal((25, 6)) + 1j * rng.standard_normal((25, 6))
    ker = rng.standard_normal(25) + 0j
    got = _kernels.causal_conv(sig, ker)
    expect = np.stack([brute_conv(sig[:, c], ker) for c in range(6)], axis=1)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_2d_kernel_convolves_column_by_column(rng):
    # one signal against a batch of kernel columns, as source_rows passes
    # rho and the steps (a transposed view): bit for bit the one-column calls
    sig = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    ker = (rng.standard_normal((5, 31)) + 1j * rng.standard_normal((5, 31))).T
    got = _kernels.causal_conv(sig, ker)
    cols = np.stack([_kernels.causal_conv(sig, ker[:, c]) for c in range(5)], axis=1)
    assert got.tobytes() == cols.tobytes()
    expect = np.stack([brute_conv(sig, ker[:30, c]) for c in range(5)], axis=1)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)
    # and the bits of each column convolved with its own copy of the signal,
    # the paired form: the signal's transform stays the left factor
    length = _kernels._fast_length(59)
    paired = np.fft.ifft(np.fft.fft(np.tile(sig[:, None], (1, 5)), length, axis=0)
                         * np.fft.fft(ker[:30], length, axis=0), axis=0)[:30]
    assert got.tobytes() == paired.tobytes()


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_two_2d_operands_are_rejected(columns):
    # a 2D signal takes a 1D kernel, a 2D kernel a 1D signal: nothing is
    # paired or broadcast column against column
    with pytest.raises(ValueError):
        _kernels.causal_conv(np.ones((5, 3), dtype=complex),
                             np.ones((5, columns), dtype=complex))


def test_short_kernel_rejected(rng):
    with pytest.raises(ValueError):
        _kernels.causal_conv(np.ones(5, dtype=complex), np.ones(3, dtype=complex))


def test_longer_kernel_is_truncated(rng):
    sig = rng.standard_normal(10) + 0j
    ker = rng.standard_normal(17) + 0j
    got = _kernels.causal_conv(sig, ker)
    np.testing.assert_allclose(got, brute_conv(sig, ker[:10]), rtol=1e-12)


def test_convolution_does_not_import_scipy_signal():
    # scipy.signal costs most of a CLI call's start-up and the convolution
    # needs only scipy.fft
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from tfslab.forward import TimeGrid, caputo_l1\n"
        "caputo_l1(np.ones(5, dtype=complex), 0.5, TimeGrid(0.1, 4))\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_fast_length_matches_scipy():
    # the convolution keeps the transform length scipy.signal.fftconvolve
    # used, so its results stay bit-identical
    scipy_fft = pytest.importorskip("scipy.fft")
    for n in range(1, 20000):
        assert _kernels._fast_length(n) == scipy_fft.next_fast_len(n, False), n
