"""Real Gamma function via a Lanczos approximation with reflection.

Series weights throughout the package are reciprocal-Gamma values, so the
primary export is ``rgamma_real``: it returns exactly 0.0 at non-positive
integers and underflows gracefully to 0.0 for large arguments instead of
raising.
"""

import math

# Lanczos coefficients for g = 7, n = 9 (classic double-precision set).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_GAMMA_OVERFLOW_X = 171.62  # Gamma(x) overflows float64 above this


def _lanczos_positive(x):
    # valid for x >= 0.5; the factored power overflows long before Gamma
    # itself does, so switch to log space for large arguments
    acc = _lanczos_positive_series(x)
    t = x + _LANCZOS_G - 0.5
    if x <= 100.0:
        return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * acc
    return math.sqrt(2.0 * math.pi) * acc * math.exp((x - 0.5) * math.log(t) - t)


def gamma_real(x: float) -> float:
    """Gamma(x) for real x; raises OverflowError past float64 range and
    ValueError at the poles (non-positive integers)."""
    if x != x:
        raise ValueError("gamma of NaN")
    if x >= 0.5:
        if x > _GAMMA_OVERFLOW_X:
            raise OverflowError(f"gamma({x}) overflows double precision")
        return _lanczos_positive(x)
    if x == math.floor(x):
        raise ValueError(f"gamma pole at {x}")
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
    s = math.sin(math.pi * x)
    return math.pi / (s * gamma_real(1.0 - x))


def rgamma_real(x: float) -> float:
    """1/Gamma(x) for real x; exactly 0.0 at non-positive integers and for
    arguments large enough that Gamma overflows."""
    if x != x:
        raise ValueError("rgamma of NaN")
    if x >= 0.5:
        if x > _GAMMA_OVERFLOW_X:
            # 1/Gamma underflows; compute in log space to keep a clean 0.0
            t = x + _LANCZOS_G - 0.5
            logg = 0.5 * math.log(2.0 * math.pi) + (x - 0.5) * math.log(t) - t
            if logg > 745.0:
                return 0.0
            return math.exp(-logg) / _lanczos_positive_series(x)
        return 1.0 / _lanczos_positive(x)
    if x == math.floor(x):
        return 0.0
    # 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi ; Gamma(1-x) may overflow for
    # very negative x, in which case the caller sees an honest OverflowError.
    return math.sin(math.pi * x) * gamma_real(1.0 - x) / math.pi


def _lanczos_positive_series(x):
    acc = _LANCZOS_COEF[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEF[i] / (x - 1.0 + i)
    return acc
