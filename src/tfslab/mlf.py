"""Two-parameter Mittag-Leffler function and the mode-evolution kernels.

The evaluator switches between three regions of the complex plane: a
guarded Taylor series on the unit disk, numerical inversion of the Laplace
transform on a parabolic contour in the mid range, and the algebraic
asymptotic expansion far out.  Orders above 1 are reduced through the exact
root-splitting identity

    E_{a,b}(z) = (1/n) sum_h E_{a/n,b}(z^{1/n} exp(2 pi i h / n)).

All values are finite complex numbers or an exception; NaN/inf is never
returned.
"""

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MLAccuracyError, MLDomainError, MLOverflowError
from .gamma import rgamma_real

SERIES_RADIUS = 1.0
ASYMPTOTIC_RADIUS = 50.0
Z_MAX_DEFAULT = 1.0e4

_EXP_ARG_MAX = 700.0
_TARGET = 1.0e-15
_LOG_TARGET = math.log(1.0 / _TARGET) + 4.0  # margin on top of the tolerance

# Test hook: multiplies every ml_kernel value by (1 + eps) so the selftest
# battery can prove its own sensitivity.  Never set outside tests.
_PERTURB = float(os.environ.get("TFSLAB_PERTURB_KERNEL", "0") or 0.0)


@dataclass(frozen=True)
class MLParams:
    """Parameters (alpha, beta) of E_{alpha,beta}."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise MLDomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise MLDomainError(f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional order of the evolution plus the phase convention.

    ``standard_i`` multiplies the time derivative by i, giving the kernel
    argument phase -pi/2; ``power_i_alpha`` uses the i^alpha convention,
    phase -pi*alpha/2.  Evolution operators require alpha strictly inside
    (0, 1); alpha = 1 is admitted so the kernels can be probed at the
    classical limit.
    """

    alpha: float
    phase: str = "standard_i"

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise MLDomainError(f"order alpha must lie in (0, 1], got {self.alpha}")
        if self.phase not in ("standard_i", "power_i_alpha"):
            raise MLDomainError(f"unknown phase convention {self.phase!r}")

    @property
    def phase_angle(self) -> float:
        if self.phase == "standard_i":
            return -0.5 * math.pi
        return -0.5 * math.pi * self.alpha

    @property
    def phase_factor(self) -> complex:
        # exact -1j for the standard convention (keeps kernel arguments on
        # the imaginary axis without rounding dirt)
        if self.phase == "standard_i":
            return -1j
        return cmath.exp(1j * self.phase_angle)

    def require_strict(self, what: str) -> None:
        if self.alpha >= 1.0:
            raise MLDomainError(f"{what} requires alpha strictly inside (0, 1)")


@dataclass(frozen=True)
class SectorParams:
    """Sector opening mu and the empirically certified bound constant c0."""

    alpha: float
    mu: float
    c0: float

    def __post_init__(self):
        lo, hi = 0.5 * math.pi * self.alpha, math.pi * self.alpha
        if not (lo < self.mu < hi):
            raise MLDomainError(
                f"mu must lie in (pi*alpha/2, pi*alpha) = ({lo:.6g}, {hi:.6g})"
            )
        if not (self.c0 >= 1.0 and math.isfinite(self.c0)):
            raise MLDomainError(f"c0 must be finite and >= 1, got {self.c0}")


# ---------------------------------------------------------------------------
# region evaluators


def _taylor(alpha: float, beta: float, z: complex):
    """Power series with cancellation guard; returns (value, trustworthy)."""
    total = complex(rgamma_real(beta))
    power = 1.0 + 0.0j
    peak = abs(total)
    small_streak = 0
    cap = int(200 + 24.0 / alpha)
    converged = False
    for k in range(1, cap + 1):
        power *= z
        contrib = power * rgamma_real(alpha * k + beta)
        total += contrib
        mag = abs(contrib)
        peak = max(peak, mag)
        if mag < 1e-18 * (peak + 1e-300) and alpha * k + beta > 2.0:
            small_streak += 1
            if small_streak >= 3:
                converged = True
                break
        else:
            small_streak = 0
    if not converged:
        return total, False
    # cancellation estimate: roundoff floor is eps * largest summand
    ok = peak * 2.3e-16 <= 1e-11 * (abs(total) + 1e-300)
    return total, ok


def _asymptotic(alpha: float, beta: float, z: complex) -> complex:
    """Algebraic expansion plus the exponential branch when present."""
    theta = cmath.phase(z)
    val = 0.0 + 0.0j
    if abs(theta) <= alpha * math.pi + 1e-14:
        s0 = cmath.exp(cmath.log(z) / alpha)
        if s0.real > _EXP_ARG_MAX:
            raise MLOverflowError(
                f"E_{{{alpha},{beta}}} at |z|={abs(z):.3g} exceeds double range"
            )
        if s0.real > -745.0:
            val = cmath.exp(((1.0 - beta) / alpha) * cmath.log(z) + s0) / alpha
    inv = 1.0 / z
    power = 1.0 + 0.0j
    acc = 0.0 + 0.0j
    prev = math.inf
    for k in range(1, 200):
        x = beta - alpha * k
        if 1.0 - x > 171.0:
            break
        power *= inv
        rg = rgamma_real(x)
        if rg == 0.0:
            continue  # reciprocal-Gamma pole: the term is exactly absent
        term = power * rg
        mag = abs(term)
        if mag > prev:
            break  # optimal truncation reached
        acc += term
        prev = mag
        if mag < 1e-17 * (abs(val - acc) + 1e-300):
            break
    return val - acc


def _contour(alpha: float, beta: float, z: complex) -> complex:
    """Laplace-inversion on a parabolic contour with pole subtraction.

    The pole of s^alpha - z in the principal sheet (present iff
    |arg z| <= alpha*pi) is subtracted as a residue whenever it falls to the
    right of the contour; the contour scale mu is chosen so the pole stays
    well clear of the contour in the quadrature strip.
    """
    theta = cmath.phase(z)
    have_pole = abs(theta) <= alpha * math.pi
    residue = 0.0 + 0.0j
    if have_pole:
        s0 = cmath.exp(cmath.log(z) / alpha)
        half = math.cos(theta / (2.0 * alpha))  # cos(arg(s0)/2) >= 0
        a = abs(s0) * half * half
        if a >= 0.72:
            mu = min(max(0.25 * a, 0.18), 5.0)
            if s0.real > _EXP_ARG_MAX:
                raise MLOverflowError(
                    f"E_{{{alpha},{beta}}} at |z|={abs(z):.3g} exceeds double range"
                )
            if s0.real > -745.0:
                residue = cmath.exp(((1.0 - beta) / alpha) * cmath.log(z) + s0) / alpha
        else:
            mu = 2.0
        w = cmath.sqrt(s0 / mu)
        strip = min(1.0, abs(w.real - 1.0))
    else:
        mu = 2.0
        strip = 1.0
    strip *= 0.9
    # truncation: e^{mu(1-U^2)} (mu(1+U^2))^{max(0, alpha-beta)} <= target
    u_max = math.sqrt(1.0 + _LOG_TARGET / mu)
    grow = max(0.0, alpha - beta)
    if grow > 0.0:
        extra = grow * math.log(mu * (1.0 + u_max * u_max) + 2.0)
        u_max = math.sqrt(1.0 + (_LOG_TARGET + extra) / mu)
    h = 2.0 * math.pi * strip / _LOG_TARGET
    n = int(math.ceil(u_max / h))
    u = h * np.arange(-n, n + 1)
    iu1 = 1.0 + 1j * u
    s = mu * iu1 * iu1
    vals = np.exp(s) * s ** (alpha - beta) * iu1 / (s**alpha - z)
    integral = (h * mu / math.pi) * vals.sum()
    return complex(integral) + residue


def _reduce_order(alpha: float, beta: float, z: complex) -> complex:
    """Exact order reduction for alpha > 1 via n-th roots of the argument."""
    n = int(math.ceil(alpha))
    a = alpha / n
    if z == 0:
        return complex(rgamma_real(beta))
    root = cmath.exp(cmath.log(z) / n)
    total = 0.0 + 0.0j
    for hh in range(n):
        total += _ml(a, beta, root * cmath.exp(2j * math.pi * hh / n))
    return total / n


def _ml(alpha: float, beta: float, z: complex) -> complex:
    if alpha > 1.0:
        return _reduce_order(alpha, beta, z)
    az = abs(z)
    if az <= SERIES_RADIUS:
        val, ok = _taylor(alpha, beta, z)
        if ok:
            return val
        return _contour(alpha, beta, z)
    if az >= ASYMPTOTIC_RADIUS:
        return _asymptotic(alpha, beta, z)
    return _contour(alpha, beta, z)


# ---------------------------------------------------------------------------
# public operations


def ml_eval(params: MLParams, z: complex, *, z_max: float = Z_MAX_DEFAULT,
            verify: bool = True) -> complex:
    """Evaluate E_{alpha,beta}(z).

    ``z_max`` caps the admissible modulus (raise it deliberately for
    long-horizon experiments).  With ``verify`` the value is cross-checked
    against the shift recurrence E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z);
    a violation raises ``MLAccuracyError`` instead of returning silently.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MLDomainError("argument must be finite")
    if abs(z) > z_max:
        raise MLDomainError(f"|z|={abs(z):.4g} beyond cap {z_max:.4g}")
    val = _ml(params.alpha, params.beta, z)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise MLOverflowError("evaluation produced a non-finite value")
    if verify:
        shifted = _ml(params.alpha, params.alpha + params.beta, z)
        gap = abs(val - rgamma_real(params.beta) - z * shifted)
        if gap > 1e-9 * (1.0 + abs(val)):
            raise MLAccuracyError(
                f"recurrence check failed for (alpha={params.alpha}, "
                f"beta={params.beta}, z={z}): residual {gap:.3e}"
            )
    return val


def ml_kernel(order: FractionalOrder, lam: float, t: float, kind: str) -> complex:
    """Solver kernels built from E: ``state`` = E_{a,1}(pz),
    ``impulse`` = t^{a-1} E_{a,a}(pz), ``integral`` = t^a E_{a,a+1}(pz),
    with pz = phase_factor * lam * t^alpha.

    The impulse kind carries the raw t^{alpha-1} singularity; callers must
    not sample it at t = 0.
    """
    if t <= 0.0:
        raise MLDomainError(f"kernel time must be positive, got {t}")
    if lam < 0.0:
        raise MLDomainError(f"eigenvalue must be nonnegative, got {lam}")
    a = order.alpha
    z = order.phase_factor * (lam * t**a)
    if kind == "state":
        val = _ml(a, 1.0, z)
    elif kind == "impulse":
        val = t ** (a - 1.0) * _ml(a, a, z)
    elif kind == "integral":
        val = t**a * _ml(a, a + 1.0, z)
    else:
        raise MLDomainError(f"unknown kernel kind {kind!r}")
    if _PERTURB:
        val *= 1.0 + _PERTURB
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise MLOverflowError("kernel evaluation produced a non-finite value")
    return val


def kernel_grid(order: FractionalOrder, lam: float, times: np.ndarray,
                kind: str) -> np.ndarray:
    """One mode's ``state`` or ``integral`` kernel (see ``ml_kernel``) over a
    time array; integral entries at t = 0 are exactly 0."""
    if kind not in ("state", "integral"):
        raise MLDomainError(f"kernel grids are state or integral, got {kind!r}")
    out = np.zeros(len(times), dtype=np.complex128)
    for i, t in enumerate(times):
        if kind == "state" or t != 0.0:
            out[i] = ml_kernel(order, lam, float(t), kind)
    return out


def rotated_power_angle(alpha: float, theta: float) -> float:
    """arg(-i z^alpha) for arg z = theta, via the two-branch formula."""
    if theta > -0.5 * math.pi / alpha:
        return alpha * theta - 0.5 * math.pi
    return alpha * theta + 1.5 * math.pi


def sector_bounds(order: FractionalOrder, mu: float):
    """Argument range of the complex-time sector into which the homogeneous
    solution extends analytically."""
    a = order.alpha
    if not (0.5 * math.pi * a < mu < math.pi * a):
        raise MLDomainError(
            f"mu={mu:.6g} outside (pi*alpha/2, pi*alpha) for alpha={a}"
        )
    lo = max(-math.pi, (mu - 1.5 * math.pi) / a)
    hi = min(math.pi, (0.5 * math.pi - mu) / a)
    return lo, hi


def certify_c0(order: FractionalOrder, mu: float,
               lambda_grid=None, t_grid=None) -> float:
    """Empirical bound constant: max over the grid of
    |E_{a,1}(-i lam t^a)| (1 + lam t^a), evaluated with the standard phase.

    The true constant of the boundedness estimate is not computable in
    closed form; this certified grid maximum is configuration, not ground
    truth.
    """
    a = order.alpha
    if not (0.5 * math.pi * a < mu < math.pi * a):
        raise MLDomainError(
            f"mu={mu:.6g} outside (pi*alpha/2, pi*alpha) for alpha={a}"
        )
    if lambda_grid is None:
        lambda_grid = np.geomspace(1.0, 100.0, 25)
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 1e3, 25)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if lambda_grid.size == 0 or t_grid.size == 0:
        raise MLDomainError("certification grids must be non-empty")
    if np.any(lambda_grid < 0.0) or np.any(t_grid <= 0.0):
        raise MLDomainError("certification grids must be nonnegative/positive")
    best = 1.0
    for lam in lambda_grid:
        x = lam * t_grid**a
        for xi in x:
            val = abs(_ml(a, 1.0, complex(0.0, -xi)))
            best = max(best, val * (1.0 + xi))
    return best
