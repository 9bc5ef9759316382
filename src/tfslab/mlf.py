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

# Test hook: multiplies every ml_kernel and kernel_grid value by (1 + eps) so
# the selftest battery can prove its own sensitivity.  Never set outside tests.
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
# row evaluators: the same regions and per-point rules as above, applied to
# an array of arguments at once (alpha <= 1).  Series weights are computed
# once per call and shared by every point; a point leaves a sum as soon as
# its own stopping rule fires.

_CONTOUR_BLOCK = 4096  # contour nodes per numpy pass; bounds the temporaries


def _exp_branch(alpha: float, beta: float, z: np.ndarray, logz: np.ndarray,
                s0: np.ndarray) -> np.ndarray:
    """exp(((1-beta)/alpha) log z + s0)/alpha, the contribution of the pole
    s0 = z^{1/alpha}; raises where it overflows, 0 where it underflows."""
    big = s0.real > _EXP_ARG_MAX
    if big.any():
        raise MLOverflowError(
            f"E_{{{alpha},{beta}}} at |z|={abs(z[big][0]):.3g} exceeds double range"
        )
    out = np.zeros(z.shape, dtype=np.complex128)
    live = s0.real > -745.0
    out[live] = np.exp(((1.0 - beta) / alpha) * logz[live] + s0[live]) / alpha
    return out


def _taylor_row(alpha: float, beta: float, z: np.ndarray):
    """Row form of ``_taylor``: (values, trustworthy) per point."""
    total = np.full(z.shape, complex(rgamma_real(beta)))
    ok = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    zl, acc = z, total.copy()
    power = np.ones_like(z)
    peak = np.abs(acc)
    streak = np.zeros(z.shape, dtype=int)
    for k in range(1, int(200 + 24.0 / alpha) + 1):
        power = power * zl
        contrib = power * rgamma_real(alpha * k + beta)
        acc = acc + contrib
        mag = np.abs(contrib)
        peak = np.maximum(peak, mag)
        if alpha * k + beta > 2.0:
            streak = np.where(mag < 1e-18 * (peak + 1e-300), streak + 1, 0)
        else:
            streak[:] = 0
        done = streak >= 3
        if done.any():
            # cancellation estimate: roundoff floor is eps * largest summand
            total[live[done]] = acc[done]
            ok[live[done]] = peak[done] * 2.3e-16 <= 1e-11 * (np.abs(acc[done]) + 1e-300)
            keep = ~done
            live, zl, power, acc, peak, streak = (
                live[keep], zl[keep], power[keep], acc[keep], peak[keep], streak[keep])
            if live.size == 0:
                break
    total[live] = acc  # not converged: left untrusted
    return total, ok


def _asymptotic_row(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Row form of ``_asymptotic``, with its optimal-truncation stop."""
    val = np.zeros(z.shape, dtype=np.complex128)
    branch = np.abs(np.angle(z)) <= alpha * math.pi + 1e-14
    if branch.any():
        logz = np.log(z[branch])
        val[branch] = _exp_branch(alpha, beta, z[branch], logz, np.exp(logz / alpha))
    out = val.copy()
    live = np.arange(z.size)
    inv, vl = 1.0 / z, val
    power = np.ones_like(z)
    acc = np.zeros_like(z)
    prev = np.full(z.shape, math.inf)
    for k in range(1, 200):
        x = beta - alpha * k
        if 1.0 - x > 171.0:
            break
        power = power * inv
        rg = rgamma_real(x)
        if rg == 0.0:
            continue  # reciprocal-Gamma pole: the term is exactly absent
        term = power * rg
        mag = np.abs(term)
        truncate = mag > prev  # optimal truncation reached: term not added
        acc = np.where(truncate, acc, acc + term)
        prev = np.where(truncate, prev, mag)
        done = truncate | (mag < 1e-17 * (np.abs(vl - acc) + 1e-300))
        if done.any():
            out[live[done]] = vl[done] - acc[done]
            keep = ~done
            live, inv, vl, power, acc, prev = (
                live[keep], inv[keep], vl[keep], power[keep], acc[keep], prev[keep])
            if live.size == 0:
                break
    out[live] = vl - acc
    return out


def _contour_row(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Row form of ``_contour``: each point keeps its own (mu, h, n) node
    set; the sets are laid end to end and summed with ``np.add.reduceat``."""
    theta = np.angle(z)
    pole = np.abs(theta) <= alpha * math.pi
    mu = np.full(z.shape, 2.0)
    strip = np.ones(z.shape)
    out = np.zeros(z.shape, dtype=np.complex128)  # residues, then integrals
    if pole.any():
        logz = np.log(z[pole])
        s0 = np.exp(logz / alpha)
        half = np.cos(theta[pole] / (2.0 * alpha))  # cos(arg(s0)/2) >= 0
        a = np.abs(s0) * half * half
        far = a >= 0.72
        mu[pole] = np.where(far, np.clip(0.25 * a, 0.18, 5.0), 2.0)
        if far.any():
            at = np.flatnonzero(pole)[far]
            out[at] = _exp_branch(alpha, beta, z[at], logz[far], s0[far])
        w = np.sqrt(s0 / mu[pole])
        strip[pole] = np.minimum(1.0, np.abs(w.real - 1.0))
    strip *= 0.9
    # truncation: e^{mu(1-U^2)} (mu(1+U^2))^{max(0, alpha-beta)} <= target
    u_max = np.sqrt(1.0 + _LOG_TARGET / mu)
    grow = max(0.0, alpha - beta)
    if grow > 0.0:
        extra = grow * np.log(mu * (1.0 + u_max * u_max) + 2.0)
        u_max = np.sqrt(1.0 + (_LOG_TARGET + extra) / mu)
    h = 2.0 * math.pi * strip / _LOG_TARGET
    n = np.ceil(u_max / h).astype(int)
    counts = 2 * n + 1
    ends = np.cumsum(counts)
    lo = 0
    while lo < z.size:
        # at least one point per block, however many nodes it has
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _CONTOUR_BLOCK,
                                             side="right")))
        c = counts[lo:hi]
        starts = np.concatenate(([0], np.cumsum(c)[:-1]))
        owner = np.repeat(np.arange(hi - lo), c)
        k = np.arange(int(c.sum())) - np.repeat(starts, c) - np.repeat(n[lo:hi], c)
        iu1 = 1.0 + 1j * (np.repeat(h[lo:hi], c) * k)
        s = np.repeat(mu[lo:hi], c) * iu1 * iu1
        log_s = np.log(s)  # one log serves both powers of s
        vals = (np.exp(s + (alpha - beta) * log_s) * iu1
                / (np.exp(alpha * log_s) - z[lo:hi][owner]))
        out[lo:hi] += (h[lo:hi] * mu[lo:hi] / math.pi) * np.add.reduceat(vals, starts)
        lo = hi
    return out


def _ml_row(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} over an array of arguments, alpha <= 1 (see ``_ml``)."""
    out = np.empty(z.shape, dtype=np.complex128)
    az = np.abs(z)
    series = az <= SERIES_RADIUS
    far = az >= ASYMPTOTIC_RADIUS
    contour = ~(series | far)
    if series.any():
        val, ok = _taylor_row(alpha, beta, z[series])
        out[series] = val
        contour[np.flatnonzero(series)[~ok]] = True  # guard tripped
    if far.any():
        out[far] = _asymptotic_row(alpha, beta, z[far])
    if contour.any():
        out[contour] = _contour_row(alpha, beta, z[contour])
    return out


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
    time array; integral entries at t = 0 are exactly 0.

    The row is evaluated as arrays, so values agree with ``ml_kernel`` to
    rounding, not bit for bit."""
    if kind not in ("state", "integral"):
        raise MLDomainError(f"kernel grids are state or integral, got {kind!r}")
    if lam < 0.0:
        raise MLDomainError(f"eigenvalue must be nonnegative, got {lam}")
    times = np.asarray(times, dtype=float)
    bad = times <= 0.0 if kind == "state" else times < 0.0
    if bad.any():
        raise MLDomainError(f"kernel time must be positive, got {times[bad][0]}")
    a = order.alpha
    out = np.zeros(times.shape, dtype=np.complex128)
    at = times != 0.0
    ta = times[at] ** a
    z = order.phase_factor * (lam * ta)
    if kind == "state":
        out[at] = _ml_row(a, 1.0, z)
    else:
        out[at] = ta * _ml_row(a, a + 1.0, z)
    if _PERTURB:
        out *= 1.0 + _PERTURB
    if not np.isfinite(out).all():
        raise MLOverflowError("kernel evaluation produced a non-finite value")
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
    standard = FractionalOrder(a)
    best = 1.0
    for lam in lambda_grid:
        val = np.abs(kernel_grid(standard, lam, t_grid, "state"))
        best = max(best, float(np.max(val * (1.0 + lam * t_grid**a))))
    return best
