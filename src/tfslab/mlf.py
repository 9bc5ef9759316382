"""Two-parameter Mittag-Leffler function and the mode-evolution kernels.

The evaluator works on arrays of arguments and sends each point to one of
three regions of the complex plane: a
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
# the selftest battery can prove its own sensitivity; ml_eval stays unscaled
# as the battery's oracle.  Never set outside tests.
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
# region evaluators, each over a 1-D array of arguments (alpha <= 1).  Series
# weights are computed once per call and shared by every point; a point
# leaves a sum as soon as its own stopping rule fires, so each value depends
# on its own argument only.

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
    """Power series with cancellation guard: (values, trustworthy) per point."""
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
    """Algebraic expansion, stopped at its optimal truncation, plus the
    exponential branch where present."""
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
    """Laplace inversion on a parabolic contour with pole subtraction.

    The pole of s^alpha - z in the principal sheet (present iff
    |arg z| <= alpha*pi) is subtracted as a residue whenever it falls to the
    right of the contour; the contour scale mu is chosen so the pole stays
    well clear of the contour in the quadrature strip.  Each point keeps its
    own (mu, h, n) node set; the sets are laid end to end and summed with
    ``np.add.reduceat``."""
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
    """E_{alpha,beta} over a 1-D array of arguments: the series on the unit
    disk unless its guard trips, the asymptotic expansion from
    ASYMPTOTIC_RADIUS on, the contour in between."""
    if alpha > 1.0:
        # exact order reduction through the n-th roots of the argument
        n = math.ceil(alpha)
        root = np.zeros(z.shape, dtype=np.complex128)
        nonzero = z != 0
        root[nonzero] = np.exp(np.log(z[nonzero]) / n)
        turns = np.exp(2j * math.pi * np.arange(n) / n)
        parts = _ml_row(alpha / n, beta, (root[:, None] * turns).ravel())
        return parts.reshape(z.size, n).sum(axis=1) / n
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


def ml_eval(params: MLParams, z, *, z_max: float = Z_MAX_DEFAULT,
            verify: bool = True):
    """Evaluate E_{alpha,beta}(z) at a complex number (returns a complex) or
    over an array (returns an array of its shape).

    ``z_max`` caps the admissible modulus (raise it deliberately for
    long-horizon experiments).  With ``verify`` the value is cross-checked
    against the shift recurrence E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z);
    a violation raises ``MLAccuracyError`` instead of returning silently.
    Every element is checked.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.ravel()
    if not np.isfinite(flat).all():
        raise MLDomainError("argument must be finite")
    big = np.abs(flat) > z_max
    if big.any():
        raise MLDomainError(f"|z|={abs(flat[big][0]):.4g} beyond cap {z_max:.4g}")
    val = _ml_row(params.alpha, params.beta, flat)
    if not np.isfinite(val).all():
        raise MLOverflowError("evaluation produced a non-finite value")
    if verify:
        shifted = _ml_row(params.alpha, params.alpha + params.beta, flat)
        gap = np.abs(val - rgamma_real(params.beta) - flat * shifted)
        bad = np.flatnonzero(gap > 1e-9 * (1.0 + np.abs(val)))
        if bad.size:
            i = bad[0]
            raise MLAccuracyError(
                f"recurrence check failed for (alpha={params.alpha}, "
                f"beta={params.beta}, z={complex(flat[i])}): residual {gap[i]:.3e}"
            )
    return complex(val[0]) if z.ndim == 0 else val.reshape(z.shape)


def ml_kernel(order: FractionalOrder, lam: float, t: float, kind: str) -> complex:
    """Solver kernels built from E: ``state`` = E_{a,1}(pz),
    ``impulse`` = t^{a-1} E_{a,a}(pz), ``integral`` = t^a E_{a,a+1}(pz),
    with pz = phase_factor * lam * t^alpha; one point of ``kernel_grid``
    for the first and last.

    The impulse kind carries the raw t^{alpha-1} singularity; callers must
    not sample it at t = 0.
    """
    if t <= 0.0:
        raise MLDomainError(f"kernel time must be positive, got {t}")
    if kind != "impulse":
        return complex(kernel_grid(order, lam, np.array([t], dtype=float), kind)[0])
    if lam < 0.0:
        raise MLDomainError(f"eigenvalue must be nonnegative, got {lam}")
    a = order.alpha
    z = np.array([order.phase_factor * (lam * t**a)])
    val = t ** (a - 1.0) * complex(_ml_row(a, a, z)[0])
    if _PERTURB:
        val *= 1.0 + _PERTURB
    if not cmath.isfinite(val):
        raise MLOverflowError("kernel evaluation produced a non-finite value")
    return val


def kernel_grid(order: FractionalOrder, lam: float, times: np.ndarray,
                kind: str) -> np.ndarray:
    """One mode's ``state`` or ``integral`` kernel (see ``ml_kernel``) over a
    time array; integral entries at t = 0 are exactly 0."""
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
    x = (lambda_grid[:, None] * t_grid**a).ravel()
    val = np.abs(_ml_row(a, 1.0, -1j * x))
    return max(1.0, float(np.max(val * (1.0 + x))))
