"""Two-parameter Mittag-Leffler function and the mode-evolution kernels.

The evaluator works on arrays of arguments and sends each point to one of
two regions of the complex plane: numerical inversion of the Laplace
transform on parabolic contours inside |z| = 50, and the algebraic
asymptotic expansion from there on.  The contour points of a row share a
few node sets per (alpha, beta) (Weideman & Trefethen, Math. Comp. 76
(2007); Garrappa, SIAM J. Numer. Anal. 53 (2015)): one for the closed unit
disk, whose contour encloses every pole of that disk, and one per rung of
a fixed ladder of contour scales and quadrature strips outside it.  Each
value is one row of a Cauchy product sum_k w_k / (s_k^alpha - z).  The
expansion is summed 16 terms per pass.  Orders above 1 are reduced through
the exact root-splitting identity

    E_{a,b}(z) = (1/n) sum_h E_{a/n,b}(z^{1/n} exp(2 pi i h / n)).

All values are finite complex numbers or an exception; NaN/inf is never
returned.
"""

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MLAccuracyError, MLDomainError, MLOverflowError

ASYMPTOTIC_RADIUS = 50.0
Z_MAX_DEFAULT = 1.0e4

_EXP_ARG_MAX = 700.0
_TARGET = 1.0e-15
_LOG_TARGET = math.log(1.0 / _TARGET) + 4.0  # margin on top of the tolerance


def rgamma_real(x: float) -> float:
    """1/Gamma(x) for real x: exactly 0.0 at the poles (non-positive
    integers), and from log space where Gamma overflows (x > 171.624...),
    where 1/Gamma is subnormal or underflows to 0.0.  Below -170 Gamma(x)
    underflows to a subnormal or to 0, so 1/Gamma(x) leaves double range
    and ``MLOverflowError`` is raised."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return math.exp(-math.lgamma(x))
    if abs(g) < sys.float_info.min:
        raise MLOverflowError(f"1/Gamma({x}) exceeds double range")
    return 1.0 / g


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


# ---------------------------------------------------------------------------
# region evaluators, each over a 1-D array of arguments (alpha <= 1).
# Expansion weights and contour node sets depend on (alpha, beta) only and
# are shared by every point; a point leaves a sum as soon as its own
# stopping rule fires, so each value depends on its own argument only.

_CONTOUR_BLOCK = 16384  # points x nodes per numpy pass; bounds the temporaries
# contour scale mu of a point with a far pole: the largest rung <= a/4.
# The rungs 0.18 * 2^k stop below 5: the contour sum cancels terms of size
# e^mu, and a rung at 5 raised the worst standard-ray error of a 1,400-point
# mpmath sweep (1 < |z| < 50) from 1.4e-14 to 3.4e-13.
_FAR_MU = tuple(0.18 * 2.0**k for k in range(5))
# quadrature strip of a point with a near pole or none: its pole clearance
# rounded down onto this ladder, at mu = 2
_NEAR_STRIP = (0.4, 0.7, 1.0)
# (mu, strip) of every node set outside the unit disk: the far rungs
# first, then mu = 2
_NODE_SETS = tuple((mu, 1.0) for mu in _FAR_MU) + tuple((2.0, s) for s in _NEAR_STRIP)
# quadrature strip of the unit disk's node set, whose scale is
# mu = max(_FAR_MU[-1], beta - alpha): the floor beta - alpha puts the
# parabola near the saddle of e^s s^{alpha - beta}, where mu = 2 lost
# 4e-7 relative at beta = 5
_DISK_STRIP = 0.4
_ASYMPTOTIC_CHUNK = 16  # expansion terms per numpy pass
# points per asymptotic block: 16,384 points x terms per pass, as the contour
_ASYMPTOTIC_BLOCK = _CONTOUR_BLOCK // _ASYMPTOTIC_CHUNK
_ASYMPTOTIC_TERMS = 199  # the expansion ends here at the latest


def _frozen(*arrays):
    """The arrays, read-only: cached node sets and weights are shared."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _exp_branch(alpha: float, beta: float, z: np.ndarray, logz: np.ndarray,
                s0: np.ndarray) -> np.ndarray:
    """exp(((1-beta)/alpha) log z + s0)/alpha, the contribution of the pole
    s0 = z^{1/alpha}; raises where it overflows, 0 where it underflows."""
    big = s0.real > _EXP_ARG_MAX
    if big.any():
        raise MLOverflowError(
            f"E_{{{alpha},{beta}}} at |z|={abs(z[big][0]):.3g} exceeds double range"
        )
    live = s0.real > -745.0
    if live.all():
        return np.exp(((1.0 - beta) / alpha) * logz + s0) / alpha
    out = np.zeros(z.shape, dtype=np.complex128)
    out[live] = _exp_branch(alpha, beta, z[live], logz[live], s0[live])
    return out


@functools.lru_cache(maxsize=16)
def _asymptotic_weights(alpha: float, beta: float, chunk: int):
    """Weights 1/Gamma(beta - alpha k) of the expansion terms z^{-k} in
    ``chunk`` (k = 16 chunk + 1, ..., 16 chunk + 16), and their envelope:
    the weight without the factor sin(pi x) of 1/Gamma(x) = sin(pi x)
    Gamma(1 - x)/pi wherever x = beta - alpha k < 1/2.  The chunk ends
    early where Gamma(1 - x) would leave double range."""
    rg, env = [], []
    for k in range(chunk * _ASYMPTOTIC_CHUNK + 1,
                   min((chunk + 1) * _ASYMPTOTIC_CHUNK, _ASYMPTOTIC_TERMS) + 1):
        x = beta - alpha * k
        if 1.0 - x > 171.0:
            break
        rg.append(rgamma_real(x))
        env.append(math.gamma(1.0 - x) / math.pi if x < 0.5 else abs(rg[-1]))
    return _frozen(np.array(rg), np.array(env))


def _asymptotic_row(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """The asymptotic expansion over a row, in blocks of at most
    ``_ASYMPTOTIC_BLOCK`` points, which bounds the passes' temporaries."""
    if z.size <= _ASYMPTOTIC_BLOCK:
        return _asymptotic_block(alpha, beta, z)
    out = np.empty(z.shape, dtype=np.complex128)
    for lo in range(0, z.size, _ASYMPTOTIC_BLOCK):
        out[lo:lo + _ASYMPTOTIC_BLOCK] = _asymptotic_block(
            alpha, beta, z[lo:lo + _ASYMPTOTIC_BLOCK])
    return out


def _asymptotic_block(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Algebraic expansion E(z) ~ -sum_k z^{-k}/Gamma(beta - alpha k), plus
    the exponential branch where present, summed 16 terms per pass.

    The sum stops before the first term whose envelope
    |z|^{-k}/|Gamma(beta - alpha k)|, with the sine factor of 1/Gamma left
    out (see ``_asymptotic_weights``), exceeds the envelope of the term
    before it, which is then the running minimum (optimal truncation); or
    after the first term whose envelope falls below 1e-17 of the value.  A
    weight near a zero of 1/Gamma makes its term tiny but leaves the
    envelope smooth, so it ends no sum early."""
    val = np.zeros(z.shape, dtype=np.complex128)  # the exponential branch
    branch = np.abs(np.angle(z)) <= alpha * math.pi + 1e-14
    branched = branch.any()
    if branched:
        logz = np.log(z[branch])
        val[branch] = _exp_branch(alpha, beta, z[branch], logz, np.exp(logz / alpha))
    # out shares val's memory: a point is written once, as it leaves vl
    out, live, inv, vl = val, np.arange(z.size), 1.0 / z, val
    acc = np.zeros_like(z)  # the sum so far
    prev = math.inf  # envelope of the last term
    chunk = 0
    while True:
        rg, env = _asymptotic_weights(alpha, beta, chunk)
        if rg.size == 0:
            break
        if chunk:
            p = np.empty((live.size, rg.size), dtype=np.complex128)
            p[:] = inv[:, None]
            p[:, 0] *= power
            np.cumprod(p, axis=1, out=p)  # z^{-k}
        else:
            p = np.cumprod(np.broadcast_to(inv[:, None], (z.size, rg.size)), axis=1)
        bound = np.abs(p) * env
        truncate = np.empty(bound.shape, dtype=bool)  # the term is not added
        np.greater(bound[:, 0], prev, out=truncate[:, 0])
        np.greater(bound[:, 1:], bound[:, :-1], out=truncate[:, 1:])
        sums = p * rg
        sums[:, 0] += acc
        np.cumsum(sums, axis=1, out=sums)
        stop = truncate | (bound < 1e-17 * np.abs(vl[:, None] - sums if branched else sums))
        hit = np.logical_or.reduce(stop, axis=1)
        if chunk == 0 and hit.all():  # the usual row: no sum needs a second pass
            last = stop.argmax(axis=1)  # no first term is left out
            return vl - sums[live, last - truncate[live, last]]
        rows = np.flatnonzero(hit)
        if rows.size:
            last = stop[rows].argmax(axis=1)
            last -= truncate[rows, last]  # last term added, -1 for none
            total = np.where(last >= 0, sums[rows, np.maximum(last, 0)], acc[rows])
            out[live[rows]] = vl[rows] - total
            if rows.size == live.size:
                return out
            keep = ~hit
            live, inv, vl = live[keep], inv[keep], vl[keep]
            p, bound, sums = p[keep], bound[keep], sums[keep]
        power, acc, prev = p[:, -1], sums[:, -1], bound[:, -1]
        chunk += 1
    out[live] = vl - acc
    return out


@functools.lru_cache(maxsize=16)
def _contour_nodes(alpha: float, beta: float, mu: float, strip: float):
    """Trapezoid nodes on the parabola s(u) = mu (1 + iu)^2 for a pole
    clearance ``strip``: (s_k^alpha, w_k) with
    w_k = (h mu / pi) e^{s_k} s_k^{alpha - beta} (1 + i u_k), so that the
    integral part of E_{alpha,beta}(z) is sum_k w_k / (s_k^alpha - z)."""
    # truncation: e^{mu(1-U^2)} (mu(1+U^2))^{max(0, alpha-beta)} <= target
    u_max = math.sqrt(1.0 + _LOG_TARGET / mu)
    grow = max(0.0, alpha - beta)
    if grow > 0.0:
        extra = grow * math.log(mu * (1.0 + u_max * u_max) + 2.0)
        u_max = math.sqrt(1.0 + (_LOG_TARGET + extra) / mu)
    h = 2.0 * math.pi * (0.9 * strip) / _LOG_TARGET
    iu1, s, log_s = _parabola(mu, h, math.ceil(u_max / h))
    w = (h * mu / math.pi) * np.exp(s + (alpha - beta) * log_s) * iu1
    return _frozen(np.exp(alpha * log_s), w)


@functools.lru_cache(maxsize=16)
def _parabola(mu: float, h: float, n: int):
    """The order-free part of a node set: 1 + iu_k, s_k = mu (1 + iu_k)^2
    and log s_k at u_k = h k, |k| <= n."""
    iu1 = 1.0 + 1j * (h * np.arange(-n, n + 1))
    s = mu * iu1 * iu1
    return _frozen(iu1, s, np.log(s))  # one log serves both powers of s


def _contour_row(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Laplace inversion on parabolic contours with pole subtraction.

    Every point of the closed unit disk takes one node set, the parabola
    with mu = max(_FAR_MU[-1], beta - alpha) and strip ``_DISK_STRIP``.  A
    disk point's pole s0 = z^{1/alpha}, where present, has |s0| <= 1, so it
    lies inside that parabola, clear of it by
    1 - sqrt(|s0|/mu) >= 1 - sqrt(1/2.88) = 0.41: the integral covers it and
    the point needs no residue.

    Outside the disk the pole in the principal sheet (present iff
    |arg z| <= alpha*pi) lies at distance a = |s0| cos^2(arg(s0)/2) along
    the real axis of the parabola's parameter plane.  A far pole
    (a >= 0.72) is subtracted as a residue and the point takes the largest
    mu <= a/4 of ``_FAR_MU``: the pole then clears the contour by
    sqrt(a/mu) - 1 >= 1, the full quadrature strip.  A near pole, or none,
    takes mu = 2 and its clearance rounded down onto ``_NEAR_STRIP``.

    So a row uses at most nine node sets per (alpha, beta); each is built
    once (``_contour_nodes``), and each point's value is one row of the
    Cauchy product sum_k w_k / (s_k^alpha - z), in blocks of at most
    ``_CONTOUR_BLOCK`` points x nodes."""
    sets = _NODE_SETS + ((max(_FAR_MU[-1], beta - alpha), _DISK_STRIP),)
    disk = np.abs(z) <= 1.0
    which = np.where(disk, len(_NODE_SETS), len(_NODE_SETS) - 1)  # into sets
    out = np.zeros(z.shape, dtype=np.complex128)  # residues, then integrals
    pole = ~disk  # the principal sheet has a pole iff |arg z| <= alpha pi
    if pole.any():
        theta = np.angle(z)
        pole &= np.abs(theta) <= alpha * math.pi
    if pole.any():
        at = np.flatnonzero(pole)
        logz = np.log(z[at])
        s0 = np.exp(logz / alpha)
        half = np.cos(theta[at] / (2.0 * alpha))  # cos(arg(s0)/2) >= 0
        a = np.abs(s0) * half * half
        far = a >= 0.72
        if far.any():
            out[at[far]] = _exp_branch(alpha, beta, z[at[far]], logz[far], s0[far])
            which[at[far]] = np.searchsorted(_FAR_MU, 0.25 * a[far], side="right") - 1
        if not far.all():
            clear = np.abs(np.sqrt(s0[~far] / 2.0).real - 1.0)  # > 0.4 for a < 0.72
            rung = np.searchsorted(_NEAR_STRIP, clear, side="right") - 1
            which[at[~far]] = len(_FAR_MU) + np.maximum(rung, 0)
    by_set = np.argsort(which, kind="stable")  # the points of each set, in order
    zs, vals = z[by_set], np.empty(z.shape, dtype=np.complex128)
    end = 0
    for j, count in enumerate(np.bincount(which, minlength=len(sets)).tolist()):
        if not count:
            continue
        sa, w = _contour_nodes(alpha, beta, *sets[j])
        step = max(1, _CONTOUR_BLOCK // sa.size)
        for lo in range(end, end + count, step):
            hi = min(lo + step, end + count)
            d = sa - zs[lo:hi, None]
            np.divide(w, d, out=d)
            d.sum(axis=1, out=vals[lo:hi])
        end += count
    out[by_set] += vals
    return out


def _ml_row(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} over a 1-D array of arguments: the asymptotic
    expansion from ASYMPTOTIC_RADIUS on, the contour inside it."""
    if alpha > 1.0:
        # exact order reduction through the n-th roots of the argument
        n = math.ceil(alpha)
        root = np.zeros(z.shape, dtype=np.complex128)
        nonzero = z != 0
        root[nonzero] = np.exp(np.log(z[nonzero]) / n)
        turns = np.exp(2j * math.pi * np.arange(n) / n)
        parts = _ml_row(alpha / n, beta, (root[:, None] * turns).ravel())
        return parts.reshape(z.size, n).sum(axis=1) / n
    far = np.abs(z) >= ASYMPTOTIC_RADIUS
    if far.all():
        return _asymptotic_row(alpha, beta, z)
    if not far.any():
        return _contour_row(alpha, beta, z)
    out = np.empty(z.shape, dtype=np.complex128)
    out[far] = _asymptotic_row(alpha, beta, z[far])
    out[~far] = _contour_row(alpha, beta, z[~far])
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


def kernel_grid(order: FractionalOrder, lam, times: np.ndarray,
                kind: str) -> np.ndarray:
    """Solver kernels over a time array, one row per eigenvalue: ``state`` =
    E_{a,1}(pz) and ``integral`` = t^a E_{a,a+1}(pz), with pz =
    phase_factor * lam * t^alpha; integral entries at t = 0 are exactly 0.
    ``lam`` is one eigenvalue (the result has the shape of ``times``) or an
    array of them (the result has the shape of ``lam`` followed by that of
    ``times``).  All rows are evaluated as one row.  Each argument is the
    same product lam * t^alpha as in a one-eigenvalue call, so the rows
    equal the stacked one-eigenvalue calls bit for bit, up to the one-ulp
    exception in the README's note on rows and points."""
    if kind not in ("state", "integral"):
        raise MLDomainError(f"kernel grids are state or integral, got {kind!r}")
    lam = np.asarray(lam, dtype=float)
    neg = lam < 0.0
    if neg.any():
        raise MLDomainError(f"eigenvalue must be nonnegative, got {lam[neg][0]}")
    times = np.asarray(times, dtype=float)
    bad = times <= 0.0 if kind == "state" else times < 0.0
    if bad.any():
        raise MLDomainError(f"kernel time must be positive, got {times[bad][0]}")
    a, lams, flat = order.alpha, lam.reshape(-1, 1), times.ravel()
    if kind == "state":  # every time is positive
        out = _ml_row(a, 1.0, order.phase_factor * (lams * flat**a).ravel())
    else:
        out = np.zeros((lam.size, flat.size), dtype=np.complex128)
        at = flat != 0.0
        ta = flat[at] ** a
        row = _ml_row(a, a + 1.0, order.phase_factor * (lams * ta).ravel())
        out[:, at] = ta * row.reshape(lam.size, ta.size)
    if not np.isfinite(out).all():
        raise MLOverflowError("kernel evaluation produced a non-finite value")
    return out.reshape(lam.shape + times.shape)


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
    sector_bounds(order, mu)  # checks the range of mu
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
    a = order.alpha
    x = (lambda_grid[:, None] * t_grid**a).ravel()
    val = np.abs(_ml_row(a, 1.0, -1j * x))
    return max(1.0, float(np.max(val * (1.0 + x))))
