"""Two-parameter Mittag-Leffler function and the mode-evolution kernels.

The evaluator works on arrays of arguments and sends each point to one of
two regions of the complex plane: numerical inversion of the Laplace
transform on parabolic contours inside |z| = 50, and the algebraic
asymptotic expansion from there on.  The contour points of a row share a
few node sets per (alpha, beta) (Weideman & Trefethen, Math. Comp. 76
(2007); Garrappa, SIAM J. Numer. Anal. 53 (2015)): one for the closed unit
disk, whose contour encloses every pole of that disk, and one per rung of
a fixed ladder of contour scales and quadrature strips outside it.  Each
value is one row of a Cauchy product sum_k w_k / (s_k^alpha - z).  Each
point takes the expansion terms its own envelope allows, summed in one
Horner pass.  Orders above 1, up to ``ALPHA_MAX`` = 2, are reduced through
the exact root-splitting identity

    E_{a,b}(z) = (1/n) sum_h E_{a/n,b}(z^{1/n} exp(2 pi i h / n)).

A row may also give each point its own (alpha, beta): each point is
classified and reduced at its own order, the contour points are grouped by
(alpha, beta, node set) and the expansion is summed once per (alpha, beta),
so every value equals its one-point call bit for bit.  A row with one
(alpha, beta) passes numbers and keeps a single sort on the node set.

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
# the largest order: the reduction takes ceil(alpha) roots of each argument
ALPHA_MAX = 2.0
# the phase conventions of a FractionalOrder
PHASES = ("standard_i", "power_i_alpha")

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
    """Parameters (alpha, beta) of E_{alpha,beta}: numbers, or arrays of the
    argument's shape that give each point its own order (``ml_eval``
    checks the shape).  An array is kept as a read-only float copy, and
    every element is checked."""

    alpha: float
    beta: float

    def __post_init__(self):
        if np.ndim(self.alpha) == 0 and np.ndim(self.beta) == 0:
            if not 0.0 < self.alpha <= ALPHA_MAX:
                raise MLDomainError(f"alpha must lie in (0, {ALPHA_MAX}], got {self.alpha}")
            if not math.isfinite(self.beta):
                raise MLDomainError(f"beta must be finite, got {self.beta}")
            return
        for name in ("alpha", "beta"):
            value = np.array(getattr(self, name), dtype=float)
            ok = (value > 0.0) & (value <= ALPHA_MAX) if name == "alpha" else np.isfinite(value)
            bad = np.flatnonzero(~ok)
            if bad.size:
                where = tuple(int(i) for i in np.unravel_index(bad[0], value.shape))
                want = f"lie in (0, {ALPHA_MAX}]" if name == "alpha" else "be finite"
                raise MLDomainError(
                    f"{name} must {want}, got {value.flat[bad[0]]} at index {where}")
            _frozen(value)
            object.__setattr__(self, name, value if value.ndim else float(value))


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional order of the evolution plus the phase convention.

    ``standard_i`` multiplies the time derivative by i, giving the kernel
    argument phase -pi/2; ``power_i_alpha`` uses the i^alpha convention,
    phase -pi*alpha/2.  The order lies strictly inside (0, 1); the
    classical limit is approached, not reached (the classical-limit
    criterion runs at alpha = 0.999).
    """

    alpha: float
    phase: str = "standard_i"

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise MLDomainError(f"order alpha must lie in (0, 1), got {self.alpha}")
        if self.phase not in PHASES:
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


# ---------------------------------------------------------------------------
# region evaluators, each over a 1-D array of arguments (alpha <= 1).
# alpha and beta are numbers, or arrays of the arguments' size with one order
# per point.  Expansion weights and contour node sets depend on (alpha, beta)
# only and are shared by the points of that order, and each value depends on
# its own argument and order only.

_BLOCK = 4096  # points x nodes or terms per pass: 64 KB, below glibc's 128 KB mmap threshold
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
_ASYMPTOTIC_CHUNK = 16  # expansion terms first tested per point
_ASYMPTOTIC_TERMS = 199  # the expansion ends here at the latest
# log(2^-52 / 1e-17): a sum cut short by Gamma's overflow stands where the
# term it leaves out is below 2^-52 of the first, 22 times its floor
_CUT_TAIL = math.log(2.0**-52 / 1e-17)


def _frozen(*arrays):
    """The arrays, read-only: cached node sets and weights are shared."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _part(order, at):
    """The orders of the points ``at``: a number serves every point."""
    return order[at] if isinstance(order, np.ndarray) else order


def _runs(*keys):
    """The stable permutation that sorts the points by ``keys`` (the last
    one primary), and its runs of equal keys as (start, stop, *keys)."""
    by_key = np.lexsort(keys)
    ordered = [key[by_key] for key in keys]
    edge = np.zeros(by_key.size + 1, dtype=bool)
    edge[[0, -1]] = True
    for key in ordered:
        edge[1:-1] |= key[1:] != key[:-1]
    bounds = np.flatnonzero(edge).tolist()
    firsts = [key[bounds[:-1]].tolist() for key in ordered]
    return by_key, list(zip(bounds[:-1], bounds[1:], *firsts))


def _exp_branch(alpha, beta, z: np.ndarray, logz: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """exp(((1-beta)/alpha) log z + s0)/alpha, the contribution of the pole
    s0 = z^{1/alpha}; raises where s0 overflows, 0 where the whole exponent
    underflows (an underflowing e^{s0} counts only where the power of z does
    not lift it back).  A large |beta| can still overflow the exponent: the
    callers ignore that overflow and check the value."""
    big = s0.real > _EXP_ARG_MAX
    if big.any():
        i = np.flatnonzero(big)[0]
        raise MLOverflowError(f"E_{{{_part(alpha, i)},{_part(beta, i)}}} at |z|={abs(z[i]):.3g}"
                              " exceeds double range")
    live = s0.real > -745.0
    if not live.all():
        live |= ((1.0 - beta) / alpha) * logz.real + s0.real > -745.0
        if not live.all():
            out = np.zeros(z.shape, dtype=np.complex128)
            out[live] = _exp_branch(_part(alpha, live), _part(beta, live), z[live], logz[live],
                                    s0[live])
            return out
    return np.exp(((1.0 - beta) / alpha) * logz + s0) / alpha


@functools.lru_cache(maxsize=16)
def _asymptotic_weights(alpha: float, beta: float, terms: int, direction=1.0):
    """Up to ``terms`` expansion terms k <= _ASYMPTOTIC_TERMS, x = beta - alpha k,
    ending where Gamma(1 - x) would overflow: weights -direction^{-k}/Gamma(x)
    of |z|^{-k} on the ray through ``direction``; the log of their envelope,
    |1/Gamma(x)| without the factor |sin(pi x)| of sin(pi x) Gamma(1 - x)/pi
    where x < 1/2; and the running maximum of its steps up to term k.  An
    end before the first nonzero weight raises ``MLOverflowError`` instead
    of summing no term: that weight's envelope Gamma(1 - x)/pi is then
    above 2e306.  Only integer alpha and beta, whose weights are all zero,
    end there quietly."""
    weights, env, rise = [], [], [-math.inf]
    for k in range(1, min(terms, _ASYMPTOTIC_TERMS) + 1):
        x = beta - alpha * k
        if 1.0 - x > 171.0:
            if not (any(weights) or float(alpha).is_integer() and float(beta).is_integer()):
                raise MLOverflowError(f"E_{{{alpha},{beta}}}: the expansion's first weight,"
                                      " 1/Gamma(x) at x < -170, is out of range")
            break
        rg = rgamma_real(x)
        weights.append(-rg / direction**k)
        e = math.gamma(1.0 - x) / math.pi if x < 0.5 else abs(rg)
        env.append(math.log(e) if e else -math.inf)
        if k > 1:  # a step from -inf to -inf is nan, which max passes over
            rise.append(max(rise[-1], env[-1] - env[-2]))
    return (tuple(weights),) + _frozen(np.array(env), np.array(rise[:len(env)]))


def _term_counts(alpha: float, beta: float, ell: np.ndarray, floor: np.ndarray,
                 direction, terms: int = _ASYMPTOTIC_CHUNK):
    """Number of expansion terms of each point at log|z| = ell, and a number
    of weights that covers them: up to the first term whose envelope
    |z|^{-k} env_k exceeds the one before it (optimal truncation), or to
    the first whose envelope is below exp(floor); a weight near a zero of
    1/Gamma ends no sum early.  Tested in log space, in blocks of at most
    ``_BLOCK`` points x terms, and with twice the terms where needed; the
    envelopes are those cached with the weights on the ray of ``direction``.
    Where the weights end before ``terms`` because Gamma(1 - x) would
    overflow, a point that reaches the last of them without passing its
    floor or its first rise raises ``MLOverflowError`` unless the envelope
    of the first term left out, from ``math.lgamma``, is below 2^-52 of the
    first term (``_CUT_TAIL`` above the floor); integer alpha and beta,
    whose weights there are all zero, never raise."""
    _, env, rise = _asymptotic_weights(alpha, beta, terms, direction)
    m = env.size
    fall = np.searchsorted(rise, ell, side="right")  # terms before the first rise
    small = np.empty(ell.size, dtype=np.intp)  # the first term below the floor
    step = _BLOCK // max(m, 1)
    for lo in range(0, ell.size, step):
        bound = np.multiply.outer(ell[lo:lo + step], np.arange(1.0, m + 1.0))
        bound += floor[lo:lo + step, None]  # a log envelope below this is below the floor
        below = np.zeros((bound.shape[0], m + 2), dtype=bool)
        below[:, m + 1] = True  # none below: m + 1
        np.less(env, bound, out=below[:, 1:m + 1])
        below.argmax(axis=1, out=small[lo:lo + step])
    count = np.minimum(fall, small)
    if (m < min(terms, _ASYMPTOTIC_TERMS)
            and not (float(alpha).is_integer() and float(beta).is_integer())):
        x = beta - alpha * (m + 1)  # the first term left out, 1 - x > 171
        left_out = math.lgamma(1.0 - x) - math.log(math.pi) - (m + 1) * ell
        if ((small > m) & (fall == m) & (left_out > floor + _CUT_TAIL)).any():
            raise MLOverflowError(f"E_{{{alpha},{beta}}}: the expansion ends where 1/Gamma(x)"
                                  " at x < -170 is out of range, before its sum converges")
    more = np.flatnonzero((small > m) & (fall == m)) if m == terms else ()
    if len(more):  # the weights may go on
        count[more], terms = _term_counts(alpha, beta, ell[more], floor[more], direction,
                                          2 * terms)
    return count, terms


def _asymptotic_row(alpha: float, beta: float, z: np.ndarray, rho: np.ndarray,
                    direction=None) -> np.ndarray:
    """Algebraic expansion E(z) ~ -sum_k z^{-k}/Gamma(beta - alpha k), plus
    the exponential branch where present, at points of modulus rho, in
    powers of 1/rho: the weights carry direction^{-k} on the ray
    z = direction * rho, else exp(ik turn) per point, turn = -arg z.  A
    point takes the terms of ``_term_counts`` at the floor 1e-17 |branch -
    first term| (the first with a nonzero weight), summed in one Horner pass
    from the last term down over the points sorted by count.  Every complex
    product has a real-valued factor: a value rounds alike at any row size.
    Per-point orders are summed one (alpha, beta) at a time."""
    if isinstance(alpha, np.ndarray):
        by_order, runs = _runs(beta, alpha)
        out = np.empty(z.size, dtype=np.complex128)
        for start, stop, b, a in runs:
            at = by_order[start:stop]
            out[at] = _asymptotic_row(a, b, z[at], rho[at], direction)
        return out
    u, ell, theta = 1.0 / rho, np.log(rho), np.angle(z)
    turn, direction = (-theta, 1.0) if direction is None else (None, direction)
    weights = _asymptotic_weights(alpha, beta, _ASYMPTOTIC_CHUNK, direction)[0]
    k = next((k for k, w in enumerate(weights, start=1) if w), 0)  # the first term
    gap = u**k * (weights[k - 1] if k else 0j)  # the first term, then branch - it
    gap = gap if turn is None else gap * np.exp(1j * k * turn)
    branch = np.abs(theta) <= alpha * math.pi + 1e-14
    at = slice(None) if branch.all() else branch
    if branch.any():
        logz = np.log(z[at])
        with np.errstate(over="ignore", invalid="ignore"):
            value = _exp_branch(alpha, beta, z[at], logz, np.exp(logz / alpha))
        gap[at] += value
    gap = 1e-17 * np.abs(gap)  # a floor that underflows to 0 is -inf
    floor = np.log(gap, out=np.full(z.size, -math.inf), where=gap > 0.0)
    count, terms = _term_counts(alpha, beta, ell, floor, direction)
    weights = _asymptotic_weights(alpha, beta, terms, direction)[0]
    by_count = np.argsort(count)[::-1]  # most terms first
    us, acc = u[by_count].astype(np.complex128), np.zeros(z.size, dtype=np.complex128)
    turn = None if turn is None else turn[by_count]
    takes = (z.size - np.cumsum(np.bincount(count))).tolist()
    for k in range(len(takes) - 1, 0, -1):  # takes[k - 1] points take term k
        n, w = takes[k - 1], weights[k - 1]
        acc[:n] += w if turn is None else w * np.exp(1j * k * turn[:n])
        acc[:n] *= us[:n]
    out = np.empty(z.size, dtype=np.complex128)
    out[by_count] = acc
    if branch.any():
        out[at] += value
    return out


@functools.lru_cache(maxsize=16)
def _contour_nodes(alpha: float, beta: float, mu: float, strip: float):
    """Trapezoid nodes on the parabola s(u) = mu (1 + iu)^2 for a pole
    clearance ``strip``: (s_k^alpha, w_k) with
    w_k = (h mu / pi) e^{s_k} s_k^{alpha - beta} (1 + i u_k), so that the
    integral part of E_{alpha,beta}(z) is sum_k w_k / (s_k^alpha - z).
    From alpha - beta = 650 on every node set's weights overflow, so the set
    is refused before its size, which grows like sqrt(-beta), is computed;
    ``ml_eval`` reports the overflow for the order it was called with."""
    if alpha - beta >= 650.0:
        raise OverflowError
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


# a large |beta| overflows the pole term, the nodes or their weights: the callers check
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _contour_row(alpha, beta, z: np.ndarray) -> np.ndarray:
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
    ``_BLOCK`` points x nodes.  The points are grouped by node set with one
    stable sort, and with per-point orders by (alpha, beta, node set)."""
    disk = np.abs(z) <= 1.0
    which = np.where(disk, len(_NODE_SETS), len(_NODE_SETS) - 1)  # the disk set last
    out = np.zeros(z.shape, dtype=np.complex128)  # residues, then integrals
    pole = ~disk  # the principal sheet has a pole iff |arg z| <= alpha pi
    if pole.any():
        theta = np.angle(z)
        pole &= np.abs(theta) <= alpha * math.pi
    if pole.any():
        at = np.flatnonzero(pole)
        alpha_at, beta_at = _part(alpha, at), _part(beta, at)
        logz = np.log(z[at])
        s0 = np.exp(logz / alpha_at)
        half = np.cos(theta[at] / (2.0 * alpha_at))  # cos(arg(s0)/2) >= 0
        a = np.abs(s0) * half * half
        far = a >= 0.72
        if far.any():
            out[at[far]] = _exp_branch(_part(alpha_at, far), _part(beta_at, far), z[at[far]],
                                       logz[far], s0[far])
            which[at[far]] = np.searchsorted(_FAR_MU, 0.25 * a[far], side="right") - 1
        if not far.all():
            clear = np.abs(np.sqrt(s0[~far] / 2.0).real - 1.0)  # > 0.4 for a < 0.72
            rung = np.searchsorted(_NEAR_STRIP, clear, side="right") - 1
            which[at[~far]] = len(_FAR_MU) + np.maximum(rung, 0)
    if isinstance(alpha, np.ndarray):
        by_set, groups = _runs(which, beta, alpha)
    else:
        by_set = np.argsort(which, kind="stable")  # the points of each set, in order
        groups, stop = [], 0
        for j, count in enumerate(np.bincount(which).tolist()):
            if count:
                groups.append((stop, stop + count, j, beta, alpha))
                stop += count
    zs, vals = z[by_set], np.empty(z.shape, dtype=np.complex128)
    for start, stop, j, b, a in groups:
        mu, strip = _NODE_SETS[j] if j < len(_NODE_SETS) else (max(_FAR_MU[-1], b - a), _DISK_STRIP)
        sa, w = _contour_nodes(a, b, mu, strip)
        step = max(1, _BLOCK // sa.size)
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            d = sa - zs[lo:hi, None]
            np.divide(w, d, out=d)
            d.sum(axis=1, out=vals[lo:hi])
    out[by_set] += vals
    return out


def _reduced(alpha, beta, z: np.ndarray, n: int) -> np.ndarray:
    """E_{alpha,beta} for alpha <= n through the exact order reduction at the
    n-th roots of the arguments."""
    root = np.zeros(z.shape, dtype=np.complex128)
    nonzero = z != 0
    root[nonzero] = np.exp(np.log(z[nonzero]) / n)
    turns = np.exp(2j * math.pi * np.arange(n) / n)
    if isinstance(alpha, np.ndarray):  # each point's order for each of its roots
        alpha, beta = np.repeat(alpha, n), np.repeat(beta, n)
    parts = _ml_row(alpha / n, beta, (root[:, None] * turns).ravel())
    return parts.reshape(z.size, n).sum(axis=1) / n


def _ml_row(alpha, beta, z: np.ndarray, direction=None) -> np.ndarray:
    """E_{alpha,beta} over a 1-D array of arguments: the asymptotic
    expansion from ASYMPTOTIC_RADIUS on, the contour inside it.  alpha and
    beta are numbers or arrays of z's size.  With ``direction`` (alpha <= 1)
    the arguments are direction * z on one ray, for an array z >= 0."""
    if isinstance(alpha, np.ndarray):
        n = np.ceil(alpha)
        if (n > 1.0).any():  # the orders above 1, one root count at a time
            out = np.empty(z.shape, dtype=np.complex128)
            for m in sorted(set(n.tolist())):  # np.unique would import numpy.ma
                at = np.flatnonzero(n == m)
                out[at] = (_ml_row(alpha[at], beta[at], z[at], direction) if m == 1.0
                           else _reduced(alpha[at], beta[at], z[at], int(m)))
            return out
    elif alpha > 1.0:
        return _reduced(alpha, beta, z, math.ceil(alpha))
    rho, z = (np.abs(z), z) if direction is None else (z, direction * z)
    far = rho >= ASYMPTOTIC_RADIUS
    if far.all():
        return _asymptotic_row(alpha, beta, z, rho, direction)
    if not far.any():
        return _contour_row(alpha, beta, z)
    out = np.empty(z.shape, dtype=np.complex128)
    out[far] = _asymptotic_row(_part(alpha, far), _part(beta, far), z[far], rho[far], direction)
    out[~far] = _contour_row(_part(alpha, ~far), _part(beta, ~far), z[~far])
    return out


# ---------------------------------------------------------------------------
# public operations


def ml_eval(params: MLParams, z, *, z_max: float = Z_MAX_DEFAULT,
            verify: bool = True):
    """Evaluate E_{alpha,beta}(z) at a complex number (returns a complex) or
    over an array (returns an array of its shape).  An order given as an
    array is each point's own and must have z's shape; a number serves
    every point.

    ``z_max`` caps the admissible modulus (raise it deliberately for
    long-horizon experiments).  With ``verify`` the value is cross-checked
    against the shift recurrence E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z);
    a violation raises ``MLAccuracyError`` instead of returning silently.
    Every element is checked.
    """
    z = np.asarray(z, dtype=np.complex128)
    alpha, beta = params.alpha, params.beta
    per_point = np.ndim(alpha) > 0 or np.ndim(beta) > 0  # a 0-d array is a number
    if per_point:
        for name, order in (("alpha", alpha), ("beta", beta)):
            if isinstance(order, np.ndarray) and order.shape != z.shape:
                raise MLDomainError(
                    f"{name} has shape {order.shape}, the argument {z.shape}")
        alpha, beta = (np.broadcast_to(order, z.shape).ravel() for order in (alpha, beta))
    else:
        alpha, beta = float(alpha), float(beta)
    flat = z.ravel()
    if not np.isfinite(flat).all():
        raise MLDomainError("argument must be finite")
    big = np.abs(flat) > z_max
    if big.any():
        raise MLDomainError(f"|z|={abs(flat[big][0]):.4g} beyond cap {z_max:.4g}")
    try:
        val = _ml_row(alpha, beta, flat)
        if not np.isfinite(val).all():
            raise OverflowError
        if verify:
            shifted = _ml_row(alpha, alpha + beta, flat)
            first = (np.array([rgamma_real(b) for b in beta.tolist()]) if per_point
                     else rgamma_real(beta))
            gap = np.abs(val - first - flat * shifted)
            bad = np.flatnonzero(gap > 1e-9 * (1.0 + np.abs(val)))
            if bad.size:
                i = bad[0]
                a, b = (alpha[i], beta[i]) if per_point else (params.alpha, params.beta)
                raise MLAccuracyError(
                    f"recurrence check failed for (alpha={a}, beta={b}, "
                    f"z={complex(flat[i])}): residual {gap[i]:.3e}"
                )
    except OverflowError:  # also from math's gamma, lgamma or ceil at a |beta| near 1e308
        orders = "alpha,beta" if per_point else f"{params.alpha},{params.beta}"
        raise MLOverflowError(f"E_{{{orders}}} exceeds double range") from None
    return complex(val[0]) if z.ndim == 0 else val.reshape(z.shape)


def kernel_grid(order: FractionalOrder, lam, times: np.ndarray,
                kind: str) -> np.ndarray:
    """Solver kernels over a time array, one row per eigenvalue: ``state`` =
    E_{a,1}(pz) and ``integral`` = t^a E_{a,a+1}(pz), with pz =
    phase_factor * lam * t^alpha; integral entries at t = 0 are exactly 0.
    ``lam`` is one eigenvalue (the result has the shape of ``times``) or an
    array of them (the result has the shape of ``lam`` followed by that of
    ``times``).  All rows are evaluated as one row, on the ray through
    phase_factor.  Each argument is the same product lam * t^alpha as in a
    one-eigenvalue call, so the rows equal the stacked one-eigenvalue calls
    bit for bit."""
    if kind not in ("state", "integral"):
        raise MLDomainError(f"kernel grids are state or integral, got {kind!r}")
    lam = np.asarray(lam, dtype=float)
    bad = ~((lam >= 0.0) & (lam < math.inf))
    if bad.any():
        raise MLDomainError(f"eigenvalue must be finite and nonnegative, got {lam[bad][0]}")
    times = np.asarray(times, dtype=float)
    bad = ~((times > 0.0 if kind == "state" else times >= 0.0) & (times < math.inf))
    if bad.any():
        raise MLDomainError(f"kernel time must be finite and positive, got {times[bad][0]}")
    a, lams, flat = order.alpha, lam.reshape(-1, 1), times.ravel()
    if kind == "state":  # every time is positive
        out = _ml_row(a, 1.0, (lams * flat**a).ravel(), order.phase_factor)
    else:
        out = np.zeros((lam.size, flat.size), dtype=np.complex128)
        at = flat != 0.0
        ta = flat[at] ** a
        row = _ml_row(a, a + 1.0, (lams * ta).ravel(), order.phase_factor)
        out[:, at] = ta * row.reshape(lam.size, ta.size)
    if not np.isfinite(out).all():
        raise MLOverflowError("kernel evaluation produced a non-finite value")
    return out.reshape(lam.shape + times.shape)


def certify_c0(alpha: float, lambda_grid=None, t_grid=None) -> float:
    """Empirical bound constant: max over the grid of
    |E_{a,1}(-i lam t^a)| (1 + lam t^a), evaluated with the standard phase.

    The true constant of the boundedness estimate is not computable in
    closed form; this certified grid maximum is configuration, not ground
    truth.
    """
    order = FractionalOrder(alpha)  # checks the range of alpha
    if lambda_grid is None:
        lambda_grid = np.geomspace(1.0, 100.0, 25)
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 1e3, 25)
    # a scalar is a one-point grid, for the eigenvalues as for the times
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    if lambda_grid.size == 0 or t_grid.size == 0:
        raise MLDomainError("certification grids must be non-empty")
    # kernel_grid rejects a negative eigenvalue and a nonpositive time
    val = np.abs(kernel_grid(order, lambda_grid, t_grid, "state"))
    return max(1.0, float(np.max(val * (1.0 + lambda_grid[:, None] * t_grid**alpha))))
