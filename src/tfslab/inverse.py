"""Regularized recovery of initial data, separable-source spatial factor,
and the fractional order from masked observations, together with the
numerical counterparts of the proof machinery: the Laplace-transform
identity of the state kernel and contour extraction of eigenprojections.

The uniqueness statements themselves are qualitative; here they surface as
(a) positivity of the smallest singular value of the truncated observation
operator and (b) successful Tikhonov recovery at tolerances calibrated by
forward-solver oracles.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FlatMisfitError,
    GridMismatchError,
    MLAccuracyError,
    MLDomainError,
    OperatorOverflowError,
    RankDeficientError,
    SourceHypothesisError,
)
from .forward import KernelTable, TimeGrid, eval_homogeneous, kernel_table, source_rows
from .mlf import FractionalOrder, kernel_grid
from .observe import ObservationMask, ObservedData
from .spectral import EigenSystem

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section share of the larger side
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_GL_NODES = 8  # the coarse rule of laplace_identity_gap's panel pairs
_GL_MAX_PANELS = 1 << 14  # live panels per level; bounds the kernel rows
# the boundedness estimate |E_{a,1}(-i mu t^a)| <= _C0_BOUND of the state
# kernel, and the largest truncated tail it admits
_C0_BOUND = 10.0
_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class TikhonovConfig:
    """Regularization weight and the truncated unknown dimension."""

    gamma: float
    n_modes: int

    def __post_init__(self):
        if self.gamma < 0.0:
            raise GridMismatchError(f"gamma must be nonnegative, got {self.gamma}")
        if self.n_modes < 1:
            raise GridMismatchError("need at least one unknown mode")


@dataclass(frozen=True)
class OrderSearchConfig:
    """Bracket and refinement control for the order search."""

    alpha_lo: float
    alpha_hi: float
    coarse_points: int = 25
    refine_tol: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.alpha_lo < self.alpha_hi < 1.0):
            raise GridMismatchError(
                f"bracket ({self.alpha_lo}, {self.alpha_hi}) must sit strictly "
                "inside (0, 1)"
            )
        if self.coarse_points < 3:
            raise GridMismatchError("need at least 3 coarse scan points")
        if self.refine_tol <= 0.0:
            raise GridMismatchError("refine_tol must be positive")


@dataclass
class InversionResult:
    """Recovered quantity with misfit and diagnostics.  Exactly one of
    ``modal``/``order`` is set by the producing operation; spatial
    recoveries carry both the modal coefficients and their synthesis."""

    residual: float
    reg_norm: float
    diagnostics: dict = field(default_factory=dict)
    modal: np.ndarray = None
    spatial: np.ndarray = None
    order: float = None

    def __post_init__(self):
        if self.residual < 0.0:
            raise GridMismatchError("residual must be nonnegative")


@dataclass(frozen=True)
class ContourSpec:
    """Circle around -i mu_ell for eigenprojection extraction; the radius
    must keep every other -i mu_k strictly outside."""

    center: complex
    radius: float
    n_quad: int

    def __post_init__(self):
        if self.n_quad < 8:
            raise GridMismatchError("need at least 8 quadrature nodes")
        if self.radius <= 0.0:
            raise GridMismatchError("radius must be positive")


def contour_for_mode(eig: EigenSystem, ell: int, n_quad: int = 64) -> ContourSpec:
    """Contour around the ell-th distinct eigenvalue (0-based) whose radius
    is a third of the gap to the nearest neighbor (1 for a lone
    eigenvalue), so every other eigenvalue lies outside it."""
    groups = eig.distinct
    if not (0 <= ell < len(groups)):
        raise GridMismatchError(f"distinct index {ell} out of range")
    mu = groups[ell].mu
    gaps = [abs(g.mu - mu) for i, g in enumerate(groups) if i != ell]
    radius = min(gaps) / 3.0 if gaps else 1.0
    return ContourSpec(complex(0.0, -mu), float(radius), int(n_quad))


# ---------------------------------------------------------------------------
# Tikhonov machinery


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v``.  Where finite entries square past double
    range and the plain norm reads inf, the norm is taken of ``v`` scaled by
    its largest entry, so every other vector keeps the plain norm's bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        plain = float(np.linalg.norm(v))
        if plain != math.inf or not np.isfinite(v).all():
            return plain
        top = float(np.max(np.abs(v)))
        return top * float(np.linalg.norm(v / top))


def _tikhonov_solve(G: np.ndarray, d: np.ndarray, gamma: float):
    """Minimize |G c - d|^2 + gamma |c|^2 from one thin SVD G = U S V*,
    with Tikhonov filter factors: c = V diag(s / (s^2 + gamma)) U* d.
    For gamma = 0 the design must be numerically full rank; a design with
    fewer rows than columns has a null space, so its sigma_min is 0."""
    if not (np.isfinite(G).all() and np.isfinite(d).all()):
        raise OperatorOverflowError("weighted design or data overflow double precision")
    U, s, Vh = np.linalg.svd(G, full_matrices=False)
    # LAPACK's column-major layout, so that the products below take the
    # same BLAS paths and round the same way whichever wrapper returned it
    U, Vh = np.asfortranarray(U), np.asfortranarray(Vh)
    smin = 0.0 if G.shape[0] < G.shape[1] else float(s[-1])
    smax = float(s[0])
    if gamma == 0.0 and smin <= 1e-8 * smax:
        raise RankDeficientError(
            f"design matrix is rank deficient (sigma_min/sigma_max = "
            f"{smin / max(smax, 1e-300):.3e}); use gamma > 0"
        )
    # data near the float range can overflow the coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = Vh.conj().T @ (s / (s * s + gamma) * (U.conj().T @ d))
        resid = _norm(G @ coeffs - d)
    if not (np.isfinite(coeffs).all() and math.isfinite(resid)):
        raise OperatorOverflowError(
            "Tikhonov coefficients or residual overflow double precision")
    diag = {"sigma_min": smin, "sigma_max": smax}
    return coeffs, resid, diag


def _tikhonov_result(data: ObservedData, order: FractionalOrder | KernelTable,
                     eig: EigenSystem, cfg: TikhonovConfig,
                     rho: np.ndarray = None) -> InversionResult:
    """Tikhonov recovery of the modal coefficients behind ``data`` and their
    synthesis, through the design on the data's mask and time grid; the data
    are weighted by sqrt(h dt) like the design."""
    G = _separable_design(eig, order, data.tg, data.mask, cfg.n_modes, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _tikhonov_solve
        d = math.sqrt(data.mask.grid.h * data.tg.dt) * data.values.ravel()
    coeffs, resid, diag = _tikhonov_solve(G, d, cfg.gamma)
    return InversionResult(
        residual=resid,
        reg_norm=_norm(coeffs),  # inf fails the CLI's checks
        diagnostics=diag,
        modal=coeffs,
        spatial=coeffs @ eig.phis[: cfg.n_modes],
    )


def _separable_design(eig: EigenSystem, order: FractionalOrder | KernelTable,
                      tg: TimeGrid, mask: ObservationMask, n_modes: int,
                      rho: np.ndarray = None) -> np.ndarray:
    """Observation operator on the truncated modal space: rows indexed by
    (t_i, masked node), columns by mode, entries r_n(t_i) phi_n(x_j)
    sqrt(h dt) so that G*G approximates the continuous normal operator.

    Without ``rho``, r_n is mode n's response to the initial datum phi_n
    (``KernelTable.state``); with it, r_n is the response to the source
    rho(t) phi_n(x) (``source_rows``), as in the forward solver.  ``order``
    may be the ``KernelTable`` of the solve behind the data, whose rows are
    then read, not evaluated again."""
    if n_modes > eig.n:
        raise GridMismatchError(f"{n_modes} modes requested, eigensystem has {eig.n}")
    if mask.grid != eig.grid:
        raise GridMismatchError("mask and eigensystem live on different grids")
    table = kernel_table(order, eig.lambdas[:n_modes], tg)
    modes = np.arange(n_modes)
    if rho is None:
        rows = table.state(modes)
    else:
        rows = source_rows(table, modes, np.broadcast_to(rho, (n_modes, tg.n_t)))
    phi_masked = eig.phis[:n_modes, mask.indices]
    # (time, node) rows in C order, like the ravelled observations
    w = math.sqrt(eig.grid.h * tg.dt)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _tikhonov_solve
        return w * (rows.T[:, None, :] * phi_masked.T).reshape(-1, n_modes)


def invert_initial(data: ObservedData, order: FractionalOrder | KernelTable,
                   eig: EigenSystem, cfg: TikhonovConfig) -> InversionResult:
    """Tikhonov recovery of the initial datum from masked observations;
    ``order`` may be the ``KernelTable`` of the solve behind the data."""
    return _tikhonov_result(data, order, eig, cfg)


def invert_source(data: ObservedData, rho: np.ndarray, order: FractionalOrder | KernelTable,
                  eig: EigenSystem, cfg: TikhonovConfig) -> InversionResult:
    """Tikhonov recovery of the spatial factor g of a separable source
    rho(t) g(x); the temporal factor must not vanish identically.
    ``order`` may be the ``KernelTable`` of the solve behind the data."""
    rho = np.asarray(rho, dtype=np.complex128)
    if float(np.max(np.abs(rho))) == 0.0:
        raise SourceHypothesisError(
            "temporal factor rho vanishes identically; the spatial factor "
            "is not identifiable"
        )
    if rho.shape[0] != data.tg.n_t:
        raise GridMismatchError(f"rho sampled at {rho.shape[0]} times vs {data.tg.n_t}")
    return _tikhonov_result(data, order, eig, cfg, rho)


def order_misfit(data: ObservedData, y0: np.ndarray, alpha: float,
                 phase: str, eig: EigenSystem) -> float:
    """Squared weighted misfit between the observation of the homogeneous
    alpha-solution and the data."""
    if data.mask.grid != eig.grid:
        raise GridMismatchError("mask and eigensystem live on different grids")
    order = FractionalOrder(alpha, phase)
    tg = data.tg
    diff = data.mask.restrict(eval_homogeneous(y0, order, eig, tg.times)) - data.values
    return float(eig.grid.h * tg.dt * np.sum(np.abs(diff) ** 2))


def invert_order(data: ObservedData, y0: np.ndarray, eig: EigenSystem,
                 cfg: OrderSearchConfig, phase: str = "standard_i") -> InversionResult:
    """Order recovery by misfit minimization: a coarse scan over the bracket
    (the landscape may be non-convex), then Brent's method (parabolic steps
    with golden-section fallback) between the neighbours of the coarse
    minimum.  A flat landscape is flagged rather than minimized.  The
    estimate is the best order evaluated, and ``diagnostics["trace"]`` lists
    every evaluated (order, misfit) pair in evaluation order."""
    y0 = np.asarray(y0, dtype=np.complex128)
    if float(np.max(np.abs(y0))) == 0.0:
        raise SourceHypothesisError("generating datum u must not vanish")
    trace = []

    def misfit(alpha):
        value = order_misfit(data, y0, alpha, phase, eig)
        trace.append([alpha, value])
        return value

    alphas = np.linspace(cfg.alpha_lo, cfg.alpha_hi, cfg.coarse_points).tolist()
    misfits = [misfit(a) for a in alphas]
    spread = max(misfits) - min(misfits)
    if spread <= 1e-13 * (1.0 + max(misfits)):
        raise FlatMisfitError(
            "misfit landscape is flat across the bracket; the observations "
            "carry no order information"
        )
    k = int(np.argmin(misfits))
    lo = alphas[max(0, k - 1)]
    hi = alphas[min(len(alphas) - 1, k + 1)]
    # Brent's minimizer as in Numerical Recipes' brent: x is the best order so
    # far, w the second best, v the previous w; a parabola through them
    # proposes the step unless it leaves the bracket or fails to halve the
    # step before last.  No step is shorter than tol1, which the sqrt(eps)
    # term keeps above the float resolution at x, so the search ends once
    # the bracket lies within tol2 = refine_tol/2 + 2 sqrt(eps)|x| of x.
    a, b = lo, hi
    x = w = v = alphas[k]
    fx = fw = fv = misfits[k]
    d = e = 0.0
    while True:
        tol1 = _SQRT_EPS * abs(x) + 0.25 * cfg.refine_tol
        tol2 = 2.0 * tol1
        if max(x - a, b - x) <= tol2:
            break
        xm = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_last, e = e, d
            if abs(p) < abs(0.5 * q * e_last) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = misfit(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return InversionResult(
        residual=fx,
        reg_norm=0.0,
        diagnostics={
            "iterations": len(trace) - len(alphas),
            "evaluations": len(trace),
            "coarse_spread": spread,
            "bracket_lo": lo,
            "bracket_hi": hi,
            "trace": trace,
        },
        order=x,
    )


# ---------------------------------------------------------------------------
# proof machinery


def laplace_identity_gap(alpha: float, mu_k: float, z: complex, T_trunc: float) -> float:
    """| int_0^T e^{-zt} E_{a,1}(-i mu t^a) dt  -  z^{a-1}/(z^a + i mu) |
    with principal powers and a = ``alpha``, on the standard ray;
    T must be large enough that the boundedness estimate puts the
    truncated tail below 1e-6.  The integral is adaptive Gauss-Legendre
    with one ``kernel_grid`` row per bisection level."""
    order = FractionalOrder(alpha)  # checks the range of alpha
    z = complex(z)
    if not (cmath.isfinite(z) and math.isfinite(mu_k) and 0.0 < T_trunc < math.inf):
        raise MLDomainError(f"z={z} and mu={mu_k} must be finite, and T_trunc={T_trunc} "
                            "finite and positive")
    if z.real <= 0.0:
        raise MLDomainError("the transform identity requires Re z > 0")
    if mu_k < 0.0:
        raise MLDomainError("mu must be nonnegative")
    tail = _C0_BOUND * math.exp(-z.real * T_trunc) / z.real
    if tail > _TAIL_TOL:
        raise MLDomainError(
            f"T_trunc={T_trunc:g} leaves truncation bound {tail:.3e} above "
            f"{_TAIL_TOL:g}"
        )
    # a panel is accepted when its n- and 2n-point sums agree to its share
    # of 1e-13 or to 1e-12 of its integral of |f| (the evaluator's relative
    # noise reaches 1e-10 where the kernel is tiny), else bisected; panels
    # at the t^a endpoint end once narrower than T * 2^-50
    x1, w1 = np.polynomial.legendre.leggauss(_GL_NODES)
    x2, w2 = np.polynomial.legendre.leggauss(2 * _GL_NODES)
    nodes = np.concatenate((x1, x2))
    lo, hi = np.array([0.0]), np.array([float(T_trunc)])
    numeric = 0j
    while lo.size:
        if lo.size > _GL_MAX_PANELS:
            raise MLAccuracyError(
                f"transform quadrature needs more than {_GL_MAX_PANELS} panels"
            )
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        t = mid[:, None] + half[:, None] * nodes
        f = np.exp(-z * t) * kernel_grid(order, mu_k, t, "state")
        coarse = half * (f[:, :_GL_NODES] @ w1)
        fine = half * (f[:, _GL_NODES:] @ w2)
        mass = half * (np.abs(f[:, _GL_NODES:]) @ w2)
        tol = np.maximum(1e-13 * (hi - lo) / T_trunc, 1e-12 * mass)
        done = (np.abs(fine - coarse) <= tol) | (hi - lo < T_trunc * 2.0**-50)
        numeric += fine[done].sum()
        lo = np.concatenate((lo[~done], mid[~done]))
        hi = np.concatenate((mid[~done], hi[~done]))
    closed = z ** (alpha - 1.0) / (z**alpha + 1j * mu_k)
    return float(abs(numeric - closed))


def modal_resolvent(coeffs: np.ndarray, eig: EigenSystem):
    """Synthetic resolvent S(eta) = sum_k (sum_j c_kj phi_kj)/(eta + i mu_k)
    assembled from known modal data, on every grid node; restrict the
    extracted projection to observe it on a subset."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape[0] != eig.n:
        raise GridMismatchError(f"{coeffs.shape[0]} coefficients vs {eig.n} modes")
    parts = [(complex(0.0, g.mu), coeffs[g.start:g.stop] @ eig.phis[g.start:g.stop])
             for g in eig.distinct]

    def S(eta: complex) -> np.ndarray:
        total = np.zeros(eig.grid.m, dtype=np.complex128)
        for imu, vec in parts:
            total += vec / (eta + imu)
        return total

    return S


def extract_modal_projection(resolvent, spec: ContourSpec) -> np.ndarray:
    """Trapezoid quadrature of (1/2 pi i) times the contour integral of the
    resolvent around -i mu_ell; converges geometrically in the node count
    and returns the eigenprojection of the generating datum."""
    n = spec.n_quad
    angles = 2.0 * math.pi * np.arange(n) / n
    total = None
    for ang in angles:
        rot = cmath.exp(1j * ang)
        val = np.asarray(resolvent(spec.center + spec.radius * rot))
        contrib = val * rot
        total = contrib if total is None else total + contrib
    return (spec.radius / n) * total
