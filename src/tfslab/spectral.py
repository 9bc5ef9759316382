"""Dirichlet eigen-decomposition of -L on (0, L): closed form for the
Laplacian and a symmetric finite-difference discretization for general
coefficients a(x), p(x), whose first eigenpairs come from a numpy
tridiagonal eigensolver (Sturm multisection and twisted factorizations).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EigenSolveError, EllipticityError, GridMismatchError,
                     OperatorOverflowError)

ORTHO_TOL = 1e-10
RAYLEIGH_TOL = 1e-8

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_PIVOT_FLOOR = math.sqrt(_TINY)  # smallest |pivot| a twisted factorization keeps
_SECTIONS = 16  # a multisection pass cuts each bracket into 16 parts
_MAX_PASSES = 64


def _freeze(arr):
    """A read-only view of ``arr``: the caller's own array, when it is
    passed in without conversion, stays writable, and no data are copied."""
    view = np.asarray(arr).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid on (0, L): nodes x_j = j*h, j = 1..m, with
    h = L/(m+1); boundary nodes are excluded from state vectors."""

    L: float
    m: int

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise GridMismatchError(f"domain length must be positive, got {self.L}")
        if self.m < 3:
            raise GridMismatchError(f"need at least 3 interior nodes, got {self.m}")

    @property
    def h(self) -> float:
        return self.L / (self.m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.m + 1)

    def norm(self, v) -> float:
        return math.sqrt(self.h) * float(np.linalg.norm(np.asarray(v)))


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients of -d/dx(a d/dx) + p with ellipticity floor kappa:
    ``a`` sampled on the m+1 midpoints, ``p`` on the m nodes."""

    a: np.ndarray
    p: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "p", _freeze(np.asarray(self.p, dtype=float)))
        if not (self.kappa > 0.0):
            raise EllipticityError(f"kappa must be positive, got {self.kappa}")
        if self.a.min() < self.kappa:
            raise EllipticityError(
                f"min(a)={self.a.min():.6g} violates ellipticity floor {self.kappa}"
            )
        if self.p.min() < 0.0:
            raise EllipticityError(f"p must be nonnegative, min(p)={self.p.min():.6g}")

    @classmethod
    def constant(cls, a0: float, p0: float, grid: Grid1D):
        """Constant coefficients, with the floor kappa = a0."""
        return cls(np.full(grid.m + 1, a0, dtype=float), np.full(grid.m, p0, dtype=float),
                   float(a0))


@dataclass(frozen=True)
class Tridiag:
    """Symmetric tridiagonal matrix stored as (diagonal, off-diagonal)."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", _freeze(np.asarray(self.diag, dtype=float)))
        object.__setattr__(self, "off", _freeze(np.asarray(self.off, dtype=float)))
        if self.off.shape[0] != self.diag.shape[0] - 1:
            raise GridMismatchError("off-diagonal length must be n-1")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        y = self.diag.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        y[:-1] += self.off.reshape((-1,) + (1,) * (x.ndim - 1)) * x[1:]
        y[1:] += self.off.reshape((-1,) + (1,) * (x.ndim - 1)) * x[:-1]
        return y


@dataclass(frozen=True)
class EigenGroup:
    """Indices [start, stop) sharing the distinct eigenvalue mu."""

    mu: float
    start: int
    stop: int

    @property
    def multiplicity(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues, h-orthonormal eigenvector samples (rows), and
    the grouping of equal eigenvalues.  Validated on construction and
    immutable afterwards."""

    grid: Grid1D
    lambdas: np.ndarray
    phis: np.ndarray
    distinct: tuple

    def __post_init__(self):
        lam = _freeze(np.asarray(self.lambdas, dtype=float))
        phi = _freeze(np.asarray(self.phis, dtype=float))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "phis", phi)
        object.__setattr__(self, "distinct", tuple(self.distinct))
        if phi.shape != (lam.shape[0], self.grid.m):
            raise EigenSolveError(
                f"eigenvector block {phi.shape} inconsistent with "
                f"{lam.shape[0]} eigenvalues on m={self.grid.m} nodes"
            )
        if not np.isfinite(lam).all():
            raise EigenSolveError("eigenvalues must be finite")
        if lam.size == 0 or lam[0] <= 0.0:
            raise EigenSolveError("spectrum must be positive (p >= 0 assumed)")
        if np.any(np.diff(lam) < 0.0):
            raise EigenSolveError("eigenvalues must be ascending")
        gram = self.grid.h * (phi @ phi.T)
        dev = float(np.max(np.abs(gram - np.eye(lam.size))))
        if dev > ORTHO_TOL:
            raise EigenSolveError(f"orthonormality violated: max deviation {dev:.3e}")
        covered = 0
        prev_mu = -math.inf
        for g in self.distinct:
            if g.start != covered or g.stop <= g.start:
                raise EigenSolveError("distinct grouping must cover all indices")
            if g.mu <= prev_mu:
                raise EigenSolveError("distinct eigenvalues must increase strictly")
            covered = g.stop
            prev_mu = g.mu
        if covered != lam.size:
            raise EigenSolveError("distinct grouping must cover all indices")

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


def _group_distinct(lam: np.ndarray, tol: float):
    groups = []
    start = 0
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[i] - lam[i - 1] > tol:
            groups.append(EigenGroup(float(np.mean(lam[start:i])), start, i))
            start = i
    return tuple(groups)


def analytic_eigensystem(N: int, grid: Grid1D) -> EigenSystem:
    """Closed-form Dirichlet Laplacian system on the grid's interval (0, L):
    lambda_n = (n pi / L)^2, phi_n = sqrt(2/L) sin(n pi x / L), sampled on
    the grid and re-normalized in the discrete inner product."""
    L = grid.L
    if N > grid.m:
        raise EigenSolveError(f"cannot return {N} modes on {grid.m} nodes")
    n = np.arange(1, N + 1)
    with np.errstate(over="ignore"):
        lam = (n * math.pi / L) ** 2
    if not np.isfinite(lam).all():
        raise OperatorOverflowError("eigenvalues exceed double precision")
    phi = math.sqrt(2.0 / L) * np.sin(np.outer(n, math.pi * grid.nodes / L))
    norms = np.sqrt(grid.h * np.sum(phi * phi, axis=1))
    phi /= norms[:, None]
    tol = 1e-8 * lam[-1]
    return EigenSystem(grid, lam, phi, _group_distinct(lam, tol))


def assemble_operator(spec: OperatorSpec, grid: Grid1D) -> Tridiag:
    """Conservative 3-point stencil for -d/dx(a d/dx) + p: symmetric and
    positive definite for p >= 0."""
    if spec.a.shape[0] != grid.m + 1 or spec.p.shape[0] != grid.m:
        raise GridMismatchError(
            f"coefficients sampled on {spec.a.shape[0]} midpoints and {spec.p.shape[0]} "
            f"nodes, grid has m={grid.m}"
        )
    h2 = grid.h * grid.h
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        diag = (spec.a[:-1] + spec.a[1:]) / h2 + spec.p
        off = -spec.a[1:-1] / h2
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise OperatorOverflowError(
            f"operator stencil overflows double precision at spacing h={grid.h:.4g}"
        )
    return Tridiag(diag, off)


def _pivots(rows: list, numer: np.ndarray) -> None:
    """LDL^T pivots down a list of rows holding d_i - x, in place:
    q_i = row_i - numer_{i-1} / q_{i-1}, elementwise over the columns.
    The loop runs over row views, one pair of ufunc calls each, because the
    per-call overhead sets the cost.  A zero pivot makes the next one -inf
    and the one after finite again, so the signs still count eigenvalues."""
    quot = np.empty_like(rows[0])
    prev = rows[0]
    for row, c in zip(rows[1:], numer):
        np.divide(c, prev, out=quot)
        np.subtract(row, quot, out=row)
        prev = row


def _multisection(d, e, e2, n):
    """Brackets (lo, hi] of the n smallest eigenvalues by Sturm counts
    (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386): a log-spaced
    first pass over the Gershgorin interval, then 15 points per bracket and
    pass, until every bracket is narrower than 2 eps ||T||, the absolute
    accuracy of LAPACK's stebz.

    Each count is the inertia of a twisted factorization at the middle row
    r: the negative pivots of a forward sweep down to r and a backward
    sweep up to r + 1, with gamma_r in place of the last forward pivot.
    Both sweeps run side by side, which halves the rows a pass loops over:
    column 0 of ``diag`` holds rows 0..r, column 1 rows m-1 down to r+1,
    after a padding row of +inf when it is the shorter."""
    m = d.size
    r = (m - 1) // 2
    pad = 2 * r + 2 - m
    diag = np.stack([d[:r + 1], np.concatenate([np.full(pad, np.inf), d[:r:-1]])], axis=1)
    back = np.arange(1, r + 1) - pad  # backward row reached by each step, from m-1
    numer = np.stack([e2[:r], np.where(back >= 1, e2[m - 1 - np.maximum(back, 1)], 0.0)],
                     axis=1)

    radius = np.zeros(m)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    gl, gu = float(np.min(d - radius)), float(np.max(d + radius))
    tnorm = max(abs(gl), abs(gu))
    gl, gu = gl - 2.1 * _EPS * tnorm * m, gu + 2.1 * _EPS * tnorm * m
    points = n * (_SECTIONS - 1)
    diag = np.repeat(diag, points, axis=1)
    numer = np.repeat(numer, points, axis=1)
    target = np.arange(n)[:, None]
    lo, hi = np.full(n, gl), np.full(n, gu)
    x = gl + (gu - gl) * np.geomspace(_EPS, 1.0, points, endpoint=False)
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    q = np.empty_like(diag)
    rows = list(q)
    for _ in range(_MAX_PASSES):
        np.subtract(diag, np.concatenate([x, x]), out=q)
        _pivots(rows, numer)
        np.subtract(q[-1, :points], e2[r] / q[-1, points:], out=q[-1, :points])
        counts = np.signbit(q).sum(axis=0, dtype=np.int32)
        below = counts[:points] + counts[points:] <= target
        lo = np.maximum(lo, np.where(below, x, -np.inf).max(axis=1))
        hi = np.minimum(hi, np.where(below, np.inf, x).min(axis=1))
        if (hi - lo).max() <= 2.0 * _EPS * tnorm:
            return lo, hi, tnorm
        x = (lo[:, None] + (hi - lo)[:, None] * frac).ravel()
    raise EigenSolveError("Sturm bisection failed to converge")


def _twisted_vectors(d, e, e2, lam):
    """Unit eigenvectors (rows) from one twisted factorization per
    eigenvalue (Dhillon & Parlett, Linear Algebra Appl. 387 (2004) 1): the
    forward and backward sweeps run side by side as 2n columns, the twist r
    minimizes |gamma_r|, and the entries are cumulative products of pivot
    ratios away from r.  A pivot below the floor becomes -floor, as in
    LAPACK's dlar1v, and the next one is recomputed from it; later pivots
    change below rounding."""
    n = lam.size
    shifted = np.subtract.outer(d, lam)
    both = np.concatenate([shifted, shifted[::-1]], axis=1)
    numer = np.repeat(np.stack([e2, e2[::-1]], axis=1), n, axis=1)
    q = both.copy()
    _pivots(list(q), numer)
    small = np.abs(q[:-1]) < _PIVOT_FLOOR
    if small.any():
        q[1:][small] = (both[1:] + numer / _PIVOT_FLOOR)[small]
        q[np.abs(q) < _PIVOT_FLOOR] = -_PIVOT_FLOOR
    fwd, bwd = q[:, :n], q[::-1, n:]
    up = -e[:, None] / fwd[:-1]
    down = -e[:, None] / bwd[1:]
    vecs = np.zeros((n, d.size))
    for j, r in enumerate(np.argmin(np.abs(fwd + bwd - shifted), axis=0)):
        vecs[j, r] = 1.0
        vecs[j, :r] = np.cumprod(up[:r, j][::-1])[::-1]
        vecs[j, r + 1:] = np.cumprod(down[r:, j])
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def _orthogonalize_clusters(vecs, lam, tnorm):
    """Re-orthogonalize each vector against the earlier ones of its cluster,
    eigenvalues closer than 1e-3 ||T|| as in LAPACK's stein (two Gram-Schmidt
    sweeps)."""
    start = 0
    for j in range(1, lam.size):
        if lam[j] - lam[j - 1] > 1e-3 * tnorm:
            start = j
            continue
        for _ in range(2):
            vecs[j] -= (vecs[start:j] @ vecs[j]) @ vecs[start:j]
        vecs[j] /= np.linalg.norm(vecs[j])
    return vecs


def _unreduced_eigh(d, e, e2, n):
    """The n smallest eigenpairs of an unreduced block (no zero e2)."""
    if d.size == 1:
        return d.copy(), np.ones((1, 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, hi, tnorm = _multisection(d, e, e2, n)
        lam = 0.5 * (lo + hi)
        vecs = _twisted_vectors(d, e, e2, lam)
    return lam, _orthogonalize_clusters(vecs, lam, tnorm)


def _tridiagonal_eigh(d, e, n):
    """The n smallest eigenvalues and unit eigenvectors (rows) of the
    symmetric tridiagonal matrix (d, e), whose entries are below 2 in
    magnitude.  Off-diagonals negligible next to their diagonal neighbours
    split the matrix into unreduced blocks, as in LAPACK's stebz; the blocks
    are solved one by one, so equal eigenvalues of different blocks get
    vectors with disjoint supports."""
    e2 = e * e
    cuts = np.flatnonzero(e2 <= _EPS**2 * np.abs(d[:-1] * d[1:]) + _TINY) + 1
    pairs = []
    for start, stop in zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [d.size]])):
        lam, vecs = _unreduced_eigh(d[start:stop], e[start:stop - 1], e2[start:stop - 1],
                                    min(n, stop - start))
        pairs += [(mu, start, v) for mu, v in zip(lam, vecs)]
    pairs.sort(key=lambda pair: pair[0])  # stable: ties keep block order
    out = np.zeros((n, d.size))
    for row, (_, start, v) in zip(out, pairs):
        row[start:start + v.size] = v
    return np.array([pair[0] for pair in pairs[:n]]), out


def eigen_solve(A: Tridiag, N: int, grid: Grid1D) -> EigenSystem:
    """First N eigenpairs of a symmetric tridiagonal matrix, h-orthonormal,
    with distinct-eigenvalue grouping.  Eigenvalues are accurate to about
    eps ||T|| in absolute terms."""
    if not 1 <= N <= A.n:
        raise EigenSolveError(f"cannot return {N} modes from an {A.n}x{A.n} matrix")
    if A.n != grid.m:
        raise GridMismatchError(f"matrix size {A.n} vs grid m={grid.m}")
    if not (np.isfinite(A.diag).all() and np.isfinite(A.off).all()):
        raise EigenSolveError("matrix entries must be finite")
    # scale by a power of two (exact) to entries below 2 in magnitude, so
    # that their squares cannot overflow
    amax = max(float(np.max(np.abs(A.diag))), float(np.max(np.abs(A.off))))
    scale = math.ldexp(1.0, math.frexp(amax)[1] - 1) if amax > 0.0 else 1.0
    lam, vecs = _tridiagonal_eigh(A.diag / scale, A.off / scale, N)
    phi = vecs / math.sqrt(grid.h)
    # fix a deterministic sign: largest-magnitude entry positive
    for row in phi:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0.0:
            row *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails the checks
        lam = lam * scale
        resid = A.matvec(phi.T) - phi.T * lam[None, :]
        bound = np.maximum(np.abs(lam), lam[0])
        worst = np.max(np.linalg.norm(resid, axis=0)
                       / (bound * np.linalg.norm(phi.T, axis=0)))
    if not np.isfinite(lam).all():
        raise OperatorOverflowError("eigenvalues exceed double precision")
    if not worst <= RAYLEIGH_TOL:
        raise EigenSolveError(f"Rayleigh residual {worst:.3e} exceeds {RAYLEIGH_TOL}")
    tol = 1e-8 * max(abs(lam[-1]), 1.0)
    return EigenSystem(grid, lam, phi, _group_distinct(lam, tol))
