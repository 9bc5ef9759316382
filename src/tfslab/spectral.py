"""Dirichlet eigen-decomposition of -L on (0, L): closed form for the
Laplacian and a symmetric finite-difference discretization for general
coefficients a(x), p(x).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (EigenSolveError, EllipticityError, GridMismatchError,
                     OperatorOverflowError)

ORTHO_TOL = 1e-10
RAYLEIGH_TOL = 1e-8


def _freeze(arr):
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


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

    def inner(self, u, v) -> complex:
        # discrete L2 inner product, conjugate-linear in the second slot
        return self.h * complex(np.sum(np.asarray(u) * np.conj(np.asarray(v))))

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
    def from_callables(cls, a_fun, p_fun, grid: Grid1D, kappa=None):
        mids = grid.h * (np.arange(grid.m + 1) + 0.5)
        a = np.array([a_fun(x) for x in mids], dtype=float)
        p = np.array([p_fun(x) for x in grid.nodes], dtype=float)
        if kappa is None:
            kappa = float(a.min())
        return cls(a, p, kappa)

    @classmethod
    def constant(cls, a0: float, p0: float, grid: Grid1D):
        return cls.from_callables(lambda x: a0, lambda x: p0, grid)


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


def analytic_eigensystem(L: float, N: int, grid: Grid1D) -> EigenSystem:
    """Closed-form Dirichlet Laplacian system on (0, L):
    lambda_n = (n pi / L)^2, phi_n = sqrt(2/L) sin(n pi x / L), sampled on
    the grid and re-normalized in the discrete inner product."""
    if grid.L != L:
        raise GridMismatchError(f"grid has L={grid.L}, requested {L}")
    if N > grid.m:
        raise EigenSolveError(f"cannot return {N} modes on {grid.m} nodes")
    n = np.arange(1, N + 1)
    lam = (n * math.pi / L) ** 2
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


def eigen_solve(A: Tridiag, N: int, grid: Grid1D) -> EigenSystem:
    """First N eigenpairs of a symmetric tridiagonal matrix, h-orthonormal,
    with distinct-eigenvalue grouping."""
    if N > A.n:
        raise EigenSolveError(f"cannot return {N} modes from an {A.n}x{A.n} matrix")
    if A.n != grid.m:
        raise GridMismatchError(f"matrix size {A.n} vs grid m={grid.m}")
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(
            A.diag, A.off, select="i", select_range=(0, N - 1)
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise EigenSolveError(f"eigen-iteration failed to converge: {exc}") from exc
    order = np.argsort(lam)
    lam = lam[order]
    phi = vec[:, order].T / math.sqrt(grid.h)
    # fix a deterministic sign: largest-magnitude entry positive
    for row in phi:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0.0:
            row *= -1.0
    resid = A.matvec(phi.T) - phi.T * lam[None, :]
    scale = np.maximum(np.abs(lam), lam[0])
    worst = np.max(np.linalg.norm(resid, axis=0) / (scale * np.linalg.norm(phi.T, axis=0)))
    if worst > RAYLEIGH_TOL:
        raise EigenSolveError(f"Rayleigh residual {worst:.3e} exceeds {RAYLEIGH_TOL}")
    tol = 1e-8 * max(abs(lam[-1]), 1.0)
    return EigenSystem(grid, lam, phi, _group_distinct(lam, tol))
