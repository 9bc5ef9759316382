"""Modal forward solver for i d^alpha y + L y = f with Dirichlet conditions,
plus the discrete fractional calculus (L1 Caputo derivative, Riemann-
Liouville integral) used to cross-check it.

The source convolution uses piecewise-constant modal coefficients with
exact subinterval integrals through the integral kernel
tau^alpha E_{alpha,alpha+1}, so the weakly singular factor (t-s)^(alpha-1)
is never sampled.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import causal_conv
from .errors import CheckOverflowError, GridMismatchError, MLDomainError
from .mlf import FractionalOrder, kernel_grid, rgamma_real
from .spectral import EigenSystem, Grid1D, Tridiag, _freeze

# A modal vector is a plain complex array of expansion coefficients.
ModalVector = np.ndarray


@dataclass(frozen=True)
class TimeGrid:
    """Uniform times t_i = i*dt, i = 1..n_t; t = 0 is excluded from
    solution storage (the solution is continuous only on (0, T])."""

    T: float
    n_t: int

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise GridMismatchError(f"terminal time must be positive, got {self.T}")
        if self.n_t < 2:
            raise GridMismatchError(f"need at least 2 time steps, got {self.n_t}")

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.n_t + 1)


@dataclass(frozen=True)
class SourceSpec:
    """Separable source term rho(t) g(x); a run without a source passes
    None where a ``SourceSpec`` is taken."""

    rho: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _freeze(np.asarray(self.rho, np.complex128)))
        object.__setattr__(self, "g", _freeze(np.asarray(self.g, np.complex128)))


@dataclass(frozen=True)
class SpaceTimeField:
    """Complex samples y(t_i, x_j) on the tensor grid; y(0, .) is kept by
    the caller where the Caputo derivative needs it."""

    values: np.ndarray
    tg: TimeGrid
    grid: Grid1D

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.tg.n_t, self.grid.m):
            raise GridMismatchError(
                f"field shape {vals.shape} vs (n_t={self.tg.n_t}, m={self.grid.m})"
            )
        if not np.all(np.isfinite(vals)):
            raise GridMismatchError("field contains non-finite samples")
        object.__setattr__(self, "values", _freeze(vals))


def project(samples: np.ndarray, eig: EigenSystem) -> ModalVector:
    """Modal coefficients <samples, phi_n>_h (conjugate-linear in phi_n;
    the eigenfunctions are real, so no conjugation is visible)."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape[0] != eig.grid.m:
        raise GridMismatchError(
            f"sample length {samples.shape[0]} vs grid m={eig.grid.m}"
        )
    return eig.grid.h * (eig.phis @ samples)


def projection_tail_energy(samples: np.ndarray, eig: EigenSystem) -> float:
    """Energy of the component outside span{phi_1..phi_N}: the declared
    truncation approximation of a solve; raises where an energy overflows."""
    c = project(samples, eig)
    with np.errstate(over="ignore", invalid="ignore"):
        total = eig.grid.norm(samples) ** 2
        captured = float(np.sum(np.abs(c) ** 2))
    if not (math.isfinite(total) and math.isfinite(captured)):
        raise CheckOverflowError("tail_energy: the datum's energy exceeds double precision")
    return max(0.0, total - captured)


# A table evaluates one mode's row per kernel_grid call: the benchmark's
# self-check (perfbench/selfcheck.py) pins a forward solve with a nonzero
# datum and a source at exactly 2N kernel calls for N modes.  Once it counts
# one call per kind, a table can evaluate every mode at once, as
# eval_homogeneous does.


class KernelTable:
    """The kernel rows of one order over one eigenvalue list and one time
    grid: mode n's state row E_{a,1}(p lam_n t^a) on the grid times, and
    its integral steps dW_n = diff W_n, where
    W_n(tau) = tau^a E_{a,a+1}(p lam_n tau^a) on the grid including t = 0
    integrates the impulse kernel exactly over grid subintervals.

    Each mode's row of each kind is evaluated on first use, by one
    ``kernel_grid`` call for that mode, and kept, so a run that passes one
    table to its data solve, its design and its checks evaluates each row
    once.  A table belongs to one run: nothing outlives it."""

    def __init__(self, order: FractionalOrder, lambdas: np.ndarray, tg: TimeGrid):
        self.order, self.lambdas, self.tg = order, lambdas, tg
        self._grids = {"state": tg.times, "integral": tg.dt * np.arange(tg.n_t + 1)}
        self._rows = {}

    def _stack(self, kind, modes):
        rows = np.empty((len(modes), self.tg.n_t), dtype=np.complex128)
        for k, n in enumerate(modes):
            if (kind, n) not in self._rows:
                row = kernel_grid(self.order, self.lambdas[n], self._grids[kind], kind)
                self._rows[kind, n] = row if kind == "state" else np.diff(row)
            rows[k] = self._rows[kind, n]
        return rows

    def state(self, modes) -> np.ndarray:
        """The state rows of ``modes``, one row per mode: each mode's
        response to its initial datum."""
        return self._stack("state", modes)

    def steps(self, modes) -> np.ndarray:
        """The integral steps dW_n of ``modes``, one row per mode."""
        return self._stack("integral", modes)


def kernel_table(order: FractionalOrder | KernelTable, lambdas: np.ndarray,
                 tg: TimeGrid) -> KernelTable:
    """A new table of ``order`` over ``lambdas`` and ``tg``; a table passed
    as ``order`` is returned itself, once its grid and leading eigenvalues
    are checked to be these."""
    if isinstance(order, FractionalOrder):
        return KernelTable(order, lambdas, tg)
    if order.tg != tg or not np.array_equal(order.lambdas[:len(lambdas)], lambdas):
        raise GridMismatchError("kernel table built for another time grid or eigensystem")
    return order


def source_rows(table: KernelTable, modes: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Each mode's response p * conv(f_n, dW_n) to its forcing row f_n on
    the grid times, p the phase factor, for the modes ``modes`` with one
    forcing row each.  A mode whose forcing vanishes responds with exact
    zeros and takes no kernel row; the others share one convolution call."""
    rows = np.zeros((len(modes), table.tg.n_t), dtype=np.complex128)
    live = np.flatnonzero(np.any(forcing, axis=1))
    if live.size:
        dw = table.steps(np.asarray(modes)[live])
        rows[live] = table.order.phase_factor * causal_conv(forcing[live].T, dw.T).T
    return rows


def solve_forward(y0: np.ndarray, src: SourceSpec | None,
                  order: FractionalOrder | KernelTable, eig: EigenSystem,
                  tg: TimeGrid) -> SpaceTimeField:
    """Modal solution: per mode,
    c_n(t) = c_n(0) E_{a,1}(p lam_n t^a) + p * conv(f_n, dW_n)(t)
    (see ``KernelTable`` and ``source_rows``).  A mode whose initial
    coefficient vanishes responds to it with exact zeros and takes no state
    row.  ``order`` may be a ``KernelTable`` over ``eig`` and ``tg``, which
    then supplies and keeps the rows."""
    table = kernel_table(order, eig.lambdas, tg)
    c0 = project(np.asarray(y0, dtype=np.complex128), eig)
    coeffs = np.zeros((eig.n, tg.n_t), dtype=np.complex128)
    live = np.flatnonzero(c0)
    coeffs[live] = c0[live, None] * table.state(live)
    if src is not None:
        if src.rho.shape[0] != tg.n_t:
            raise GridMismatchError(
                f"rho sampled at {src.rho.shape[0]} times, grid has {tg.n_t}"
            )
        forcing = np.outer(project(src.g, eig), src.rho)
        coeffs += source_rows(table, np.arange(eig.n), forcing)
    return SpaceTimeField(coeffs.T @ eig.phis, tg, eig.grid)


def eval_homogeneous(y0: np.ndarray, order: FractionalOrder, eig: EigenSystem,
                     times: np.ndarray) -> np.ndarray:
    """Homogeneous solution at arbitrary positive times (long-horizon
    experiments run outside any uniform grid).  Every mode's state kernel
    comes from one ``kernel_grid`` call, bit for bit the rows of
    ``KernelTable.state``."""
    c0 = project(np.asarray(y0, dtype=np.complex128), eig)
    kernels = kernel_grid(order, eig.lambdas, times, "state")
    return (c0[:, None] * kernels).T @ eig.phis


def caputo_l1(series: np.ndarray, alpha: float, tg: TimeGrid) -> np.ndarray:
    """L1 discretization of the Caputo derivative on the grid times.

    ``series`` holds the t = 0 value in row 0 followed by the n_t grid rows;
    the result is sampled on the grid times.  Exact on piecewise-linear
    input.
    """
    if not (0.0 < alpha < 1.0):
        raise MLDomainError(f"Caputo order must lie in (0, 1), got {alpha}")
    series = np.asarray(series, dtype=np.complex128)
    if series.shape[0] != tg.n_t + 1:
        raise GridMismatchError(
            f"series must include the t=0 row: got {series.shape[0]} rows "
            f"for n_t={tg.n_t}"
        )
    k = np.arange(tg.n_t)
    b = (k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha)
    dy = np.diff(series, axis=0)
    scale = tg.dt ** (-alpha) * rgamma_real(2.0 - alpha)
    return scale * causal_conv(dy, b)


def rl_integral(series: np.ndarray, beta: float, tg: TimeGrid) -> np.ndarray:
    """Riemann-Liouville integral J^beta by product integration, exact on
    piecewise-constant input (right-endpoint sampling on each cell)."""
    if beta <= 0.0:
        raise MLDomainError(f"integral order must be positive, got {beta}")
    series = np.asarray(series, dtype=np.complex128)
    if series.shape[0] != tg.n_t:
        raise GridMismatchError(
            f"series has {series.shape[0]} rows, grid has {tg.n_t}"
        )
    j = np.arange(tg.n_t)
    weights = (j + 1.0) ** beta - j**beta
    scale = tg.dt**beta * rgamma_real(beta + 1.0)
    return scale * causal_conv(series, weights)


def pde_residual(field: SpaceTimeField, y0: np.ndarray, src: SourceSpec | None,
                 order: FractionalOrder, A: Tridiag) -> float:
    """Max over grid times of || e^{-i phase} d^alpha y - A y - f ||_{L2,h};
    A is the matrix of -L, so the standard-phase residual is
    i d^alpha y - A y - f.  Every time row is formed and normed at once."""
    tg, grid = field.tg, field.grid
    y0 = np.asarray(y0, dtype=np.complex128)
    if A.n != grid.m or y0.shape != (grid.m,):
        raise GridMismatchError(f"operator size {A.n}, y0 shape {y0.shape} vs grid m={grid.m}")
    if src is not None and (src.rho.shape, src.g.shape) != ((tg.n_t,), (grid.m,)):
        raise GridMismatchError(f"source rho shape {src.rho.shape}, g shape {src.g.shape} "
                                f"vs n_t={tg.n_t}, m={grid.m}")
    dcap = caputo_l1(np.vstack([y0[None, :], field.values]), order.alpha, tg)
    rot = np.conj(order.phase_factor)  # unit modulus, so conj is e^{-i phi}
    r = rot * dcap - A.matvec(field.values.T).T
    if src is not None:
        r -= np.outer(src.rho, src.g)
    return math.sqrt(grid.h) * float(np.linalg.norm(r, axis=1).max())


def duhamel_check(src: SourceSpec, order: FractionalOrder, eig: EigenSystem,
                  tg: TimeGrid) -> float:
    """Discrepancy of the time-fractional Duhamel identity
    J^{1-alpha} y(g) = p * (rho * v(g)) (time convolution, p the source
    phase factor) for the source ``src`` = rho g, with y(g) the
    source-driven solution and v(g) the homogeneous one.  Both sides are
    discretized independently; the value should vanish under time
    refinement.

    The phase factor belongs to the identity: per mode both sides reduce
    to multiples of t E_{a,2}(p lam t^a), the driven side carrying the
    extra p from the source coupling.

    Both sides are compared as n_t x N modal coefficients, with one
    ``kernel_grid`` call per kind for every mode (the rows of
    ``KernelTable``, bit for bit); the eigenvectors are h-orthonormal,
    so coefficient norms equal grid norms up to rounding.
    """
    rho = src.rho
    if rho.shape != (tg.n_t,):
        raise GridMismatchError(f"rho shape {rho.shape} vs n_t={tg.n_t}")
    c = project(src.g, eig)
    dw = np.diff(kernel_grid(order, eig.lambdas, tg.dt * np.arange(tg.n_t + 1), "integral"))
    y = order.phase_factor * causal_conv(np.outer(rho, c), dw.T)
    del dw  # freed before the state kernels are built
    v = c * kernel_grid(order, eig.lambdas, tg.times, "state").T
    lhs = rl_integral(y, 1.0 - order.alpha, tg)
    rhs = order.phase_factor * tg.dt * causal_conv(v, rho)
    return float(np.linalg.norm(lhs - rhs, axis=1).max())


def decay_slope(y0: np.ndarray, order: FractionalOrder, eig: EigenSystem,
                indices: np.ndarray) -> float:
    """Log-log slope of t -> ||y(t,.)||_{L2(E),h} for the homogeneous
    solution at 25 times over [1e2, 1e4]; asymptotically -alpha, so decay is
    algebraic rather than faster than every polynomial."""
    times = np.geomspace(1e2, 1e4, 25)
    vals = eval_homogeneous(y0, order, eig, times)
    norms = math.sqrt(eig.grid.h) * np.linalg.norm(vals[:, indices], axis=1)
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    return float(slope)
