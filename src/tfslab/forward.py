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
from .spectral import EigenSystem, Tridiag, _freeze


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
    """Separable source term rho(t) g(x), with ``rho`` sampled on the grid
    times and g given by its modal coefficients (``project`` turns node
    samples into them); a run without a source passes None where a
    ``SourceSpec`` is taken."""

    rho: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _freeze(np.asarray(self.rho, np.complex128)))
        object.__setattr__(self, "g", _freeze(np.asarray(self.g, np.complex128)))


def project(samples: np.ndarray, eig: EigenSystem) -> np.ndarray:
    """Modal coefficients <samples, phi_n>_h (conjugate-linear in phi_n;
    the eigenfunctions are real, so no conjugation is visible)."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape[0] != eig.grid.m:
        raise GridMismatchError(
            f"sample length {samples.shape[0]} vs grid m={eig.grid.m}"
        )
    return eig.grid.h * (eig.phis @ samples)


def _modal(c: np.ndarray, eig: EigenSystem, name: str) -> np.ndarray:
    """``c`` as a complex vector of one coefficient per mode of ``eig``."""
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (eig.n,):
        raise GridMismatchError(f"{name} has shape {c.shape}, the eigensystem {eig.n} modes")
    return c


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
    """The kernel rows of one order over one eigensystem and one time grid:
    mode n's state row E_{a,1}(p lam_n t^a) on the grid times, and its
    integral steps dW_n = diff W_n, where W_n(tau) = tau^a E_{a,a+1}(p lam_n
    tau^a) on the grid including t = 0 integrates the impulse kernel
    exactly over grid subintervals.

    Every grid solve and every Tikhonov design takes its order, eigensystem
    and time grid from a table.  Each mode's row of each kind is evaluated
    on first use, by one ``kernel_grid`` call for that mode, and kept, so a
    run that passes one table to its data solve, its design and its checks
    evaluates each row once.  A solve asks only for the rows of the modes
    its datum and source reach: a datum given by its modal coefficients
    takes no row for a mode whose coefficient is exactly zero.  An
    inversion rejects a table whose time grid is not its data's.  A table
    belongs to one run: nothing outlives it."""

    def __init__(self, order: FractionalOrder, eig: EigenSystem, tg: TimeGrid):
        self.order, self.eig, self.tg = order, eig, tg
        self._grids = {"state": tg.times, "integral": tg.dt * np.arange(tg.n_t + 1)}
        self._rows = {}

    def _stack(self, kind, modes):
        rows = np.empty((len(modes), self.tg.n_t), dtype=np.complex128)
        for k, n in enumerate(modes):
            if (kind, n) not in self._rows:
                row = kernel_grid(self.order, self.eig.lambdas[n], self._grids[kind], kind)
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


def source_rows(table: KernelTable, modes, rho: np.ndarray) -> np.ndarray:
    """Each listed mode's response p * conv(rho, dW_n) to the unit source
    rho(t) phi_n(x) on the grid times, p the phase factor, one row per mode
    of ``modes``, from one convolution call."""
    return table.order.phase_factor * causal_conv(rho, table.steps(modes).T).T


def solve_modal(c0: np.ndarray, src: SourceSpec | None, table: KernelTable) -> np.ndarray:
    """Modal solution on the table's eigensystem and time grid from the
    initial datum's modal coefficients ``c0``, modes x grid times: per mode,
    c_n(t) = c_n(0) E_{a,1}(p lam_n t^a) + g_n p * conv(rho, dW_n)(t)
    (see ``KernelTable`` and ``source_rows``).  A term whose coefficient
    c_n(0) or g_n, or whose rho, vanishes is exact zeros and takes no kernel
    row, so a datum given in modes evaluates only its own modes' rows."""
    eig, tg = table.eig, table.tg
    c0 = _modal(c0, eig, "initial datum")
    coeffs = np.zeros((eig.n, tg.n_t), dtype=np.complex128)
    live = np.flatnonzero(c0)
    coeffs[live] = c0[live, None] * table.state(live)
    if src is not None:
        if src.rho.shape[0] != tg.n_t:
            raise GridMismatchError(
                f"rho sampled at {src.rho.shape[0]} times, grid has {tg.n_t}"
            )
        g = _modal(src.g, eig, "source factor g")
        live = np.flatnonzero(g) if np.any(src.rho) else []
        coeffs[live] += g[live, None] * source_rows(table, live, src.rho)
    return coeffs


def synthesize_rows(coeffs: np.ndarray, phis: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo`` to ``hi - 1`` of the node samples ``coeffs.T @ phis``, bit for bit:
    a one-row product goes through gemv and rounds otherwise, so it is cut from two."""
    start = max(0, min(lo, hi - 2))
    return (coeffs[:, start:max(hi, start + 2)].T @ phis)[lo - start:hi - start]


def field_blocks(coeffs: np.ndarray, phis: np.ndarray):
    """The node samples ``coeffs.T @ phis`` in blocks of 32 rows, bit for bit (64-row
    blocks' temporaries held 0.55 of the field at m = 255); raises on a non-finite sample."""
    for lo in range(0, coeffs.shape[1], 32):
        block = synthesize_rows(coeffs, phis, lo, min(lo + 32, coeffs.shape[1]))
        if not np.all(np.isfinite(block)):
            raise GridMismatchError("field contains non-finite samples")
        yield block


def eval_homogeneous(c0: np.ndarray, order: FractionalOrder, eig: EigenSystem,
                     times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Homogeneous solution from the initial datum's modal coefficients
    ``c0`` at arbitrary positive times (long-horizon experiments run outside
    any uniform grid), synthesized on the grid nodes ``nodes`` only.  The
    modes whose coefficient is nonzero take their state rows from one
    ``kernel_grid`` call, bit for bit the rows of ``KernelTable.state``;
    the others take none."""
    c0 = _modal(c0, eig, "initial datum")
    live = np.flatnonzero(c0)
    rows = kernel_grid(order, eig.lambdas[live], times, "state")
    return (c0[live, None] * rows).T @ eig.phis[np.ix_(live, nodes)]


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


def pde_residual(coeffs: np.ndarray, table: KernelTable, y0: np.ndarray,
                 forcing: np.ndarray | None, A: Tridiag) -> float:
    """Max over grid times of || e^{-i phase} d^alpha y - A y - f ||_{L2,h}
    for the modal solution ``coeffs`` (modes x grid times) on the table,
    synthesized on the grid nodes, with the initial datum ``y0`` and the
    source ``forcing`` = f (None for none) as node samples, f one row per
    grid time; A is the matrix of -L, so the standard-phase residual is
    i d^alpha y - A y - f.  Every time row is formed and normed at once."""
    order, tg, grid = table.order, table.tg, table.eig.grid
    y0 = np.asarray(y0, dtype=np.complex128)
    if np.shape(coeffs) != (table.eig.n, tg.n_t) or A.n != grid.m or y0.shape != (grid.m,):
        raise GridMismatchError(f"coefficients {np.shape(coeffs)}, operator {A.n}, y0 {y0.shape}"
                                f" vs N={table.eig.n}, n_t={tg.n_t}, m={grid.m}")
    if forcing is not None and np.shape(forcing) != (tg.n_t, grid.m):
        raise GridMismatchError(f"forcing shape {np.shape(forcing)} vs n_t={tg.n_t}, m={grid.m}")
    values = coeffs.T @ table.eig.phis
    dcap = caputo_l1(np.vstack([y0[None, :], values]), order.alpha, tg)
    rot = np.conj(order.phase_factor)  # unit modulus, so conj is e^{-i phi}
    r = rot * dcap - A.matvec(values.T).T
    if forcing is not None:
        r -= forcing
    return math.sqrt(grid.h) * float(np.linalg.norm(r, axis=1).max())


def duhamel_check(src: SourceSpec, table: KernelTable) -> float:
    """Discrepancy of the time-fractional Duhamel identity
    J^{1-alpha} y(g) = p * (rho * v(g)) (time convolution, p the source
    phase factor) for the source ``src`` = rho g, with y(g) the
    source-driven solution and v(g) the homogeneous one, both solved on the
    table and compared as modal coefficients, whose norms are grid norms up
    to rounding (the eigenvectors are h-orthonormal).  Both sides are
    discretized independently; the value should vanish under time
    refinement.

    The phase factor belongs to the identity: per mode both sides reduce
    to multiples of t E_{a,2}(p lam t^a), the driven side carrying the
    extra p from the source coupling."""
    y = solve_modal(np.zeros(table.eig.n), src, table).T
    v = solve_modal(src.g, None, table).T
    lhs = rl_integral(y, 1.0 - table.order.alpha, table.tg)
    rhs = table.order.phase_factor * table.tg.dt * causal_conv(v, src.rho)
    return float(np.linalg.norm(lhs - rhs, axis=1).max())


def decay_slope(c0: np.ndarray, order: FractionalOrder, eig: EigenSystem,
                indices: np.ndarray) -> float:
    """Log-log slope of t -> ||y(t,.)||_{L2(E),h} for the homogeneous
    solution from the modal coefficients ``c0``, at 25 times over [1e2, 1e4]
    and on the nodes ``indices`` of E; asymptotically -alpha, so decay is
    algebraic rather than faster than every polynomial."""
    times = np.geomspace(1e2, 1e4, 25)
    vals = eval_homogeneous(c0, order, eig, times, indices)
    norms = math.sqrt(eig.grid.h) * np.linalg.norm(vals, axis=1)
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    return float(slope)
