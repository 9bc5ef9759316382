import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from tfslab.errors import (EigenSolveError, EllipticityError, GridMismatchError,
                           OperatorOverflowError)
from tfslab.spectral import (
    EigenGroup,
    EigenSystem,
    Grid1D,
    OperatorSpec,
    Tridiag,
    analytic_eigensystem,
    assemble_operator,
    eigen_solve,
)


class TestGrid:
    def test_nodes_and_spacing(self):
        grid = Grid1D(1.0, 3)
        assert grid.h == pytest.approx(0.25)
        np.testing.assert_allclose(grid.nodes, [0.25, 0.5, 0.75])

    def test_too_few_nodes(self):
        with pytest.raises(GridMismatchError):
            Grid1D(1.0, 2)


class TestAssemble:
    def test_laplacian_stencil(self):
        grid = Grid1D(1.0, 3)
        A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
        np.testing.assert_allclose(A.diag, [32.0, 32.0, 32.0])
        np.testing.assert_allclose(A.off, [-16.0, -16.0])

    def test_zeroth_order_shift(self):
        grid = Grid1D(1.0, 3)
        A = assemble_operator(OperatorSpec.constant(1.0, 5.0, grid), grid)
        np.testing.assert_allclose(A.diag, [37.0, 37.0, 37.0])
        np.testing.assert_allclose(A.off, [-16.0, -16.0])

    def test_linearity_in_diffusion(self):
        grid = Grid1D(1.0, 3)
        A = assemble_operator(OperatorSpec.constant(2.0, 0.0, grid), grid)
        np.testing.assert_allclose(A.diag, [64.0, 64.0, 64.0])
        np.testing.assert_allclose(A.off, [-32.0, -32.0])

    def test_ellipticity_violation(self):
        grid = Grid1D(1.0, 5)
        with pytest.raises(EllipticityError):
            OperatorSpec(np.full(6, 0.1), np.zeros(5), kappa=0.5)
        with pytest.raises(EllipticityError):
            OperatorSpec(np.full(6, 1.0), np.full(5, -0.1), kappa=0.5)


class TestAnalytic:
    def test_eigenvalues(self):
        grid = Grid1D(1.0, 63)
        eig = analytic_eigensystem(3, grid)
        np.testing.assert_allclose(
            eig.lambdas, [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rtol=1e-14
        )

    def test_midpoint_value(self):
        grid = Grid1D(1.0, 63)  # x = 0.5 is a node (j = 32)
        eig = analytic_eigensystem(1, grid)
        j = np.argmin(np.abs(grid.nodes - 0.5))
        assert eig.phis[0, j] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_longer_domain(self):
        grid = Grid1D(2.0, 31)
        eig = analytic_eigensystem(1, grid)
        assert eig.lambdas[0] == pytest.approx(math.pi**2 / 4.0, rel=1e-14)

    def test_orthonormality(self):
        grid = Grid1D(1.0, 40)
        eig = analytic_eigensystem(10, grid)
        gram = grid.h * (eig.phis @ eig.phis.T)
        assert np.max(np.abs(gram - np.eye(10))) <= 1e-10

    def test_too_many_modes(self):
        with pytest.raises(EigenSolveError):
            analytic_eigensystem(64, Grid1D(1.0, 63))

    def test_overflowing_eigenvalues_raise_without_warning(self):
        # (N pi / L)^2 beyond double range for L below about N * 2.3e-154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorOverflowError, match="exceed double precision"):
                analytic_eigensystem(3, Grid1D(1e-160, 15))


class TestEigenSolve:
    def test_fd_eigenvalues_closed_form(self):
        # lambda_k = (4/h^2) sin^2(k pi h / 2) for the uniform Laplacian
        grid = Grid1D(1.0, 3)
        A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
        eig = eigen_solve(A, 3, grid)
        h = grid.h
        expect = [4.0 / h**2 * math.sin(k * math.pi * h / 2.0) ** 2 for k in (1, 2, 3)]
        np.testing.assert_allclose(eig.lambdas, expect, rtol=1e-12)
        assert eig.lambdas[0] == pytest.approx(64.0 * math.sin(math.pi / 8.0) ** 2)
        assert eig.lambdas[2] == pytest.approx(64.0 * math.sin(3 * math.pi / 8.0) ** 2)

    def test_diagonal_matrix(self):
        grid = Grid1D(1.0, 3)
        A = Tridiag(np.array([1.0, 2.0, 5.0]), np.zeros(2))
        eig = eigen_solve(A, 3, grid)
        np.testing.assert_allclose(eig.lambdas, [1.0, 2.0, 5.0])
        # h-normalized unit vectors
        np.testing.assert_allclose(np.abs(eig.phis), np.eye(3) / math.sqrt(grid.h),
                                   atol=1e-12)

    def test_degenerate_grouping(self):
        grid = Grid1D(1.0, 4)
        A = Tridiag(np.array([2.0, 2.0, 5.0, 7.0]), np.zeros(3))
        eig = eigen_solve(A, 4, grid)
        mults = [(g.mu, g.multiplicity) for g in eig.distinct]
        assert mults == [(2.0, 2), (5.0, 1), (7.0, 1)]

    def test_convergence_order(self):
        errs = []
        for m in (31, 63, 127):
            grid = Grid1D(1.0, m)
            A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
            eig = eigen_solve(A, 1, grid)
            errs.append(abs(eig.lambdas[0] - math.pi**2))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.9 <= o <= 2.1 for o in orders)

    def test_positivity_floor(self):
        grid = Grid1D(1.0, 63)
        A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
        eig = eigen_solve(A, 4, grid)
        assert eig.lambdas[0] >= math.pi**2 * (1.0 - 10.0 * grid.h**2)

    def test_rayleigh_residual(self):
        grid = Grid1D(1.0, 63)
        mids = grid.h * (np.arange(grid.m + 1) + 0.5)
        A = assemble_operator(OperatorSpec(1.0 + 0.5 * mids, 2.0 * grid.nodes, 1.0), grid)
        eig = eigen_solve(A, 6, grid)
        for lam, phi in zip(eig.lambdas, eig.phis):
            r = A.matvec(phi) - lam * phi
            assert np.linalg.norm(r) <= 1e-8 * lam * np.linalg.norm(phi)

    def test_variable_coefficients_positive_spectrum(self):
        grid = Grid1D(1.0, 63)
        mids = grid.h * (np.arange(grid.m + 1) + 0.5)
        spec = OperatorSpec(1.0 + mids * mids, np.zeros(grid.m), 1.0)
        eig = eigen_solve(assemble_operator(spec, grid), 5, grid)
        assert eig.lambdas[0] > 0.0
        assert np.all(np.diff(eig.lambdas) > 0.0)

    def test_too_many_modes(self):
        grid = Grid1D(1.0, 3)
        A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
        with pytest.raises(EigenSolveError):
            eigen_solve(A, 4, grid)


def tolerance(diag, off):
    """2 eps ||T||_1, the eigenvalue tolerance against LAPACK."""
    rows = np.abs(diag) + np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    return 2.0 * np.finfo(float).eps * np.max(rows)


def forward_output_operator(grid):
    """a = 1 + 0.3 sin(2 pi x) on the midpoints, p = x on the nodes."""
    mids = grid.h * (np.arange(grid.m + 1) + 0.5)
    return OperatorSpec(1.0 + 0.3 * np.sin(2.0 * math.pi * mids), grid.nodes, 0.5)


class TestAgainstLapack:
    """The numpy solver against scipy's eigh_tridiagonal (LAPACK stebz and
    stein), a test oracle only."""

    @pytest.mark.parametrize("m", [3, 15, 63, 99, 511, 2047])
    @pytest.mark.parametrize("coefficients", ["constant", "variable"])
    def test_matches_eigh_tridiagonal(self, m, coefficients):
        grid = Grid1D(1.0, m)
        spec = (OperatorSpec.constant(1.0, 0.0, grid) if coefficients == "constant"
                else forward_output_operator(grid))
        A = assemble_operator(spec, grid)
        n = min(m, 16 if m > 511 else 8)
        eig = eigen_solve(A, n, grid)
        lam, vec = scipy.linalg.eigh_tridiagonal(A.diag, A.off, select="i",
                                                 select_range=(0, n - 1))
        assert np.max(np.abs(eig.lambdas - lam)) <= tolerance(A.diag, A.off)
        ref = vec.T / math.sqrt(grid.h)
        # the largest entries of a symmetric mode tie in magnitude, so the
        # signs are matched by inner product
        ref *= np.sign(np.sum(ref * eig.phis, axis=1))[:, None]
        assert np.max(np.abs(eig.phis - ref)) <= 1e-10

    def test_split_matrix_doubles_eigenvalues(self):
        # two m = 7 Laplacians joined by a zero off-diagonal: every
        # eigenvalue is double and its two vectors are orthonormal
        block = assemble_operator(OperatorSpec.constant(1.0, 0.0, Grid1D(1.0, 7)),
                                  Grid1D(1.0, 7))
        grid = Grid1D(1.0, 14)
        A = Tridiag(np.r_[block.diag, block.diag], np.r_[block.off, 0.0, block.off])
        eig = eigen_solve(A, 14, grid)
        assert [g.multiplicity for g in eig.distinct] == [2] * 7
        lam = scipy.linalg.eigh_tridiagonal(block.diag, block.off, eigvals_only=True)
        np.testing.assert_allclose(eig.lambdas, np.repeat(lam, 2), rtol=1e-13)
        gram = grid.h * (eig.phis @ eig.phis.T)
        assert np.max(np.abs(gram - np.eye(14))) <= 1e-14

    @pytest.mark.parametrize("coupling", [1e-6, 1e-10])
    def test_weakly_coupled_blocks_cluster(self, coupling):
        # a small coupling splits each double eigenvalue into a cluster of
        # width ~coupling: the vectors are re-orthogonalized within it and
        # span the same pairs as LAPACK's
        block = assemble_operator(OperatorSpec.constant(1.0, 0.0, Grid1D(1.0, 7)),
                                  Grid1D(1.0, 7))
        grid = Grid1D(1.0, 14)
        off = np.r_[block.off, coupling * block.off[0], block.off]
        diag = np.r_[block.diag, block.diag]
        eig = eigen_solve(Tridiag(diag, off), 14, grid)
        lam, vec = scipy.linalg.eigh_tridiagonal(diag, off)
        assert np.max(np.abs(eig.lambdas - lam)) <= tolerance(diag, off)
        ref = vec.T / math.sqrt(grid.h)
        for k in range(0, 14, 2):
            overlap = grid.h * eig.phis[k:k + 2] @ ref[k:k + 2].T
            np.testing.assert_allclose(np.linalg.svd(overlap, compute_uv=False), 1.0,
                                       atol=1e-10)

    @pytest.mark.parametrize("m", [15, 63, 511])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_huge_coefficient_never_warns(self, m, where):
        # an a entry of 1e300 would overflow squared off-diagonals without
        # the solver's power-of-two scaling
        grid = Grid1D(1.0, m)
        a = np.ones(m + 1)
        a[{"first": 0, "middle": m // 2, "last": m}[where]] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                eig = eigen_solve(assemble_operator(OperatorSpec(a, np.zeros(m), 1.0), grid),
                                  4, grid)
            except (EigenSolveError, OperatorOverflowError):
                return
        assert np.all(np.isfinite(eig.lambdas))


class TestEigenSystemInvariants:
    def test_rejects_nonascending(self):
        grid = Grid1D(1.0, 3)
        phis = np.eye(3) / math.sqrt(grid.h)
        with pytest.raises(EigenSolveError):
            EigenSystem(grid, np.array([2.0, 1.0, 3.0]), phis,
                        (EigenGroup(2.0, 0, 3),))

    def test_rejects_nonpositive(self):
        grid = Grid1D(1.0, 3)
        phis = np.eye(3) / math.sqrt(grid.h)
        with pytest.raises(EigenSolveError):
            EigenSystem(grid, np.array([-1.0, 1.0, 2.0]), phis,
                        (EigenGroup(-1.0, 0, 3),))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        grid = Grid1D(1.0, 3)
        phis = np.eye(3) / math.sqrt(grid.h)
        with pytest.raises(EigenSolveError, match="finite"):
            EigenSystem(grid, np.array([1.0, 2.0, bad]), phis,
                        (EigenGroup(1.0, 0, 1), EigenGroup(2.0, 1, 2),
                         EigenGroup(bad, 2, 3)))

    def test_rejects_non_orthonormal(self):
        grid = Grid1D(1.0, 3)
        with pytest.raises(EigenSolveError):
            EigenSystem(grid, np.array([1.0, 2.0, 3.0]), np.ones((3, 3)),
                        (EigenGroup(1.0, 0, 1), EigenGroup(2.0, 1, 2),
                         EigenGroup(3.0, 2, 3)))

    def test_rejects_gapped_grouping(self):
        grid = Grid1D(1.0, 3)
        phis = np.eye(3) / math.sqrt(grid.h)
        with pytest.raises(EigenSolveError):
            EigenSystem(grid, np.array([1.0, 2.0, 3.0]), phis,
                        (EigenGroup(1.0, 0, 1), EigenGroup(3.0, 2, 3)))
