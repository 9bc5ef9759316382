import math

import numpy as np
import pytest

from tfslab.errors import EigenSolveError, EllipticityError, GridMismatchError
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

    def test_inner_product_conjugates_second_slot(self):
        grid = Grid1D(1.0, 3)
        u = np.array([1j, 0, 0])
        v = np.array([1j, 0, 0])
        assert grid.inner(u, v) == pytest.approx(0.25)

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
        eig = analytic_eigensystem(1.0, 3, grid)
        np.testing.assert_allclose(
            eig.lambdas, [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rtol=1e-14
        )

    def test_midpoint_value(self):
        grid = Grid1D(1.0, 63)  # x = 0.5 is a node (j = 32)
        eig = analytic_eigensystem(1.0, 1, grid)
        j = np.argmin(np.abs(grid.nodes - 0.5))
        assert eig.phis[0, j] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_longer_domain(self):
        grid = Grid1D(2.0, 31)
        eig = analytic_eigensystem(2.0, 1, grid)
        assert eig.lambdas[0] == pytest.approx(math.pi**2 / 4.0, rel=1e-14)

    def test_orthonormality(self):
        grid = Grid1D(1.0, 40)
        eig = analytic_eigensystem(1.0, 10, grid)
        gram = grid.h * (eig.phis @ eig.phis.T)
        assert np.max(np.abs(gram - np.eye(10))) <= 1e-10

    def test_too_many_modes(self):
        with pytest.raises(EigenSolveError):
            analytic_eigensystem(1.0, 64, Grid1D(1.0, 63))


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
        A = assemble_operator(
            OperatorSpec.from_callables(lambda x: 1.0 + 0.5 * x,
                                        lambda x: 2.0 * x, grid), grid)
        eig = eigen_solve(A, 6, grid)
        for lam, phi in zip(eig.lambdas, eig.phis):
            r = A.matvec(phi) - lam * phi
            assert np.linalg.norm(r) <= 1e-8 * lam * np.linalg.norm(phi)

    def test_variable_coefficients_positive_spectrum(self):
        grid = Grid1D(1.0, 63)
        spec = OperatorSpec.from_callables(lambda x: 1.0 + x * x, lambda x: 0.0, grid)
        eig = eigen_solve(assemble_operator(spec, grid), 5, grid)
        assert eig.lambdas[0] > 0.0
        assert np.all(np.diff(eig.lambdas) > 0.0)

    def test_too_many_modes(self):
        grid = Grid1D(1.0, 3)
        A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
        with pytest.raises(EigenSolveError):
            eigen_solve(A, 4, grid)


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
