import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from tfslab.errors import (
    FlatMisfitError,
    GridMismatchError,
    MLAccuracyError,
    MLDomainError,
    OperatorOverflowError,
    RankDeficientError,
    SourceHypothesisError,
)
from tfslab import forward, inverse
from tfslab.forward import SourceSpec, TimeGrid, project, solve_forward
from tfslab.inverse import (
    OrderSearchConfig,
    TikhonovConfig,
    contour_for_mode,
    extract_modal_projection,
    invert_initial,
    invert_order,
    invert_source,
    laplace_identity_gap,
    modal_resolvent,
    order_misfit,
)
from tfslab.mlf import FractionalOrder, kernel_grid
from tfslab.observe import make_mask, observe
from tfslab.spectral import (
    EigenGroup,
    EigenSystem,
    Grid1D,
    OperatorSpec,
    analytic_eigensystem,
    assemble_operator,
    eigen_solve,
)


@pytest.fixture(scope="module")
def small_eig():
    return analytic_eigensystem(1.0, 3, Grid1D(1.0, 19))


@pytest.fixture(scope="module")
def setup():
    grid = Grid1D(1.0, 99)
    eig = analytic_eigensystem(1.0, 8, grid)
    tg = TimeGrid(1.0, 50)
    mask = make_mask([(0.2, 0.4)], grid)
    return grid, eig, tg, mask


class TestDesignMatrix:
    def test_near_zero_eigenvalue_column_is_constant(self):
        # lambda -> 0 turns the state kernel into 1, so the column repeats
        # the eigenfunction samples across time
        grid = Grid1D(1.0, 3)
        phis = np.eye(3) / math.sqrt(grid.h)
        eig = EigenSystem(grid, np.array([1e-14, 1.0, 2.0]), phis,
                          (EigenGroup(1e-14, 0, 1), EigenGroup(1.0, 1, 2),
                           EigenGroup(2.0, 2, 3)))
        tg = TimeGrid(1.0, 5)
        mask = make_mask([(0.0, 1.0)], grid)
        G = inverse._separable_design(eig, FractionalOrder(0.5), tg, mask, 3)
        col = G[:, 0].reshape(5, 3)
        assert np.max(np.abs(col - col[0])) <= 1e-6 * np.max(np.abs(col))

    def test_weighting(self, setup):
        grid, eig, tg, mask = setup
        G = inverse._separable_design(eig, FractionalOrder(0.5), tg, mask, 4)
        # first column at the first time: E * phi * sqrt(h dt)
        k = kernel_grid(FractionalOrder(0.5), float(eig.lambdas[0]),
                        tg.times[:1], "state")[0]
        expect = k * eig.phis[0, mask.indices] * math.sqrt(grid.h * tg.dt)
        np.testing.assert_allclose(G[: mask.n_nodes, 0], expect, rtol=1e-12)

    def test_sigma_min_positive_and_monotone_under_mask_shrink(self, setup):
        grid, eig, tg, _ = setup
        sigmas = []
        for iv in ((0.2, 0.8), (0.2, 0.5), (0.2, 0.4)):
            mask = make_mask([iv], grid)
            G = inverse._separable_design(eig, FractionalOrder(0.9), tg, mask, 8)
            sigmas.append(scipy.linalg.svdvals(G)[-1])
        assert sigmas[0] > 0.0
        assert sigmas[0] >= sigmas[1] >= sigmas[2] > 0.0


class TestInvertInitial:
    def test_zero_data_gives_zero(self, setup):
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.9)
        zero = observe(
            solve_forward(np.zeros(grid.m), None, order, eig, tg),
            mask, 0.0, 0)
        res = invert_initial(zero, order, eig, TikhonovConfig(1e-8, 8))
        assert np.max(np.abs(res.modal)) == 0.0

    def test_noiseless_single_mode(self, setup):
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.9)
        y = solve_forward(eig.phis[0].astype(complex), None, order,
                          eig, tg)
        res = invert_initial(observe(y, mask, 0.0, 0), order, eig,
                             TikhonovConfig(1e-10, 8))
        e1 = np.zeros(8, dtype=complex)
        e1[0] = 1.0
        assert np.linalg.norm(res.modal - e1) <= 1e-6

    def test_noisy_mixed_recovery(self, setup):
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.9)
        y0 = (eig.phis[0] + eig.phis[1]) / math.sqrt(2.0)
        y = solve_forward(y0.astype(complex), None, order, eig, tg)
        # discrepancy-flavored choice: gamma at the noise-power scale
        res = invert_initial(observe(y, mask, 1e-3, 5), order, eig,
                             TikhonovConfig(1e-6, 8))
        truth = project(y0.astype(complex), eig)
        rel = np.linalg.norm(res.modal - truth) / np.linalg.norm(truth)
        assert rel <= 1e-1

    def test_rank_deficient_rejected_at_zero_gamma(self, setup):
        # one node at two times gives 2 data rows for 8 unknowns: the thin
        # SVD returns 2 singular values, none of them zero, yet the design
        # has a null space
        grid = Grid1D(1.0, 15)
        eig = analytic_eigensystem(1.0, 8, grid)
        order = FractionalOrder(0.5)
        tg = TimeGrid(1.0, 2)
        mask = make_mask([(0.5, 0.53)], grid)
        assert mask.n_nodes == 1
        y = solve_forward(eig.phis[0].astype(complex), None, order,
                          eig, tg)
        with pytest.raises(RankDeficientError):
            invert_initial(observe(y, mask, 0.0, 0), order, eig, TikhonovConfig(0.0, 8))
        # a tall design with a duplicated column
        grid, eig, tg, mask = setup
        G = inverse._separable_design(eig, order, tg, mask, 8)
        G = np.column_stack([G, G[:, -1]])
        with pytest.raises(RankDeficientError):
            inverse._tikhonov_solve(G, G[:, 0], 0.0)

    @pytest.mark.parametrize("scale,gamma", [
        (1e-1, 1e-12),  # NaN coefficients
    ])
    def test_overflowing_solution_rejected(self, setup, scale, gamma):
        # noise level 1e308 leaves the data and the weighted design finite,
        # but not the filtered solution
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.9)
        y = solve_forward(scale * eig.phis[0].astype(complex), None,
                          order, eig, tg)
        data = observe(y, mask, 1e308, 3)
        assert np.isfinite(data.values).all()
        with pytest.raises(OperatorOverflowError, match="Tikhonov coefficients"):
            invert_initial(data, order, eig, TikhonovConfig(gamma, 8))

    def test_norms_past_the_squares_range(self, setup):
        # noise level 1e308: the coefficients (max 5.7e305) and the residual
        # entries (max 5.7e303) are finite, but their squares overflow the
        # plain norm; both norms are still finite, and match the
        # overflow-safe math.hypot
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.9)
        y = solve_forward(1e-3 * eig.phis[0].astype(complex), None,
                          order, eig, tg)
        data = observe(y, mask, 1e308, 3)
        res = invert_initial(data, order, eig, TikhonovConfig(1e-6, 8))
        G = inverse._separable_design(eig, order, tg, mask, 8)
        d = math.sqrt(grid.h * tg.dt) * data.values.ravel()
        r = G @ res.modal - d
        for got, v in ((res.residual, r), (res.reg_norm, res.modal)):
            assert math.isfinite(got) and np.isfinite(v).all()
            assert got == pytest.approx(math.hypot(*v.real, *v.imag), rel=1e-12)
        # an ordinary vector keeps the plain norm's bits
        assert inverse._norm(r * 1e-300) == float(np.linalg.norm(r * 1e-300))

    def test_tikhonov_noise_ladder(self, setup):
        # gamma = noise^2: reconstruction error decreases with the noise
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.9)
        y0 = (eig.phis[0] + eig.phis[1]) / math.sqrt(2.0)
        truth = project(y0.astype(complex), eig)
        y = solve_forward(y0.astype(complex), None, order, eig, tg)
        errs = []
        for level in (1e-2, 1e-3, 1e-4):
            data = observe(y, mask, level, 11)
            res = invert_initial(data, order, eig, TikhonovConfig(level**2, 8))
            errs.append(np.linalg.norm(res.modal - truth))
        assert errs[0] > errs[1] > errs[2]

    def test_matches_stacked_least_squares(self, setup):
        # reference: min |G c - d|^2 + gamma |c|^2 as one least-squares
        # problem on [G; sqrt(gamma) I] c = [d; 0]
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.9)
        G = inverse._separable_design(eig, order, tg, mask, 8)
        y0 = (eig.phis[0] + eig.phis[1]) / math.sqrt(2.0)
        y = solve_forward(y0.astype(complex), None, order, eig, tg)
        data = observe(y, mask, 1e-3, 5)
        gamma = 1e-6
        res = invert_initial(data, order, eig, TikhonovConfig(gamma, 8))
        d = math.sqrt(grid.h * tg.dt) * data.values.ravel()
        A = np.vstack([G, math.sqrt(gamma) * np.eye(8)])
        ref = np.linalg.lstsq(A, np.concatenate([d, np.zeros(8)]), rcond=None)[0]
        np.testing.assert_allclose(res.modal, ref, rtol=1e-9, atol=1e-12)
        sing = scipy.linalg.svdvals(G)
        assert res.diagnostics["sigma_min"] == pytest.approx(sing[-1], rel=1e-12)
        assert res.diagnostics["sigma_max"] == pytest.approx(sing[0], rel=1e-12)


class TestInvertSource:
    def test_noiseless_mode_recovery(self, setup):
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.95)
        rho = np.ones(tg.n_t, dtype=complex)
        y = solve_forward(np.zeros(grid.m),
                          SourceSpec(rho, eig.phis[1]), order, eig, tg)
        res = invert_source(observe(y, mask, 0.0, 0), rho, order, eig,
                            TikhonovConfig(1e-12, 8))
        e2 = np.zeros(8, dtype=complex)
        e2[1] = 1.0
        assert np.linalg.norm(res.modal - e2) <= 1e-5

    def test_zero_data_gives_zero(self, setup):
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.5)
        rho = np.ones(tg.n_t, dtype=complex)
        zero = observe(
            solve_forward(np.zeros(grid.m), None, order, eig, tg),
            mask, 0.0, 0)
        res = invert_source(zero, rho, order, eig, TikhonovConfig(1e-10, 8))
        assert np.max(np.abs(res.modal)) <= 1e-14

    def test_parabolic_rho_mixture_recovery(self, setup):
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.95)
        t = tg.times
        rho = (t * (1.0 - t)).astype(complex)
        g = (0.8 * eig.phis[0] - 0.6 * eig.phis[2]).astype(complex)
        y = solve_forward(np.zeros(grid.m), SourceSpec(rho, g),
                          order, eig, tg)
        # the weighted source columns are O(1e-4), so gamma sits at the
        # squared-noise scale of the weighted data, not of the raw field
        res = invert_source(observe(y, mask, 1e-3, 3), rho, order, eig,
                            TikhonovConfig(1e-12, 8))
        truth = project(g, eig)
        rel = np.linalg.norm(res.modal - truth) / np.linalg.norm(truth)
        assert rel <= 1e-1

    def test_vanishing_rho_rejected(self, setup):
        grid, eig, tg, mask = setup
        order = FractionalOrder(0.5)
        zero = observe(
            solve_forward(np.zeros(grid.m), None, order, eig, tg),
            mask, 0.0, 0)
        with pytest.raises(SourceHypothesisError):
            invert_source(zero, np.zeros(tg.n_t), order, eig, TikhonovConfig(1e-10, 8))


class TestSourceGuards:
    def test_too_many_unknowns(self, setup):
        grid, eig, tg, mask = setup
        rho = np.ones(tg.n_t, dtype=complex)
        data = observe(solve_forward(np.zeros(grid.m), None,
                                     FractionalOrder(0.5), eig, tg), mask, 0.0, 0)
        with pytest.raises(GridMismatchError):
            invert_source(data, rho, FractionalOrder(0.5), eig,
                          TikhonovConfig(1e-10, eig.n + 1))

    def test_mask_on_another_grid(self, setup):
        # data observed on m = 49 nodes, inverted with an eigensystem on 99
        grid, eig, tg, mask = setup
        coarse = Grid1D(1.0, 49)
        eig49 = analytic_eigensystem(1.0, 8, coarse)
        order = FractionalOrder(0.5)
        y0 = eig49.phis[0].astype(complex)
        data = observe(solve_forward(y0, None, order, eig49, tg),
                       make_mask([(0.2, 0.4)], coarse), 0.0, 0)
        rho = np.ones(tg.n_t, dtype=complex)
        with pytest.raises(GridMismatchError):
            invert_initial(data, order, eig, TikhonovConfig(1e-10, 4))
        with pytest.raises(GridMismatchError):
            invert_source(data, rho, order, eig, TikhonovConfig(1e-10, 4))
        with pytest.raises(GridMismatchError):
            invert_order(data, eig.phis[0].astype(complex), eig,
                         OrderSearchConfig(0.25, 0.85, 25, 1e-4))

    @pytest.mark.parametrize("where", ["mask", "time"])
    def test_data_observed_elsewhere(self, setup, where):
        # each inversion reads E and the time grid from the data, so data
        # observed off the fixture's set, or up to another horizon, invert
        # to the truth at the noiseless tests' tolerances
        grid, eig, tg, mask = setup
        if where == "mask":
            mask = make_mask([(0.5, 0.7)], grid)
        else:  # twice the horizon at the same step
            tg = TimeGrid(2.0 * tg.T, 2 * tg.n_t)

        def observed(y0, src, order):
            return observe(solve_forward(y0, src, order, eig, tg), mask, 0.0, 0)

        unit = np.eye(8, dtype=complex)
        order = FractionalOrder(0.9)
        y0 = eig.phis[0].astype(complex)
        res = invert_initial(observed(y0, None, order), order, eig,
                             TikhonovConfig(1e-10, 8))
        assert np.linalg.norm(res.modal - unit[0]) <= 1e-6
        order = FractionalOrder(0.95)
        rho = np.ones(tg.n_t, dtype=complex)
        data = observed(np.zeros(grid.m), SourceSpec(rho, eig.phis[1]), order)
        res = invert_source(data, rho, order, eig, TikhonovConfig(1e-12, 8))
        assert np.linalg.norm(res.modal - unit[1]) <= 1e-5
        data = observed(y0, None, FractionalOrder(0.5))
        res = invert_order(data, y0, eig, OrderSearchConfig(0.25, 0.85, 25, 1e-4))
        assert abs(res.order - 0.5) <= 1e-3


class TestModalDesignsMatchForwardSolves:
    """The closed-form designs against columns and misfits assembled from
    full forward solves, the reference they replace."""

    @pytest.fixture(scope="class", params=["analytic", "finite-difference"])
    def system(self, request):
        if request.param == "analytic":
            eig = analytic_eigensystem(1.0, 10, Grid1D(1.0, 99))
            order = FractionalOrder(0.6)
        else:
            grid = Grid1D(1.0, 63)
            mids = grid.h * (np.arange(grid.m + 1) + 0.5)
            spec = OperatorSpec(1.0 + 0.5 * mids, 2.0 * grid.nodes, 1.0)
            eig = eigen_solve(assemble_operator(spec, grid), 10, grid)
            order = FractionalOrder(0.95, "power_i_alpha")
        return eig, order, TimeGrid(1.0, 60), make_mask([(0.1, 0.35)], eig.grid)

    def test_source_design(self, system):
        import tfslab.inverse as inv

        eig, order, tg, mask = system
        t = tg.times
        rho = (np.cos(3.0 * t) + 1j * t).astype(complex)
        w = math.sqrt(eig.grid.h * tg.dt)
        ref = np.column_stack([
            w * mask.restrict(solve_forward(
                np.zeros(eig.grid.m), SourceSpec(rho, eig.phis[n]),
                order, eig, tg).values).ravel()
            for n in range(6)
        ])
        got = inv._separable_design(eig, order, tg, mask, 6, rho)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_order_misfit_is_exact(self, system):
        eig, order, tg, mask = system
        y0 = (eig.phis[0] - 0.5j * eig.phis[2]).astype(complex)
        data = observe(solve_forward(y0, None, order, eig, tg),
                       mask, 1e-3, 11)
        for alpha in (0.45, 0.8):
            trial = FractionalOrder(alpha, order.phase)
            traj = solve_forward(y0, None, trial, eig, tg)
            diff = mask.restrict(traj.values) - data.values
            ref = float(eig.grid.h * tg.dt * np.sum(np.abs(diff) ** 2))
            assert order_misfit(data, y0, alpha, order.phase, eig) == ref

    def test_kernel_calls(self, system, monkeypatch):
        # a forward solve with a source, from a datum with a nonzero
        # coefficient on every mode, makes one kernel_grid call per mode and
        # kind, the 2N calls that the benchmark's self-check
        # (perfbench/selfcheck.py) counts; an order misfit makes one call
        # across all modes per trial order
        eig, order, tg, mask = system
        calls = []
        exact = forward.kernel_grid
        monkeypatch.setattr(forward, "kernel_grid",
                            lambda *args: calls.append(np.shape(args[1])) or exact(*args))
        y0 = (eig.phis[0] - 0.5j * eig.phis[2]).astype(complex)
        src = SourceSpec(np.ones(tg.n_t), eig.phis.sum(axis=0).astype(complex))
        solve_forward(y0, src, order, eig, tg)
        assert calls == [()] * (2 * eig.n)
        data = observe(solve_forward(y0, None, order, eig, tg), mask, 1e-3, 11)
        calls.clear()
        res = invert_order(data, y0, eig, OrderSearchConfig(0.3, 0.9, 5, 1e-2), order.phase)
        assert calls == [(eig.n,)] * res.diagnostics["evaluations"]


    @pytest.mark.parametrize("source", [False, True])
    def test_design_reads_the_data_solve_table(self, system, monkeypatch, source):
        # the design of an inversion at the truth order takes every row from
        # the table of the solve behind its data, and matches a design that
        # evaluates its own rows bit for bit
        eig, order, tg, mask = system
        calls = []
        exact = forward.kernel_grid
        monkeypatch.setattr(forward, "kernel_grid",
                            lambda *args: calls.append(args[3]) or exact(*args))
        rho = np.exp(2j * tg.times)
        table = forward.KernelTable(order, eig.lambdas, tg)
        if source:
            y0, src = np.zeros(eig.grid.m), SourceSpec(rho, eig.phis.sum(axis=0))
        else:
            y0, src = eig.phis.sum(axis=0) * (1.0 - 0.5j), None
        data = observe(solve_forward(y0, src, table, eig, tg), mask, 1e-3, 5)
        assert calls == ["integral" if source else "state"] * eig.n
        calls.clear()
        cfg = TikhonovConfig(1e-8, 6)
        if source:
            got, ref = (invert_source(data, rho, o, eig, cfg) for o in (table, order))
        else:
            got, ref = (invert_initial(data, o, eig, cfg) for o in (table, order))
        assert calls == ["integral" if source else "state"] * 6  # ref's rows only
        assert np.array_equal(got.modal, ref.modal) and got.residual == ref.residual

class TestInvertOrder:
    def test_noiseless_truth_recovery(self, setup):
        grid, eig, tg, mask = setup
        y0 = eig.phis[0].astype(complex)
        y = solve_forward(y0, None, FractionalOrder(0.5), eig, tg)
        data = observe(y, mask, 0.0, 0)
        res = invert_order(data, y0, eig, OrderSearchConfig(0.25, 0.85, 25, 1e-4))
        assert abs(res.order - 0.5) <= 1e-3
        assert res.residual <= 1e-10

    def test_misfit_vanishes_at_truth(self, setup):
        grid, eig, tg, mask = setup
        y0 = eig.phis[0].astype(complex)
        y = solve_forward(y0, None, FractionalOrder(0.4), eig, tg)
        data = observe(y, mask, 0.0, 0)
        assert order_misfit(data, y0, 0.4, "standard_i", eig) <= 1e-22

    def test_discriminability(self, setup):
        grid, eig, tg, mask = setup
        y0 = eig.phis[0].astype(complex)
        y = solve_forward(y0, None, FractionalOrder(0.4), eig, tg)
        data = observe(y, mask, 0.0, 0)
        m = order_misfit(data, y0, 0.6, "standard_i", eig)
        d2 = float(grid.h * tg.dt * np.sum(np.abs(data.values) ** 2))
        assert m > 1e-3 * d2

    def test_zero_datum_rejected(self, setup):
        grid, eig, tg, mask = setup
        y0 = eig.phis[0].astype(complex)
        y = solve_forward(y0, None, FractionalOrder(0.5), eig, tg)
        data = observe(y, mask, 0.0, 0)
        with pytest.raises(SourceHypothesisError):
            invert_order(data, np.zeros(grid.m), eig, OrderSearchConfig(0.3, 0.7))

    def test_refine_tol_below_float_resolution_ends(self, setup, monkeypatch):
        # the bracket cannot shrink below one ulp; a tolerance under that
        # must end the search at the float resolution, not loop forever
        grid, eig, tg, mask = setup
        y0 = eig.phis[0].astype(complex)
        y = solve_forward(y0, None, FractionalOrder(0.5), eig, tg)
        data = observe(y, mask, 0.0, 0)
        calls = []

        def counted(*args):
            calls.append(args[2])
            assert len(calls) <= 200, "the order search did not end"
            return order_misfit(*args)

        monkeypatch.setattr(inverse, "order_misfit", counted)
        res = invert_order(data, y0, eig, OrderSearchConfig(0.25, 0.85, 25, 1e-300))
        assert abs(res.order - 0.5) <= 1e-3

    @staticmethod
    def counted_search(setup, monkeypatch, alpha, cfg):
        """invert_order on noiseless data at ``alpha``, with the orders it
        passes to order_misfit, in call order."""
        grid, eig, tg, mask = setup
        y0 = eig.phis[0].astype(complex)
        y = solve_forward(y0, None, FractionalOrder(alpha), eig, tg)
        data = observe(y, mask, 0.0, 0)
        calls = []

        def counted(*args):
            calls.append(args[2])
            return order_misfit(*args)

        monkeypatch.setattr(inverse, "order_misfit", counted)
        return invert_order(data, y0, eig, cfg), calls

    @pytest.mark.parametrize("alpha", [0.37, 0.5, 0.71])
    def test_default_search_evaluates_at_most_33_orders(self, setup, monkeypatch, alpha):
        cfg = OrderSearchConfig(0.25, 0.85)
        res, calls = self.counted_search(setup, monkeypatch, alpha, cfg)
        assert len(calls) <= cfg.coarse_points + 8
        assert abs(res.order - alpha) <= cfg.refine_tol

    @pytest.mark.parametrize("alpha", [0.37, 0.5, 0.71])
    def test_refinement_stays_in_bracket_and_never_repeats(self, setup, monkeypatch,
                                                           alpha):
        cfg = OrderSearchConfig(0.25, 0.85)
        res, calls = self.counted_search(setup, monkeypatch, alpha, cfg)
        diag = res.diagnostics
        refined = calls[cfg.coarse_points:]
        assert refined and diag["iterations"] == len(refined)
        assert all(diag["bracket_lo"] < a < diag["bracket_hi"] for a in refined)
        assert len(set(calls)) == len(calls)
        # the trace is every evaluation in order, and the estimate its best
        assert diag["evaluations"] == len(calls)
        assert [a for a, _ in diag["trace"]] == calls
        assert [res.order, res.residual] == min(diag["trace"], key=lambda p: p[1])

    def test_truth_below_bracket_ends_at_its_edge(self, setup, monkeypatch):
        cfg = OrderSearchConfig(0.3, 0.9)
        res, calls = self.counted_search(setup, monkeypatch, 0.2, cfg)
        assert cfg.alpha_lo <= res.order <= cfg.alpha_lo + cfg.refine_tol

    def test_flat_landscape_flagged(self, setup, monkeypatch):
        grid, eig, tg, mask = setup
        y0 = eig.phis[0].astype(complex)
        y = solve_forward(y0, None, FractionalOrder(0.5), eig, tg)
        data = observe(y, mask, 0.0, 0)
        import tfslab.inverse as inv

        monkeypatch.setattr(inv, "order_misfit",
                            lambda *args, **kw: 1.0)
        with pytest.raises(FlatMisfitError):
            inv.invert_order(data, y0, eig, OrderSearchConfig(0.3, 0.7, 5, 1e-3))


class TestLaplaceIdentity:
    def test_zero_mu_reduces_to_exponential_transform(self):
        gap = laplace_identity_gap(0.5, 0.0, 2.0 + 0j, 20.0)
        assert gap <= 1e-8

    def test_spec_cases(self):
        g1 = laplace_identity_gap(0.5, math.pi**2, 1.0 + 0j, 200.0)
        assert g1 <= 1e-4
        g2 = laplace_identity_gap(0.7, 5.0, 2.0 + 3.0j, 14.0)
        assert g2 <= 1e-4

    @pytest.mark.parametrize("alpha,mu,z,T", [
        (0.9, 400.0, 1.0, 40.0),  # a fixed graded rule misses these two by
        (0.95, 1000.0, 3.0 + 40.0j, 10.0),  # 3e-7 and 7e-5
        (0.15, 1.0, 0.2, 200.0),
        (0.6, 1e4, 1.0 + 1.0j, 30.0),
    ])
    def test_stress_cases_match_closed_form(self, alpha, mu, z, T):
        gap = laplace_identity_gap(alpha, mu, z, T)
        assert gap <= 1e-12

    def test_unresolved_integrand_raises(self, monkeypatch):
        # the panel bound keeps an integrand the rule cannot resolve from
        # growing the rows without limit
        monkeypatch.setattr(inverse, "_GL_MAX_PANELS", 4)
        with pytest.raises(MLAccuracyError, match="panels"):
            laplace_identity_gap(0.9, 400.0, 1.0, 40.0)

    def test_gap_shrinks_with_horizon(self):
        # the 1e-6 tail bound admits horizons from about 34 at Re z = 0.5;
        # at 40 the bound is 4.1e-8
        g_short = laplace_identity_gap(0.5, 4.0, 0.5 + 0j, 40.0)
        g_long = laplace_identity_gap(0.5, 4.0, 0.5 + 0j, 80.0)
        bound = 10.0 * math.exp(-0.5 * 40.0) / 0.5
        assert g_short <= bound
        assert g_long <= g_short + 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_order_out_of_range_rejected(self, alpha):
        with pytest.raises(MLDomainError, match="alpha"):
            laplace_identity_gap(alpha, 1.0, 1.0, 40.0)

    def test_left_half_plane_rejected(self):
        with pytest.raises(MLDomainError):
            laplace_identity_gap(0.5, 1.0, -1.0 + 0j, 10.0)

    def test_insufficient_horizon_rejected(self):
        with pytest.raises(MLDomainError):
            laplace_identity_gap(0.5, 1.0, 0.1 + 0j, 5.0)

    @pytest.mark.parametrize("mu,z,T", [
        (1.0, complex(math.nan, 0.0), 40.0),  # NaN slips past the Re z <= 0 rejection
        (1.0, complex(1.0, math.nan), 40.0),
        (1.0, complex(1.0, math.inf), 40.0),
        (math.nan, 1.0, 40.0),
        (math.inf, 1.0, 40.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf),
        (1.0, 1e8, 0.0),  # within the tail bound
        (1.0, 1e8, -1.0),  # overflows the tail bound's exp
    ])
    def test_invalid_input_rejected_up_front(self, mu, z, T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MLDomainError, match="finite"):
                laplace_identity_gap(0.5, mu, z, T)


class TestResidueExtraction:
    def test_single_pole_exact(self, small_eig):
        coeffs = np.array([2.0 - 1.0j, 0.0, 0.0])
        S = modal_resolvent(coeffs, small_eig)
        got = extract_modal_projection(S, contour_for_mode(small_eig, 0, 64))
        expect = coeffs[0] * small_eig.phis[0]
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(expect))

    def test_neighbor_suppression(self, small_eig):
        coeffs = np.array([1.0, 0.5, 0.0])
        S = modal_resolvent(coeffs, small_eig)
        got = extract_modal_projection(S, contour_for_mode(small_eig, 1, 64))
        expect = coeffs[1] * small_eig.phis[1]
        assert np.max(np.abs(got - expect)) <= 1e-8

    def test_no_energy_gives_zero(self, small_eig):
        S = modal_resolvent(np.array([0.0, 1.0, 0.0]), small_eig)
        got = extract_modal_projection(S, contour_for_mode(small_eig, 0, 64))
        assert np.max(np.abs(got)) <= 1e-8

    def test_geometric_convergence(self, small_eig):
        coeffs = np.array([1.0, 0.7, 0.0])
        S = modal_resolvent(coeffs, small_eig)
        expect = coeffs[1] * small_eig.phis[1]
        errs = []
        for n in (8, 16, 32):
            got = extract_modal_projection(S, contour_for_mode(small_eig, 1, n))
            errs.append(np.max(np.abs(got - expect)))
        for e0, e1 in zip(errs, errs[1:]):
            if e0 <= 1e-12:
                break
            assert e1 <= 0.5 * e0

    def test_radius_validation(self, small_eig):
        # a third of the gap keeps the neighbor outside the circle
        gap = small_eig.distinct[1].mu - small_eig.distinct[0].mu
        assert contour_for_mode(small_eig, 0, 64).radius == gap / 3.0
        with pytest.raises(GridMismatchError):
            contour_for_mode(small_eig, 0, 4)

    def test_masked_extraction(self, small_eig):
        from tfslab.observe import make_mask

        mask = make_mask([(0.3, 0.7)], small_eig.grid)
        coeffs = np.array([1.5, 0.0, 0.0])
        S = modal_resolvent(coeffs, small_eig)
        got = extract_modal_projection(S, contour_for_mode(small_eig, 0, 64))[mask.indices]
        expect = 1.5 * small_eig.phis[0][mask.indices]
        assert np.max(np.abs(got - expect)) <= 1e-10

