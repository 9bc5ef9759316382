import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from tfslab import forward
from tfslab._kernels import causal_conv
from tfslab.errors import GridMismatchError, MLDomainError
from tfslab.forward import (
    KernelTable,
    SourceSpec,
    SpaceTimeField,
    TimeGrid,
    caputo_l1,
    decay_slope,
    duhamel_check,
    eval_homogeneous,
    pde_residual,
    project,
    projection_tail_energy,
    rl_integral,
    solve_forward,
)
from tfslab.mlf import FractionalOrder, MLParams, kernel_grid, ml_eval
from tfslab.spectral import (Grid1D, OperatorSpec, Tridiag, analytic_eigensystem,
                             assemble_operator, eigen_solve)


@pytest.fixture(scope="module")
def eig():
    grid = Grid1D(1.0, 99)
    return analytic_eigensystem(1.0, 8, grid)


@pytest.fixture(scope="module")
def fd_system():
    grid = Grid1D(1.0, 63)
    A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
    return A, eigen_solve(A, 8, grid)


class TestModalMaps:
    def test_project_orthonormality(self, eig):
        c = project(eig.phis[0].astype(complex), eig)
        expect = np.zeros(8, dtype=complex)
        expect[0] = 1.0
        np.testing.assert_allclose(c, expect, atol=1e-12)

    def test_project_linearity(self, eig):
        samples = 2.0 * eig.phis[0] + 3j * eig.phis[1]
        c = project(samples, eig)
        assert c[0] == pytest.approx(2.0, abs=1e-12)
        assert c[1] == pytest.approx(3j, abs=1e-12)

    def test_project_zero(self, eig):
        np.testing.assert_array_equal(project(np.zeros(99), eig), np.zeros(8))

    def test_round_trip(self, eig):
        rng = np.random.default_rng(np.random.Philox(3))
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        back = project(c @ eig.phis, eig)
        np.testing.assert_allclose(back, c, rtol=1e-12, atol=1e-12)

    def test_tail_energy(self, eig):
        inside = np.ones(8, dtype=complex) @ eig.phis
        assert projection_tail_energy(inside, eig) <= 1e-10
        grid = eig.grid
        rough = np.sin(15 * math.pi * grid.nodes)  # mode 15 is beyond N = 8
        assert projection_tail_energy(rough, eig) > 0.1

    def test_length_mismatch(self, eig):
        with pytest.raises(GridMismatchError):
            project(np.zeros(50), eig)


class TestSolveForward:
    def test_single_mode_separation(self, eig):
        order = FractionalOrder(0.6)
        tg = TimeGrid(1.0, 25)
        y = solve_forward(eig.phis[0].astype(complex), None, order,
                          eig, tg)
        k = kernel_grid(order, float(eig.lambdas[0]), tg.times, "state")
        for i in range(tg.n_t):
            c = project(y.values[i], eig)
            assert abs(c[0] - k[i]) <= 1e-12
            assert np.max(np.abs(c[1:])) <= 1e-12

    def test_linearity(self, eig):
        order = FractionalOrder(0.5)
        tg = TimeGrid(1.0, 10)
        rng = np.random.default_rng(np.random.Philox(5))
        u = rng.standard_normal(99) + 1j * rng.standard_normal(99)
        v = rng.standard_normal(99) + 1j * rng.standard_normal(99)
        a, b = 1.3 - 0.2j, -0.7 + 0.9j
        left = solve_forward(a * u + b * v, None, order, eig, tg).values
        right = (a * solve_forward(u, None, order, eig, tg).values
                 + b * solve_forward(v, None, order, eig, tg).values)
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))

    def test_constant_rho_source_closed_form(self, eig):
        # piecewise-constant convolution is exact for rho = 1
        order = FractionalOrder(0.5)
        tg = TimeGrid(1.0, 25)
        rho = np.ones(tg.n_t, dtype=complex)
        y = solve_forward(np.zeros(99), SourceSpec(rho, eig.phis[0]),
                          order, eig, tg)
        k = kernel_grid(order, float(eig.lambdas[0]), tg.times, "integral")
        for i in range(tg.n_t):
            c = project(y.values[i], eig)[0]
            assert abs(c - -1j * k[i]) <= 1e-12

    def test_source_against_quadrature(self, eig):
        order = FractionalOrder(0.7)
        tg = TimeGrid(1.0, 40)
        rho = np.ones(tg.n_t, dtype=complex)
        y = solve_forward(np.zeros(99), SourceSpec(rho, eig.phis[1]),
                          order, eig, tg)
        lam = float(eig.lambdas[1])
        params = MLParams(order.alpha, order.alpha)
        t = 1.0
        got = project(y.values[-1], eig)[1]

        def f(u, sign):
            v = ml_eval(params, complex(0.0, -lam * u), verify=False)
            return v.real if sign == 0 else v.imag

        re, _ = scipy.integrate.quad(f, 0.0, t**order.alpha, args=(0,), limit=400)
        im, _ = scipy.integrate.quad(f, 0.0, t**order.alpha, args=(1,), limit=400)
        oracle = -1j * complex(re, im) / order.alpha
        assert abs(got - oracle) <= 1e-6

    def test_kernel_envelope_per_mode(self, eig):
        from tfslab.mlf import certify_c0

        order = FractionalOrder(0.5)
        tg = TimeGrid(2.0, 40)
        c0 = certify_c0(order.alpha, lambda_grid=eig.lambdas, t_grid=tg.times)
        rng = np.random.default_rng(np.random.Philox(11))
        y0 = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) @ eig.phis
        c_init = np.abs(project(y0, eig))
        y = solve_forward(y0, None, order, eig, tg)
        for i, t in enumerate(tg.times):
            c = np.abs(project(y.values[i], eig))
            bound = c0 * c_init / (1.0 + eig.lambdas * t**0.5)
            assert np.all(c <= bound * (1.0 + 1e-9) + 1e-15)

    def test_norm_bounded_by_c0(self, eig):
        from tfslab.mlf import certify_c0

        order = FractionalOrder(0.5)
        tg = TimeGrid(1.0, 30)
        c0 = certify_c0(order.alpha, lambda_grid=eig.lambdas, t_grid=tg.times)
        rng = np.random.default_rng(np.random.Philox(13))
        y0 = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) @ eig.phis
        y0 = y0 / eig.grid.norm(y0)
        y = solve_forward(y0, None, order, eig, tg)
        for i in range(tg.n_t):
            assert eig.grid.norm(y.values[i]) <= c0 * (1.0 + 1e-9)

    def test_phase_variant_trajectory(self, eig):
        order = FractionalOrder(0.5, "power_i_alpha")
        tg = TimeGrid(1.0, 10)
        y = solve_forward(eig.phis[0].astype(complex), None, order,
                          eig, tg)
        lam = float(eig.lambdas[0])
        phase = cmath.exp(-1j * math.pi * 0.25)
        for i, t in enumerate(tg.times):
            c = project(y.values[i], eig)[0]
            expect = ml_eval(MLParams(0.5, 1.0), phase * lam * t**0.5, verify=False)
            assert abs(c - expect) <= 1e-12

    def test_initial_value_recovered_in_modal_limit(self, eig):
        # continuity holds only on (0, T]; the datum is recovered modally
        # as t -> 0+
        order = FractionalOrder(0.5)
        c0 = project(eig.phis[0].astype(complex), eig)
        for t in (1e-3, 1e-5, 1e-7):
            vals = eval_homogeneous(eig.phis[0], order, eig, np.array([t]))
            c = project(vals[0], eig)
            gap = np.max(np.abs(c - c0))
            assert gap <= 3.0 * float(eig.lambdas[0]) * t**0.5

    def test_source_length_mismatch_rejected(self, eig):
        # rho sampled at one time fewer than the grid has
        tg = TimeGrid(1.0, 10)
        src = SourceSpec(np.ones(tg.n_t - 1), eig.phis[1])
        with pytest.raises(GridMismatchError, match="rho sampled at 9 times, grid has 10"):
            solve_forward(eig.phis[0].astype(complex), src, FractionalOrder(0.5), eig, tg)


class TestKernelTable:
    """A run's kernel rows, each evaluated on first use by one per-mode
    ``kernel_grid`` call and read from the table afterwards."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        exact = forward.kernel_grid
        monkeypatch.setattr(forward, "kernel_grid",
                            lambda *args: made.append((np.shape(args[1]), args[3]))
                            or exact(*args))
        return made

    @pytest.mark.parametrize("system, phase", [("eig", "standard_i"),
                                               ("fd_system", "power_i_alpha")])
    def test_zero_datum_field_matches_the_full_formula(self, request, system, phase):
        # every mode's state row times its zero coefficient, plus the
        # source rows, as the solve formed the field before it skipped the
        # zero-datum modes
        fixture = request.getfixturevalue(system)
        eig = fixture[1] if system == "fd_system" else fixture
        order, tg = FractionalOrder(0.6, phase), TimeGrid(1.0, 40)
        rho = np.cos(3.0 * tg.times) + 1j * tg.times
        g = eig.phis[0] + 2.0 * eig.phis[2] - 0.5j * eig.phis[5]
        c0 = project(np.zeros(eig.grid.m), eig)
        state = np.array([kernel_grid(order, lam, tg.times, "state") for lam in eig.lambdas])
        forcing = np.outer(project(g, eig), rho)
        live = np.flatnonzero(np.any(forcing, axis=1))
        taus = tg.dt * np.arange(tg.n_t + 1)
        dw = np.array([np.diff(kernel_grid(order, eig.lambdas[n], taus, "integral"))
                       for n in live])
        driven = np.zeros((eig.n, tg.n_t), dtype=complex)
        driven[live] = order.phase_factor * causal_conv(forcing[live].T, dw.T).T
        expect = (c0[:, None] * state + driven).T @ eig.phis
        got = solve_forward(np.zeros(eig.grid.m), SourceSpec(rho, g), order, eig, tg)
        assert np.array_equal(got.values, expect)

    def test_rows_are_evaluated_once(self, eig, calls):
        tg = TimeGrid(1.0, 20)
        table = KernelTable(FractionalOrder(0.5), eig.lambdas, tg)
        first = table.state([2, 0])
        first += 1.0  # the caller's copy, not the table's row
        assert np.array_equal(table.state([0, 1, 2]),
                              [kernel_grid(FractionalOrder(0.5), eig.lambdas[n],
                                           tg.times, "state") for n in range(3)])
        table.steps([1])
        table.steps(np.arange(2))
        assert calls == [((), "state")] * 3 + [((), "integral")] * 2

    def test_table_solve_matches_order_solve(self, fd_system):
        _, eig = fd_system
        tg = TimeGrid(1.0, 30)
        order = FractionalOrder(0.7, "power_i_alpha")
        y0 = eig.phis[1] - 0.3j * eig.phis[4]
        src = SourceSpec(np.exp(1j * tg.times), eig.phis[0] + eig.phis[6])
        table = KernelTable(order, eig.lambdas, tg)
        for _ in range(2):  # the second solve reads every row from the table
            got = solve_forward(y0, src, table, eig, tg).values
            assert np.array_equal(got, solve_forward(y0, src, order, eig, tg).values)

    @pytest.mark.parametrize("other", ["time", "eigenvalues"])
    def test_table_of_another_run_rejected(self, eig, other):
        tg = TimeGrid(1.0, 20)
        if other == "time":
            table = KernelTable(FractionalOrder(0.5), eig.lambdas, TimeGrid(1.0, 21))
        else:
            table = KernelTable(FractionalOrder(0.5), 2.0 * eig.lambdas, tg)
        with pytest.raises(GridMismatchError):
            solve_forward(eig.phis[0], None, table, eig, tg)


class TestFrozenArrays:
    """A dataclass keeps a read-only view of each array it is given: no
    copy, and the caller's own array stays writable whatever its dtype."""

    BUILDERS = {
        "SourceSpec": (SourceSpec, [(4,), (3,)], ("rho", "g")),
        "OperatorSpec": (lambda a, p: OperatorSpec(a, p, 1.0), [(4,), (3,)], ("a", "p")),
        "Tridiag": (Tridiag, [(3,), (2,)], ("diag", "off")),
        "SpaceTimeField": (lambda v: SpaceTimeField(v, TimeGrid(1.0, 4), Grid1D(1.0, 3)),
                           [(4, 3)], ("values",)),
    }

    @pytest.mark.parametrize("name, dtype", [
        ("SourceSpec", np.float64), ("SourceSpec", np.complex128),
        ("OperatorSpec", np.float64), ("Tridiag", np.float64),
        ("SpaceTimeField", np.float64), ("SpaceTimeField", np.complex128),
    ])
    def test_caller_arrays_stay_writable(self, name, dtype):
        build, shapes, fields = self.BUILDERS[name]
        given = [np.full(shape, 2.0, dtype=dtype) for shape in shapes]
        obj = build(*given)
        for arr, field in zip(given, fields):
            kept = getattr(obj, field)
            assert np.shares_memory(kept, arr) == (kept.dtype == arr.dtype)
            arr[0] = 3.0
            assert arr.flags.writeable
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.0


class TestFractionalCalculus:
    def test_caputo_of_constant_vanishes(self):
        tg = TimeGrid(1.0, 20)
        series = np.ones(21, dtype=complex)
        out = caputo_l1(series, 0.5, tg)
        assert np.max(np.abs(out)) == 0.0

    def test_caputo_exact_on_linear(self):
        tg = TimeGrid(1.0, 20)
        alpha = 0.5
        series = np.concatenate([[0.0], tg.times]).astype(complex)
        out = caputo_l1(series, alpha, tg)
        expect = tg.times ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        np.testing.assert_allclose(out.real, expect, rtol=1e-12)
        np.testing.assert_allclose(out.imag, np.zeros_like(expect), atol=1e-14)

    def test_caputo_quadratic_convergence(self):
        # monomial t^2: d^0.5 t^2 = Gamma(3)/Gamma(2.5) t^1.5
        alpha = 0.5
        errs = []
        for n_t in (50, 100, 200):
            tg = TimeGrid(1.0, n_t)
            series = np.concatenate([[0.0], tg.times**2]).astype(complex)
            out = caputo_l1(series, alpha, tg)
            expect = math.gamma(3.0) / math.gamma(2.5) * tg.times**1.5
            errs.append(np.max(np.abs(out - expect)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 1.4 for o in orders)  # scheme order 2 - alpha = 1.5

    def test_caputo_alpha_range(self):
        tg = TimeGrid(1.0, 5)
        with pytest.raises(MLDomainError):
            caputo_l1(np.ones(6), 1.0, tg)

    def test_caputo_requires_initial_row(self):
        tg = TimeGrid(1.0, 5)
        with pytest.raises(GridMismatchError):
            caputo_l1(np.ones(5), 0.5, tg)

    def test_rl_exact_on_constant(self):
        tg = TimeGrid(2.0, 16)
        beta = 0.5
        out = rl_integral(np.ones(tg.n_t, dtype=complex), beta, tg)
        expect = tg.times**beta / math.gamma(beta + 1.0)
        np.testing.assert_allclose(out.real, expect, rtol=1e-12)

    def test_rl_order_one_is_running_integral(self):
        tg = TimeGrid(1.0, 50)
        w = np.sin(tg.times).astype(complex)
        out = rl_integral(w, 1.0, tg)
        expect = np.cumsum(w) * tg.dt
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_rl_monomial_first_order(self):
        beta = 0.5
        errs = []
        for n_t in (100, 200):
            tg = TimeGrid(1.0, n_t)
            out = rl_integral(tg.times.astype(complex), beta, tg)
            expect = math.gamma(2.0) / math.gamma(2.5) * tg.times**1.5
            errs.append(np.max(np.abs(out - expect)))
        assert errs[1] <= 0.6 * errs[0]

    def test_rl_rejects_nonpositive_order(self):
        tg = TimeGrid(1.0, 5)
        with pytest.raises(MLDomainError):
            rl_integral(np.ones(5), 0.0, tg)


class TestResidualAndDuhamel:
    def test_zero_field_zero_residual(self, fd_system):
        A, eig = fd_system
        tg = TimeGrid(1.0, 10)
        field = SpaceTimeField(np.zeros((10, 63), dtype=complex), tg, eig.grid)
        r = pde_residual(field, np.zeros(63), None,
                         FractionalOrder(0.5), A)
        assert r == 0.0

    def test_single_mode_residual_decreases(self, fd_system):
        A, eig = fd_system
        order = FractionalOrder(0.5)
        y0 = eig.phis[0].astype(complex)
        resids = []
        for n_t in (100, 200, 400):
            tg = TimeGrid(1.0, n_t)
            y = solve_forward(y0, None, order, eig, tg)
            resids.append(pde_residual(y, y0, None, order, A))
        assert resids[0] > resids[1] > resids[2]

    def test_multimode_residual_ceiling(self, fd_system):
        # empirical ceiling from this scheme's own refinement study: the
        # first-step L1 defect saturates near 0.27 * lambda_1 for a smooth
        # unit datum, so the max-in-time residual stays O(1), not O(dt)
        A, eig = fd_system
        order = FractionalOrder(0.5)
        rng = np.random.default_rng(np.random.Philox(17))
        c = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / (1 + np.arange(8)) ** 2
        y0 = c @ eig.phis
        y0 = y0 / eig.grid.norm(y0)
        tg = TimeGrid(1.0, 1000)
        y = solve_forward(y0, None, order, eig, tg)
        r = pde_residual(y, y0, None, order, A)
        assert r <= 10.0

    def test_duhamel_trivial_cases(self, fd_system):
        _, eig = fd_system
        order = FractionalOrder(0.5)
        tg = TimeGrid(1.0, 50)
        assert duhamel_check(SourceSpec(np.ones(tg.n_t), np.zeros(63)), order, eig, tg) <= 1e-14
        assert duhamel_check(SourceSpec(np.zeros(tg.n_t), eig.phis[0]), order, eig, tg) <= 1e-14

    def test_duhamel_refinement_order(self, fd_system):
        _, eig = fd_system
        order = FractionalOrder(0.5)
        discs = []
        for n_t in (250, 500, 1000):
            tg = TimeGrid(1.0, n_t)
            discs.append(duhamel_check(SourceSpec(np.ones(tg.n_t), eig.phis[0]),
                                       order, eig, tg))
        orders = [math.log2(discs[i] / discs[i + 1]) for i in range(2)]
        assert all(o >= 0.9 for o in orders)

    def test_duhamel_phase_variant_converges(self, fd_system):
        _, eig = fd_system
        order = FractionalOrder(0.6, "power_i_alpha")
        discs = []
        for n_t in (200, 400):
            tg = TimeGrid(1.0, n_t)
            discs.append(duhamel_check(SourceSpec(np.ones(tg.n_t), eig.phis[0]),
                                       order, eig, tg))
        assert discs[1] <= 0.7 * discs[0]

    def test_manufactured_source_residual_vanishes(self, fd_system):
        # c_1(t) = t is exact for the L1 scheme, so feeding the matching
        # source must zero the residual to rounding; this pins the sign
        # conventions (A is the matrix of -L, equation rotated by e^{-i phi})
        A, eig = fd_system
        order = FractionalOrder(0.5)
        tg = TimeGrid(1.0, 50)
        lam = float(eig.lambdas[0])
        values = np.outer(tg.times, eig.phis[0]).astype(complex)
        field = SpaceTimeField(values, tg, eig.grid)
        dcap = tg.times ** 0.5 / math.gamma(1.5)
        src = SourceSpec(1j * dcap - lam * tg.times, eig.phis[0])
        r = pde_residual(field, np.zeros(eig.grid.m), src, order, A)
        assert r <= 1e-10


def grid_duhamel(g, rho, order, eig, tg):
    """The Duhamel discrepancy on the m nodes: both solutions synthesized as
    fields, J^{1-alpha} and the rho-convolution applied node by node, and
    each time row normed on its own."""
    v = solve_forward(g, None, order, eig, tg).values
    y = solve_forward(np.zeros(eig.grid.m), SourceSpec(rho, g), order, eig, tg).values
    lhs = rl_integral(y, 1.0 - order.alpha, tg)
    rhs = order.phase_factor * tg.dt * causal_conv(v, rho)
    return max(eig.grid.norm(row) for row in lhs - rhs)


def row_residual(field, y0, src, order, A):
    """The PDE residual one time row at a time."""
    tg, grid = field.tg, field.grid
    dcap = caputo_l1(np.vstack([y0[None, :], field.values]), order.alpha, tg)
    ay = A.matvec(field.values.T).T
    worst = 0.0
    for i in range(tg.n_t):
        f = src.rho[i] * src.g if src is not None else 0.0
        worst = max(worst, grid.norm(np.conj(order.phase_factor) * dcap[i] - ay[i] - f))
    return worst


class TestVectorizedChecks:
    @pytest.mark.parametrize("system", ["eig", "fd_system"])
    @pytest.mark.parametrize("phase", ["standard_i", "power_i_alpha"])
    @pytest.mark.parametrize("datum", ["mode", "mix"])
    def test_modal_duhamel_matches_grid_fields(self, request, system, phase, datum):
        fixture = request.getfixturevalue(system)
        eig = fixture[1] if system == "fd_system" else fixture
        order = FractionalOrder(0.5 if phase == "standard_i" else 0.6, phase)
        tg = TimeGrid(1.0, 1000)
        if datum == "mode":  # the selftest's datum and source
            g, rho = eig.phis[0].astype(complex), np.ones(tg.n_t, dtype=complex)
        else:
            rng = np.random.default_rng(np.random.Philox(29))
            g = (rng.standard_normal(eig.n) + 1j * rng.standard_normal(eig.n)) @ eig.phis
            rho = np.exp(3j * tg.times) * (1.0 + tg.times)
        ref = grid_duhamel(g, rho, order, eig, tg)
        assert abs(duhamel_check(SourceSpec(rho, g), order, eig, tg) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("separable", [False, True])
    def test_residual_matches_row_by_row(self, fd_system, separable):
        A, eig = fd_system
        order = FractionalOrder(0.6, "power_i_alpha")
        tg = TimeGrid(1.0, 200)
        rng = np.random.default_rng(np.random.Philox(31))
        shape = (tg.n_t + 1, eig.grid.m)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        src = (SourceSpec(np.exp(2j * tg.times), values[0] + eig.phis[1])
               if separable else None)
        field = SpaceTimeField(values[1:], tg, eig.grid)
        ref = row_residual(field, values[0], src, order, A)
        assert abs(pde_residual(field, values[0], src, order, A) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("n_rho, m_g, m_y0", [
        (25, 63, 63),  # a longer rho was truncated to the grid
        (15, 63, 63),  # a shorter rho ran off its end
        (20, 62, 63),
        (20, 63, 64),
        (None, None, 62),
    ])
    def test_residual_rejects_mismatched_inputs(self, fd_system, n_rho, m_g, m_y0):
        A, eig = fd_system
        tg = TimeGrid(1.0, 20)
        field = SpaceTimeField(np.zeros((tg.n_t, eig.grid.m), dtype=complex), tg, eig.grid)
        src = (None if n_rho is None
               else SourceSpec(np.ones(n_rho), np.ones(m_g)))
        with pytest.raises(GridMismatchError):
            pde_residual(field, np.zeros(m_y0), src, FractionalOrder(0.5), A)

    @pytest.mark.parametrize("n_rho, m_g", [(25, 63), (15, 63), (20, 62)])
    def test_duhamel_rejects_mismatched_inputs(self, fd_system, n_rho, m_g):
        _, eig = fd_system
        with pytest.raises(GridMismatchError):
            duhamel_check(SourceSpec(np.ones(n_rho), np.ones(m_g)), FractionalOrder(0.5),
                          eig, TimeGrid(1.0, 20))

    @pytest.mark.parametrize("n_modes", [4, 8])
    def test_duhamel_makes_one_kernel_call_per_kind(self, monkeypatch, n_modes):
        eig = analytic_eigensystem(1.0, n_modes, Grid1D(1.0, 99))
        calls = []
        exact = forward.kernel_grid
        monkeypatch.setattr(forward, "kernel_grid",
                            lambda *args: calls.append((np.shape(args[1]), args[3]))
                            or exact(*args))
        tg = TimeGrid(1.0, 100)
        duhamel_check(SourceSpec(np.ones(tg.n_t), eig.phis[0]), FractionalOrder(0.5), eig, tg)
        assert sorted(calls) == [((n_modes,), "integral"), ((n_modes,), "state")]

    def test_duhamel_allocates_no_space_time_field(self, eig):
        tg = TimeGrid(1.0, 2000)
        args = (SourceSpec(np.ones(tg.n_t), eig.phis[0]), FractionalOrder(0.5), eig, tg)
        duhamel_check(*args)  # one-time set-up outside the measurement
        tracemalloc.start()
        try:
            duhamel_check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tg.n_t * eig.grid.m * np.dtype(np.complex128).itemsize


class TestDecay:
    def test_slope_matches_order(self, eig):
        from tfslab.observe import make_mask

        mask = make_mask([(0.2, 0.4)], eig.grid)
        slope = decay_slope(eig.phis[0], FractionalOrder(0.5), eig, mask.indices)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_decay_is_algebraic_not_exponential(self, eig):
        # norms drop by ~10^alpha per decade, far from exponential decay
        order = FractionalOrder(0.5)
        vals = eval_homogeneous(eig.phis[0], order, eig, np.array([1e2, 1e3, 1e4]))
        norms = [eig.grid.norm(v) for v in vals]
        assert norms[2] >= norms[0] * 10 ** (-2 * 0.5) * 0.5
