import math

import numpy as np
import pytest

from tfslab.errors import EmptyMaskError, GridMismatchError
from tfslab.forward import KernelTable, TimeGrid, solve_modal
from tfslab.mlf import FractionalOrder
from tfslab.observe import ObservedData, make_mask, observe
from tfslab.spectral import Grid1D, analytic_eigensystem


@pytest.fixture(scope="module")
def solution():
    """A modal solution, its eigensystem and time grid, and its node samples."""
    grid = Grid1D(1.0, 9)
    eig = analytic_eigensystem(3, grid)
    tg = TimeGrid(1.0, 12)
    coeffs = solve_modal(np.array([1.0, 0.0, 0.5]), None,
                         KernelTable(FractionalOrder(0.5), eig, tg))
    return coeffs, eig, tg, coeffs.T @ eig.phis


class TestMakeMask:
    def test_direct_definition(self):
        grid = Grid1D(1.0, 9)  # h = 0.1
        mask = make_mask([(0.2, 0.4)], grid)
        np.testing.assert_array_equal(mask.indices, [1, 2, 3])  # x = 0.2, 0.3, 0.4
        assert mask.measure == pytest.approx(0.2)

    def test_full_observation(self):
        grid = Grid1D(1.0, 9)
        mask = make_mask([(0.0, 1.0)], grid)
        assert mask.n_nodes == 9
        assert mask.measure == pytest.approx(1.0)

    def test_empty_capture_is_an_error(self):
        grid = Grid1D(1.0, 9)
        with pytest.raises(EmptyMaskError):
            make_mask([(0.21, 0.29)], grid)

    def test_overlap_rejected(self):
        grid = Grid1D(1.0, 9)
        with pytest.raises(GridMismatchError):
            make_mask([(0.1, 0.5), (0.4, 0.8)], grid)

    def test_outside_domain_rejected(self):
        grid = Grid1D(1.0, 9)
        with pytest.raises(GridMismatchError):
            make_mask([(0.5, 1.2)], grid)
        with pytest.raises(GridMismatchError):
            make_mask([(0.5, 0.5)], grid)

    def test_union_of_intervals(self):
        grid = Grid1D(1.0, 19)  # h = 0.05
        mask = make_mask([(0.1, 0.2), (0.7, 0.8)], grid)
        assert mask.measure == pytest.approx(0.2)
        assert mask.n_nodes == 6


class TestObserve:
    def test_noiseless_is_exact_restriction(self, solution):
        coeffs, eig, tg, field = solution
        mask = make_mask([(0.2, 0.4)], eig.grid)
        data = observe(coeffs, eig, tg, mask, 0.0, 0)
        np.testing.assert_array_equal(data.values, field[:, mask.indices])

    @pytest.mark.parametrize("n_t", [2, 3, 33, 65, 800])
    def test_blocked_data_match_whole_field(self, n_t):
        # the data are made 32 rows at a time, never from the whole field,
        # and keep every bit of its masked columns and of the noise the
        # whole field's max modulus scales
        grid = Grid1D(1.0, 63)
        eig = analytic_eigensystem(8, grid)
        tg = TimeGrid(1.0, n_t)
        c0 = np.array([1.0 - 0.5j, 0.0, 0.25j, 2.0, 0.0, 0.0, -0.125, 1e-3j])
        coeffs = solve_modal(c0, None, KernelTable(FractionalOrder(0.6), eig, tg))
        mask = make_mask([(0.2, 0.4), (0.7, 0.75)], grid)
        field = coeffs.T @ eig.phis
        data = observe(coeffs, eig, tg, mask, 0.0, 0)
        assert data.values.flags.c_contiguous
        np.testing.assert_array_equal(data.values, field[:, mask.indices])
        noisy = observe(coeffs, eig, tg, mask, 1e-2, 17)
        vals = field[..., mask.indices].copy()
        rng = np.random.Generator(np.random.Philox(17))
        noise = rng.standard_normal(vals.shape) + 1j * rng.standard_normal(vals.shape)
        vals += 1e-2 * float(np.max(np.abs(field))) * noise / math.sqrt(2.0)
        np.testing.assert_array_equal(noisy.values, vals)

    def test_zero_field_zero_data(self, solution):
        _, eig, tg, _ = solution
        zero = np.zeros((eig.n, tg.n_t), dtype=complex)
        data = observe(zero, eig, tg, make_mask([(0.2, 0.4)], eig.grid), 0.0, 0)
        assert np.all(data.values == 0.0)

    def test_determinism(self, solution):
        coeffs, eig, tg, _ = solution
        mask = make_mask([(0.2, 0.6)], eig.grid)
        d1 = observe(coeffs, eig, tg, mask, 0.01, 1234)
        d2 = observe(coeffs, eig, tg, mask, 0.01, 1234)
        np.testing.assert_array_equal(d1.values, d2.values)

    def test_seed_changes_noise(self, solution):
        coeffs, eig, tg, _ = solution
        mask = make_mask([(0.2, 0.6)], eig.grid)
        d1 = observe(coeffs, eig, tg, mask, 0.01, 1)
        d2 = observe(coeffs, eig, tg, mask, 0.01, 2)
        assert np.max(np.abs(d1.values - d2.values)) > 0.0

    def test_noise_scale(self, solution):
        coeffs, eig, tg, field = solution
        mask = make_mask([(0.0, 1.0)], eig.grid)
        level = 1e-2
        data = observe(coeffs, eig, tg, mask, level, 9)
        noise = data.values - field[:, mask.indices]
        scale = level * np.max(np.abs(field))
        rms = math.sqrt(np.mean(np.abs(noise) ** 2))
        assert 0.5 * scale <= rms <= 1.5 * scale

    def test_restriction_norm_nonincreasing(self, solution):
        coeffs, eig, tg, field = solution
        mask = make_mask([(0.2, 0.4)], eig.grid)
        data = observe(coeffs, eig, tg, mask, 0.0, 0)
        for i in range(tg.n_t):
            assert eig.grid.norm(data.values[i]) <= eig.grid.norm(field[i]) + 1e-15

    def test_grid_mismatch(self, solution):
        coeffs, eig, tg, _ = solution
        mask = make_mask([(0.2, 0.4)], Grid1D(1.0, 19))
        with pytest.raises(GridMismatchError):
            observe(coeffs, eig, tg, mask, 0.0, 0)

    def test_data_shape_matches_times_and_nodes(self, solution):
        # the inversions take E and the time grid from the data, so a row
        # count that disagrees with the time grid must not get through
        coeffs, eig, tg, _ = solution
        data = observe(coeffs, eig, tg, make_mask([(0.2, 0.4)], eig.grid), 0.0, 0)
        for values in (data.values[:-1], data.values[:, :-1], data.values.ravel()):
            with pytest.raises(GridMismatchError):
                ObservedData(values, data.mask, data.tg, 0.0, 0)
        with pytest.raises(GridMismatchError):
            observe(coeffs, eig, TimeGrid(1.0, tg.n_t + 1), data.mask, 0.0, 0)

    def test_masked_norm_weight(self):
        grid = Grid1D(1.0, 9)
        mask = make_mask([(0.0, 1.0)], grid)
        row = np.ones(9)
        assert grid.norm(row[mask.indices]) == pytest.approx(math.sqrt(grid.h * 9))
