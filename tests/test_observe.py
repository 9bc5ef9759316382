import math

import numpy as np
import pytest

from tfslab.errors import EmptyMaskError, GridMismatchError
from tfslab.forward import SourceSpec, SpaceTimeField, TimeGrid, solve_forward
from tfslab.mlf import FractionalOrder
from tfslab.observe import ObservedData, make_mask, masked_norm, observe
from tfslab.spectral import Grid1D, analytic_eigensystem


@pytest.fixture(scope="module")
def field():
    grid = Grid1D(1.0, 9)
    eig = analytic_eigensystem(1.0, 3, grid)
    tg = TimeGrid(1.0, 12)
    return solve_forward(eig.phis[0] + 0.5 * eig.phis[2], SourceSpec.none(),
                         FractionalOrder(0.5), eig, tg)


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
    def test_noiseless_is_exact_restriction(self, field):
        mask = make_mask([(0.2, 0.4)], field.grid)
        data = observe(field, mask, 0.0, 0)
        np.testing.assert_array_equal(data.values, field.values[:, mask.indices])

    def test_zero_field_zero_data(self):
        grid = Grid1D(1.0, 9)
        tg = TimeGrid(1.0, 4)
        zero = SpaceTimeField(np.zeros((4, 9), dtype=complex), tg, grid)
        data = observe(zero, make_mask([(0.2, 0.4)], grid), 0.0, 0)
        assert np.all(data.values == 0.0)

    def test_determinism(self, field):
        mask = make_mask([(0.2, 0.6)], field.grid)
        d1 = observe(field, mask, 0.01, 1234)
        d2 = observe(field, mask, 0.01, 1234)
        np.testing.assert_array_equal(d1.values, d2.values)

    def test_seed_changes_noise(self, field):
        mask = make_mask([(0.2, 0.6)], field.grid)
        d1 = observe(field, mask, 0.01, 1)
        d2 = observe(field, mask, 0.01, 2)
        assert np.max(np.abs(d1.values - d2.values)) > 0.0

    def test_noise_scale(self, field):
        mask = make_mask([(0.0, 1.0)], field.grid)
        level = 1e-2
        data = observe(field, mask, level, 9)
        noise = data.values - field.values[:, mask.indices]
        scale = level * np.max(np.abs(field.values))
        rms = math.sqrt(np.mean(np.abs(noise) ** 2))
        assert 0.5 * scale <= rms <= 1.5 * scale

    def test_restriction_norm_nonincreasing(self, field):
        mask = make_mask([(0.2, 0.4)], field.grid)
        data = observe(field, mask, 0.0, 0)
        for i in range(field.tg.n_t):
            assert masked_norm(mask, data.values[i]) <= field.grid.norm(
                field.values[i]) + 1e-15

    def test_grid_mismatch(self, field):
        other = Grid1D(1.0, 19)
        mask = make_mask([(0.2, 0.4)], other)
        with pytest.raises(GridMismatchError):
            observe(field, mask, 0.0, 0)

    def test_data_shape_matches_times_and_nodes(self, field):
        # the inversions take E and the time grid from the data, so a row
        # count that disagrees with the time grid must not get through
        data = observe(field, make_mask([(0.2, 0.4)], field.grid), 0.0, 0)
        for values in (data.values[:-1], data.values[:, :-1], data.values.ravel()):
            with pytest.raises(GridMismatchError):
                ObservedData(values, data.mask, data.tg, 0.0, 0)

    def test_masked_norm_weight(self):
        grid = Grid1D(1.0, 9)
        mask = make_mask([(0.0, 1.0)], grid)
        row = np.ones(9)
        assert masked_norm(mask, row) == pytest.approx(math.sqrt(grid.h * 9))
