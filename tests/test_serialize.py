import json

import numpy as np
import pytest

from tfslab.forward import SourceSpec, SpaceTimeField, TimeGrid, solve_forward
from tfslab.mlf import FractionalOrder
from tfslab.observe import ObservedData, make_mask, observe
from tfslab.serialize import (
    atomic_write_text,
    dumps_canonical,
    eigensystem_to_json,
    field_to_csv,
    field_to_json,
    observed_to_csv,
    observed_to_json,
    spatial_to_csv,
)
from tfslab.spectral import Grid1D, analytic_eigensystem


@pytest.fixture(scope="module")
def eig():
    return analytic_eigensystem(1.0, 4, Grid1D(1.0, 19))


def test_observed_json_shape(eig):
    tg = TimeGrid(1.0, 6)
    y = solve_forward(eig.phis[0].astype(complex), SourceSpec.none(),
                      FractionalOrder(0.5), eig, tg)
    mask = make_mask([(0.2, 0.4)], eig.grid)
    data = observe(y, mask, 1e-3, 3)
    doc = json.loads(dumps_canonical(observed_to_json(data)))
    assert doc["seed"] == 3
    assert len(doc["values_re_im"]) == 2 * 6 * mask.n_nodes
    assert doc["mask"]["intervals"] == [[0.2, 0.4]]


def test_canonical_dump_is_stable(eig):
    doc = eigensystem_to_json(eig)
    assert dumps_canonical(doc) == dumps_canonical(
        json.loads(dumps_canonical(doc)))


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(str(target), "first\n")
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [target]


def test_field_json_flat_layout(eig):
    tg = TimeGrid(1.0, 3)
    y = solve_forward(eig.phis[0].astype(complex), SourceSpec.none(),
                      FractionalOrder(0.5), eig, tg)
    doc = field_to_json(y)
    assert len(doc["values_re_im"]) == 2 * 3 * eig.grid.m
    v0 = complex(doc["values_re_im"][0], doc["values_re_im"][1])
    assert v0 == complex(y.values[0, 0])


class TestExactText:
    """The artifact text, pinned on tiny inputs: every float goes through
    repr (signed zeros, shortest round-trip digits, subnormal-range
    exponents), and numpy scalars and complex values map to plain JSON."""

    grid = Grid1D(0.4, 3)  # nodes 0.1, 0.2, 0.30000000000000004
    tg = TimeGrid(0.3, 2)  # times 0.15, 0.3
    values = np.array([[complex(-0.0, 0.1), 1 / 3, complex(1e-300, -0.0)],
                       [complex(0.0, -1 / 3), complex(2.5, 1e-300), -1.0]])

    def test_field_csv(self):
        text = field_to_csv(SpaceTimeField(self.values, self.tg, self.grid))
        assert text == (
            "t,x,re_y,im_y\n"
            "0.15,0.1,-0.0,0.1\n"
            "0.15,0.2,0.3333333333333333,0.0\n"
            "0.15,0.30000000000000004,1e-300,-0.0\n"
            "0.3,0.1,0.0,-0.3333333333333333\n"
            "0.3,0.2,2.5,1e-300\n"
            "0.3,0.30000000000000004,-1.0,0.0\n"
        )

    def test_observed_csv(self):
        mask = make_mask([(0.15, 0.35)], self.grid)
        data = ObservedData(self.values[:, mask.indices], mask, self.tg, 0.0, 0)
        assert observed_to_csv(data) == (
            "t,x,re,im\n"
            "0.15,0.2,0.3333333333333333,0.0\n"
            "0.15,0.30000000000000004,1e-300,-0.0\n"
            "0.3,0.2,2.5,1e-300\n"
            "0.3,0.30000000000000004,-1.0,0.0\n"
        )

    def test_spatial_csv(self):
        assert spatial_to_csv(self.grid.nodes, self.values[0]) == (
            "x,re,im\n"
            "0.1,-0.0,0.1\n"
            "0.2,0.3333333333333333,0.0\n"
            "0.30000000000000004,1e-300,-0.0\n"
        )
        assert spatial_to_csv(self.grid.nodes, np.array([-0.0, 0.1, 1 / 3])) == (
            "x,re,im\n"
            "0.1,-0.0,0.0\n"
            "0.2,0.1,0.0\n"
            "0.30000000000000004,0.3333333333333333,0.0\n"
        )

    def test_dumps_canonical(self):
        doc = {"b": [np.int64(3), np.float32(0.1), np.bool_(True), np.float64(1 / 3)],
               "a": (-0.0, 0.1, 1e-300), "z": complex(1.0, -0.0),
               "arr": np.array([complex(-0.0, 0.1), 1 / 3]), "k": {"y": None, "x": "s"}}
        assert dumps_canonical(doc) == """{
  "a": [
    -0.0,
    0.1,
    1e-300
  ],
  "arr": [
    {
      "im": 0.1,
      "re": -0.0
    },
    {
      "im": 0.0,
      "re": 0.3333333333333333
    }
  ],
  "b": [
    3,
    0.10000000149011612,
    true,
    0.3333333333333333
  ],
  "k": {
    "x": "s",
    "y": null
  },
  "z": {
    "im": -0.0,
    "re": 1.0
  }
}
"""

    def test_dumps_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})
