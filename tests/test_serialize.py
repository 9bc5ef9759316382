import json

import pytest

from tfslab.forward import SourceSpec, TimeGrid, solve_forward
from tfslab.mlf import FractionalOrder
from tfslab.observe import make_mask, observe
from tfslab.serialize import (
    atomic_write_text,
    dumps_canonical,
    eigensystem_to_json,
    field_to_json,
    observed_to_json,
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
