import functools
import json
import os
import stat
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import node_samples
from tfslab import serialize
from tfslab.forward import KernelTable, TimeGrid, solve_modal, synthesize_rows
from tfslab.mlf import FractionalOrder
from tfslab.observe import ObservedData, make_mask, observe
from tfslab.serialize import (
    _json_default,
    atomic_write_text,
    atomic_write_texts,
    dumps_canonical,
    eigensystem_to_json,
    field_chunks,
    mask_to_json,
    observed_chunks,
    spatial_to_csv,
)
from tfslab.spectral import Grid1D, analytic_eigensystem


@pytest.fixture(scope="module")
def eig():
    return analytic_eigensystem(4, Grid1D(1.0, 19))


def held_field_chunks(field):
    """``field_chunks`` of a field held whole, any object with node samples
    ``values`` on ``tg`` x ``grid``: its rows are slices of its values."""
    return field_chunks(field.tg, field.grid, lambda lo, hi: field.values[lo:hi])


def texts(chunks):
    """The whole texts of a ``RowChunks``, one per file."""
    tuples = [chunks.head, *chunks.rows(0, chunks.n_rows), chunks.tail]
    return tuple("".join(parts) for parts in zip(*tuples, strict=True))


def test_observed_json_shape(eig):
    tg = TimeGrid(1.0, 6)
    y = solve_modal(np.eye(eig.n)[0], None, KernelTable(FractionalOrder(0.5), eig, tg))
    mask = make_mask([(0.2, 0.4)], eig.grid)
    data = observe(y, eig, tg, mask, 1e-3, 3)
    doc = json.loads(texts(observed_chunks(data))[1])
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


class TestAtomicWrite:
    @staticmethod
    def chunks(written, width=1):
        """``written`` tuples of ``width`` chunks, then a renderer failure."""
        for i in range(written):
            yield (f"{i}\n",) * width
        raise RuntimeError("renderer failed")

    def test_failed_stream_leaves_nothing(self, tmp_path):
        target = tmp_path / "artifact.csv"
        with pytest.raises(RuntimeError, match="renderer failed"):
            atomic_write_texts([str(target)], self.chunks(1))
        assert list(tmp_path.iterdir()) == []

    def test_failed_stream_keeps_the_old_target(self, tmp_path):
        target = tmp_path / "artifact.csv"
        atomic_write_text(str(target), "old\n")
        with pytest.raises(RuntimeError):
            atomic_write_texts([str(target)], self.chunks(1))
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("written", [0, 1])
    def test_failed_stream_replaces_no_target(self, tmp_path, written):
        # one target exists and keeps its content, the other is not created,
        # whether the stream fails at its first draw or after a tuple
        old, new = tmp_path / "field.csv", tmp_path / "field.json"
        atomic_write_text(str(old), "old\n")
        with pytest.raises(RuntimeError, match="renderer failed"):
            atomic_write_texts([str(old), str(new)], self.chunks(written, width=2))
        assert old.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [old]

    @pytest.mark.parametrize("width", [1, 3])
    def test_tuple_of_another_length_replaces_no_target(self, tmp_path, width):
        old, new = tmp_path / "field.csv", tmp_path / "field.json"
        atomic_write_text(str(old), "old\n")
        with pytest.raises(ValueError):
            atomic_write_texts([str(old), str(new)], [("a\n", "b\n"), ("c\n",) * width])
        assert old.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [old]

    @pytest.mark.parametrize("missing", [0, 1])
    def test_missing_directory_replaces_no_target(self, tmp_path, missing):
        # the other path's temp file, created first when the missing path
        # comes second, is removed
        old = tmp_path / "field.csv"
        atomic_write_text(str(old), "old\n")
        paths = [str(old)]
        paths.insert(missing, str(tmp_path / "absent" / "field.json"))
        with pytest.raises(OSError):
            atomic_write_texts(paths, [("a\n", "b\n")])
        assert old.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [old]

    def test_streams_are_drawn_in_lockstep(self, tmp_path, monkeypatch):
        # each tuple is written to both files before the next is drawn
        events = []
        fdopen = os.fdopen

        def spied(fd, mode):
            handle = fdopen(fd, mode)
            write = handle.write

            def logged(text):
                events.append(f"write {text}")
                return write(text)

            handle.write = logged
            return handle

        def chunks():
            for i in range(2):
                events.append(f"draw {i}")
                yield f"a{i}\n", f"b{i}\n"
            events.append("end")

        monkeypatch.setattr(os, "fdopen", spied)
        paths = [tmp_path / "a.csv", tmp_path / "b.json"]
        atomic_write_texts([str(p) for p in paths], chunks())
        assert events == ["draw 0", "write a0\n", "write b0\n",
                          "draw 1", "write a1\n", "write b1\n", "end"]
        assert [p.read_text() for p in paths] == ["a0\na1\n", "b0\nb1\n"]

    def test_chunks_are_written_in_order(self, tmp_path):
        target = tmp_path / "artifact.csv"
        atomic_write_texts([str(target)], ((f"{i}\n",) for i in range(3)))
        assert target.read_text() == "0\n1\n2\n"

    def test_string_is_written_whole(self, tmp_path):
        class Uniterable(str):
            def __iter__(self):
                raise AssertionError("a string was iterated")

        target = tmp_path / "artifact.json"
        atomic_write_text(str(target), Uniterable("whole\n"))
        assert target.read_text() == "whole\n"

    def test_mode_follows_the_umask(self, tmp_path):
        # as open() would create it: 0666 less the umask
        modes = {}
        old = os.umask(0o022)
        try:
            for umask in (0o022, 0o077):
                os.umask(umask)
                target = tmp_path / f"artifact-{umask:o}.json"
                atomic_write_text(str(target), "x\n")
                modes[umask] = stat.S_IMODE(target.stat().st_mode)
        finally:
            os.umask(old)
        assert modes == {0o022: 0o644, 0o077: 0o600}

    def test_writes_without_reading_the_umask(self, tmp_path, monkeypatch):
        # setting the umask to read it would change it for every thread of
        # the process while it is in effect; the files are created under it
        def umask(mask):
            raise AssertionError("os.umask was called")

        monkeypatch.setattr(os, "umask", umask)
        grid, tg = Grid1D(1.0, 3), TimeGrid(1.0, 2)
        field = SimpleNamespace(values=np.ones((2, 3), dtype=complex), tg=tg, grid=grid)
        paths = [tmp_path / "field.csv", tmp_path / "field.json"]
        atomic_write_texts([str(p) for p in paths], held_field_chunks(field))
        assert paths[0].read_text().splitlines()[1] == "0.5,0.25,1.0,0.0"
        assert json.loads(paths[1].read_text())["values_re_im"] == [1.0, 0.0] * 6


def test_field_json_flat_layout(eig):
    tg = TimeGrid(1.0, 3)
    y = node_samples(np.eye(eig.n)[0], None, KernelTable(FractionalOrder(0.5), eig, tg))
    doc = json.loads(texts(held_field_chunks(SimpleNamespace(values=y, tg=tg, grid=eig.grid)))[1])
    assert len(doc["values_re_im"]) == 2 * 3 * eig.grid.m
    v0 = complex(doc["values_re_im"][0], doc["values_re_im"][1])
    assert v0 == complex(y[0, 0])


def test_writing_a_field_holds_about_one_row(tmp_path):
    """Both artifacts of a field come from one pass over its rows, each row
    rendered, written to both files and dropped before the next: peak
    memory while writing them is a small multiple of one row's text, not a
    multiple of the field's 200 rows."""
    rng = np.random.default_rng(0)
    n_t, m = 200, 255
    values = rng.standard_normal((n_t, m)) + 1j * rng.standard_normal((n_t, m))
    row = len(repr(values[0].view(np.float64).tolist()))
    paths = [str(tmp_path / "field.csv"), str(tmp_path / "field.json")]
    tracemalloc.start()
    try:
        atomic_write_texts(paths, held_field_chunks(
            SimpleNamespace(values=values, tg=TimeGrid(1.0, n_t), grid=Grid1D(1.0, m))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * row
    assert json.loads((tmp_path / "field.json").read_text())["values_re_im"][:2] == [
        values[0, 0].real, values[0, 0].imag]


def test_writing_observed_data_holds_about_one_block(tmp_path):
    """The observed data's rows are narrow (2 floats a masked node), so they
    render ``BLOCK_FLOATS`` floats of whole rows at a time: peak memory while
    writing the pair is a small multiple of one block's text, not a multiple
    of the 400 rows' (about 165 blocks of text)."""
    rng = np.random.default_rng(1)
    grid, tg = Grid1D(1.0, 99), TimeGrid(1.0, 400)
    mask = make_mask([(0.2, 0.4)], grid)
    values = (rng.standard_normal((tg.n_t, mask.n_nodes))
              + 1j * rng.standard_normal((tg.n_t, mask.n_nodes)))
    data = ObservedData(values, mask, tg, 1e-3, 1)
    rows = serialize.BLOCK_FLOATS // (2 * mask.n_nodes)
    block = len(repr(values[:rows].view(np.float64).ravel().tolist()))
    paths = [str(tmp_path / "data.csv"), str(tmp_path / "data.json")]
    tracemalloc.start()
    try:
        atomic_write_texts(paths, observed_chunks(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * block
    assert json.loads((tmp_path / "data.json").read_text())["values_re_im"][-2:] == [
        values[-1, -1].real, values[-1, -1].imag]


class TestExactText:
    """The artifact text, pinned on tiny inputs: every float goes through
    repr (signed zeros, shortest round-trip digits, subnormal-range
    exponents), and numpy scalars and complex values map to plain JSON."""

    grid = Grid1D(0.4, 3)  # nodes 0.1, 0.2, 0.30000000000000004
    tg = TimeGrid(0.3, 2)  # times 0.15, 0.3
    values = np.array([[complex(-0.0, 0.1), 1 / 3, complex(1e-300, -0.0)],
                       [complex(0.0, -1 / 3), complex(2.5, 1e-300), -1.0]])

    def test_field_csv(self):
        text = texts(held_field_chunks(self))[0]
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
        assert texts(observed_chunks(data))[0] == (
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
        # arrays of any shape and dtype become lists; np.float64 is a float
        doc = {"b": [3, np.float64(1 / 3)], "a": (-0.0, 0.1, 1e-300),
               "indices": np.array([4, 5], dtype=np.intp), "arr": np.array([[-0.0], [1 / 3]]),
               "k": {"y": None, "x": "s", "v": np.array([0.1])}}
        assert dumps_canonical(doc) == """{
  "a": [
    -0.0,
    0.1,
    1e-300
  ],
  "arr": [
    [
      -0.0
    ],
    [
      0.3333333333333333
    ]
  ],
  "b": [
    3,
    0.3333333333333333
  ],
  "indices": [
    4,
    5
  ],
  "k": {
    "v": [
      0.1
    ],
    "x": "s",
    "y": null
  }
}
"""

    # no artifact holds a complex number or a numpy scalar other than
    # np.float64, so the JSON hook turns none of them into JSON
    @pytest.mark.parametrize("value", [complex(1.0, -0.0), np.int64(3), np.float32(0.1),
                                       np.bool_(True), np.complex128(1j)])
    def test_dumps_rejects_complex_and_numpy_scalars(self, value):
        with pytest.raises(TypeError):
            dumps_canonical({"x": [value]})

    def test_dumps_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})

    def test_field_json(self):
        text = texts(held_field_chunks(self))[1]
        assert text == """{
  "grid": {
    "L": 0.4,
    "m": 3
  },
  "time": {
    "T": 0.3,
    "n_t": 2
  },
  "values_re_im": [
    -0.0,
    0.1,
    0.3333333333333333,
    0.0,
    1e-300,
    -0.0,
    0.0,
    -0.3333333333333333,
    2.5,
    1e-300,
    -1.0,
    0.0
  ]
}
"""

    def test_observed_json(self):
        mask = make_mask([(0.15, 0.35)], self.grid)
        data = ObservedData(self.values[:, mask.indices], mask, self.tg, 0.0, 0)
        text = texts(observed_chunks(data))[1]
        assert text == """{
  "mask": {
    "grid": {
      "L": 0.4,
      "m": 3
    },
    "indices": [
      1,
      2
    ],
    "intervals": [
      [
        0.15,
        0.35
      ]
    ],
    "measure": 0.19999999999999998
  },
  "noise_level": 0.0,
  "seed": 0,
  "time": {
    "T": 0.3,
    "n_t": 2
  },
  "values_re_im": [
    0.3333333333333333,
    0.0,
    1e-300,
    -0.0,
    2.5,
    1e-300,
    -1.0,
    0.0
  ]
}
"""

    def test_one_by_one_field(self):
        # the serializer reads only these attributes; a real grid has at
        # least 3 nodes and 2 times
        field = stand_in_field(np.array([[complex(5e-324, 1e16)]]), [1e-5], [1e-5])
        csv_text, json_text = texts(held_field_chunks(field))
        assert csv_text == "t,x,re_y,im_y\n1e-05,1e-05,5e-324,1e+16\n"
        assert json_text == """{
  "grid": {
    "L": 1.0,
    "m": 1
  },
  "time": {
    "T": 1.0,
    "n_t": 1
  },
  "values_re_im": [
    5e-324,
    1e+16
  ]
}
"""

    def test_non_finite_spelling(self):
        # a synthesized field is checked finite; observed data and
        # estimates are not, and keep json's and repr's spellings
        nan, inf = float("nan"), float("inf")
        mask = make_mask([(0.15, 0.35)], self.grid)
        data = ObservedData(np.array([[complex(nan, inf), complex(-inf, 0.5)],
                                      [complex(1.0, nan), complex(inf, -inf)]]),
                            mask, self.tg, 0.0, 0)
        csv_text, json_text = texts(observed_chunks(data))
        assert csv_text == (
            "t,x,re,im\n"
            "0.15,0.2,nan,inf\n"
            "0.15,0.30000000000000004,-inf,0.5\n"
            "0.3,0.2,1.0,nan\n"
            "0.3,0.30000000000000004,inf,-inf\n"
        )
        assert json_text == dumps_canonical(json.loads(json_text))
        assert json_text.endswith("""  "values_re_im": [
    NaN,
    Infinity,
    -Infinity,
    0.5,
    1.0,
    NaN,
    Infinity,
    -Infinity
  ]
}
""")
        assert spatial_to_csv(self.grid.nodes, np.array([nan, -inf, complex(0.25, inf)])) == (
            "x,re,im\n"
            "0.1,nan,0.0\n"
            "0.2,-inf,0.0\n"
            "0.30000000000000004,0.25,inf\n"
        )


def stand_in_field(values, times, nodes):
    """An object with the attributes the field serializer reads, on any
    shape (the domain grids need at least 3 nodes and 2 times)."""
    values = np.asarray(values)
    return SimpleNamespace(
        values=values,
        tg=SimpleNamespace(T=1.0, n_t=values.shape[0], times=np.asarray(times)),
        grid=SimpleNamespace(L=1.0, m=values.shape[1], nodes=np.asarray(nodes)))


def reference_csv(header, nodes, values, times):
    """The per-float CSV writer the row renderer replaced."""
    lines = [header]
    for t, row in zip(np.asarray(times, dtype=float).tolist(), values):
        lines += [f"{t!r},{x!r},{re!r},{im!r}" for x, re, im in zip(
            np.asarray(nodes, dtype=float).tolist(), row.real.tolist(), row.imag.tolist())]
    return "\n".join(lines) + "\n"


def reference_json(meta, values):
    """``json.dumps`` on the whole document, the interleaved real and
    imaginary parts of ``values`` included."""
    parts = [p for v in np.ravel(values).tolist() for p in (v.real, v.imag)]
    return json.dumps({**meta, "values_re_im": parts}, default=_json_default,
                      sort_keys=True, indent=2) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fields(draw):
    n_t = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    values = draw(arrays(np.complex128, (n_t, m),
                         elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
    times = draw(arrays(np.float64, n_t, elements=finite))
    nodes = draw(arrays(np.float64, m, elements=finite))
    return stand_in_field(values, times, nodes)


@settings(max_examples=200, deadline=None)
@given(fields())
def test_streamed_field_matches_reference_texts(field):
    csv_text, json_text = texts(held_field_chunks(field))
    assert csv_text == reference_csv(
        "t,x,re_y,im_y", field.grid.nodes, field.values, field.tg.times)
    assert json_text == reference_json(
        {"grid": {"L": field.grid.L, "m": field.grid.m},
         "time": {"T": field.tg.T, "n_t": field.tg.n_t}}, field.values)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_streamed_observed_matches_reference_texts(data):
    grid = Grid1D(1.0, data.draw(st.integers(3, 9)))
    lo = data.draw(st.floats(0.0, 0.7))
    mask = make_mask([(lo, lo + 0.3)], grid)
    tg = TimeGrid(data.draw(st.floats(1e-3, 1e3)), data.draw(st.integers(2, 4)))
    values = data.draw(arrays(np.complex128, (tg.n_t, mask.n_nodes), elements=st.complex_numbers(
        allow_nan=False, allow_infinity=False)))
    observed = ObservedData(values, mask, tg, data.draw(st.floats(0.0, 1.0)),
                            data.draw(st.integers(0, 2**31)))
    csv_text, json_text = texts(observed_chunks(observed))
    assert csv_text == reference_csv(
        "t,x,re,im", grid.nodes[mask.indices], values, tg.times)
    assert json_text == reference_json(
        {"time": {"T": tg.T, "n_t": tg.n_t}, "mask": mask_to_json(mask),
         "noise_level": observed.noise_level, "seed": observed.seed}, values)


@settings(max_examples=100, deadline=None)
@given(arrays(np.complex128, st.integers(1, 6), elements=st.complex_numbers()))
def test_spatial_csv_matches_reference_text(values):
    # estimate.csv: one rendered row of any floats, non-finite ones included
    nodes = np.linspace(0.1, 0.9, values.size)
    assert spatial_to_csv(nodes, values) == "x,re,im\n" + "".join(
        f"{x!r},{v.real!r},{v.imag!r}\n" for x, v in zip(nodes.tolist(), values.tolist()))
    with pytest.raises(ValueError):
        spatial_to_csv(np.append(nodes, 1.0), values)


@settings(max_examples=500, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats()))
@example(np.array([np.nextafter(1e-4, 0.0), 1e-4, -np.nextafter(1e-4, 0.0), -1e-4]))
@example(np.array([9999999999999998.0, 1e16, -9999999999999998.0, -1e16]))
@example(np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -5e-324]))
@example(np.array([-0.0, 0.0, float("nan"), float("inf"), -float("inf")]))
@example(np.array([]))
def test_reprs_equal_repr(values):
    # orjson's digits, with repr where the two spell a float differently
    assert serialize._reprs(values) == [repr(v) for v in values.tolist()]


def test_reprs_equal_repr_on_random_bit_patterns():
    # raw bit patterns are mostly far outside 1e-4 <= |v| < 1e16 and take
    # the repr path; the same bits as 53-bit fractions over +-2^19 take
    # orjson's
    bits = np.random.default_rng(np.random.Philox(41)).integers(
        0, 2**64, 1 << 20, dtype=np.uint64, endpoint=False)
    fractions = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-33 - 2.0**19
    for values in (bits.view(np.float64), fractions):
        assert serialize._reprs(values) == repr(values.tolist())[1:-1].split(", ")


float_arrays = arrays(np.float64, st.integers(0, 6), elements=st.floats())
json_values = st.one_of(float_arrays, st.floats(), st.integers(), st.text(max_size=3),
                        st.builds(lambda a: {"nested": a}, float_arrays))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4), json_values, max_size=4))
@example({"lambdas": np.array([]), "m": 3})
@example({"lambdas": np.array([1e16])})
@example({"phis_row_major": np.array([-0.0, 1e-05, 1e16, 5e-324, 0.1])})
@example({"modal_re_im": np.array([float("nan"), float("inf"), -float("inf"), 1.0]),
          "spatial_re_im": np.array([-float("inf")])})
def test_spliced_arrays_match_json(doc):
    """Top-level float arrays are rendered by one repr and spliced in; the
    text is json's, non-finite spellings and the empty array included."""
    plain = {key: value.tolist() if isinstance(value, np.ndarray) else value
             for key, value in doc.items()}
    assert dumps_canonical(doc) == json.dumps(
        plain, default=_json_default, indent=2, sort_keys=True) + "\n"


def force_parts(monkeypatch, cpus, part_floats=1):
    """Split rows as if there were ``cpus`` CPUs and a slice needed only
    ``part_floats`` floats."""
    monkeypatch.setattr(serialize, "PART_FLOATS", part_floats)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="rows are split only where os.fork exists")
class TestSplitWriter:
    """A large artifact pair's row range is split into one slice per CPU,
    the later slices rendered by forked children; the bytes do not depend
    on the number of slices."""

    @staticmethod
    def field(n_t, m=5):
        rng = np.random.default_rng(n_t)
        values = rng.standard_normal((n_t, m)) + 1j * rng.standard_normal((n_t, m))
        values[0, 0] = complex(-0.0, 1e16)
        return stand_in_field(values, np.arange(float(n_t)), np.linspace(0.1, 0.5, m))

    # 1, 2 and 3 slices of 7 rows, 3 slices for 8 CPUs and 3 rows, and the
    # 70 floats of 7 rows at 64 CPUs, one slice below 2 * 35 floats
    @pytest.mark.parametrize("cpus, n_t, part_floats, forks", [
        (1, 7, 1, 0), (2, 7, 1, 1), (3, 7, 1, 2), (8, 3, 1, 2), (64, 7, 36, 0),
        (64, 7, 35, 1)])
    def test_bytes_do_not_depend_on_the_part_count(self, tmp_path, monkeypatch,
                                                   cpus, n_t, part_floats, forks):
        field = self.field(n_t)
        expected = texts(held_field_chunks(field))
        force_parts(monkeypatch, cpus, part_floats)
        fork, calls = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        paths = [tmp_path / "field.csv", tmp_path / "field.json"]
        atomic_write_texts([str(p) for p in paths], held_field_chunks(field))
        assert tuple(p.read_text() for p in paths) == expected
        assert len(calls) == forks
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        assert_no_child_left()

    # blocks of two rows (budgets 1-3), of three rows (7) and of a whole
    # slice (14, the whole array) of 7 rows of one node, in 1, 2 and 3 slices
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("block_floats", [1, 2, 3, 7, 14])
    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, cpus,
                                                   block_floats):
        field = self.field(7, m=1)
        force_parts(monkeypatch, cpus)
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", block_floats)
        paths = [tmp_path / "field.csv", tmp_path / "field.json"]
        atomic_write_texts([str(p) for p in paths], held_field_chunks(field))
        assert [p.read_text() for p in paths] == [
            reference_csv("t,x,re_y,im_y", field.grid.nodes, field.values, field.tg.times),
            reference_json({"grid": {"L": 1.0, "m": 1}, "time": {"T": 1.0, "n_t": 7}},
                           field.values)]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_non_finite_samples_at_block_ends(self, tmp_path, monkeypatch, cpus):
        # blocks of two rows: non-finite floats open and close blocks, and
        # keep their spellings in each
        grid, tg = Grid1D(1.0, 9), TimeGrid(1.0, 6)
        mask = make_mask([(0.2, 0.6)], grid)
        values = np.full((tg.n_t, mask.n_nodes), complex(1.5, -0.25))
        values[0, 0], values[1, -1] = complex(np.nan, 1.0), complex(2.0, np.inf)
        values[2, 0], values[5, -1] = complex(-np.inf, 0.0), complex(0.0, np.nan)
        data = ObservedData(values, mask, tg, 0.0, 0)
        force_parts(monkeypatch, cpus)
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 4 * mask.n_nodes)
        paths = [tmp_path / "data.csv", tmp_path / "data.json"]
        atomic_write_texts([str(p) for p in paths], observed_chunks(data))
        assert [p.read_text() for p in paths] == [
            reference_csv("t,x,re,im", grid.nodes[mask.indices], values, tg.times),
            reference_json({"time": {"T": tg.T, "n_t": tg.n_t}, "mask": mask_to_json(mask),
                            "noise_level": 0.0, "seed": 0}, values)]
        assert_no_child_left()

    def test_observed_data_splits_to_the_same_bytes(self, tmp_path, monkeypatch):
        # non-finite samples keep their spellings in every slice
        grid = Grid1D(1.0, 9)
        mask = make_mask([(0.2, 0.6)], grid)
        values = np.full((5, mask.n_nodes), complex(1.5, -0.25))
        values[1, 0], values[3, -1] = complex(np.nan, np.inf), complex(-np.inf, 0.0)
        data = ObservedData(values, mask, TimeGrid(1.0, 5), 0.0, 0)
        expected = texts(observed_chunks(data))
        force_parts(monkeypatch, 2)
        paths = [tmp_path / "data.csv", tmp_path / "data.json"]
        atomic_write_texts([str(p) for p in paths], observed_chunks(data))
        assert tuple(p.read_text() for p in paths) == expected
        assert_no_child_left()

    @pytest.mark.parametrize("row, error, raised", [
        (5, RuntimeError, OSError), (1, RuntimeError, RuntimeError),
        (1, KeyboardInterrupt, KeyboardInterrupt)])
    def test_failed_slice_replaces_no_target(self, tmp_path, monkeypatch, row, error,
                                             raised):
        # 9 rows in 3 slices of blocks of two rows, [0, 3) here and [3, 6),
        # [6, 9) in children: row 5 fails in the middle child after it wrote
        # rows 3 and 4, and the write raises OSError; row 1 fails here, and
        # the children are killed and the failure raised as it is.  Each
        # case fails once as its block is rendered and once as its rows are
        # synthesized.
        old, new = tmp_path / "field.csv", tmp_path / "field.json"
        atomic_write_text(str(old), "old\n")
        force_parts(monkeypatch, 3)
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 1)  # two rows per block
        field, render = self.field(9), serialize._render_block
        for stage in ("render", "synthesis"):

            def failing(prefixes, *args):
                if stage == "render" and f"{float(row)!r}," in prefixes:
                    raise error("renderer failed")
                return render(prefixes, *args)

            def source(lo, hi):
                if stage == "synthesis" and lo <= row < hi:
                    raise error("synthesis failed")
                return field.values[lo:hi]

            monkeypatch.setattr(serialize, "_render_block", failing)
            with pytest.raises(raised):
                atomic_write_texts([str(old), str(new)],
                                   field_chunks(field.tg, field.grid, source))
            assert old.read_text() == "old\n"
            assert list(tmp_path.iterdir()) == [old]
            assert_no_child_left()

    # the rows of a modal solution, synthesized a block at a time in every
    # slice, forked ones included, with blocks of two rows (budget 1) and
    # one-row tails, or of a whole slice (budget 256)
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("block_floats", [1, 256])
    def test_synthesized_field_has_the_whole_products_bytes(self, tmp_path, monkeypatch,
                                                             cpus, block_floats):
        rng = np.random.default_rng(cpus)
        grid, tg = Grid1D(1.0, 5), TimeGrid(1.0, 7)
        coeffs = rng.standard_normal((3, tg.n_t)) + 1j * rng.standard_normal((3, tg.n_t))
        phis = rng.standard_normal((3, grid.m))
        force_parts(monkeypatch, cpus)
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", block_floats)
        paths = [tmp_path / "field.csv", tmp_path / "field.json"]
        atomic_write_texts([str(p) for p in paths], field_chunks(
            tg, grid, functools.partial(synthesize_rows, coeffs, phis)))
        whole = coeffs.T @ phis
        assert [p.read_text() for p in paths] == [
            reference_csv("t,x,re_y,im_y", grid.nodes, whole, tg.times),
            reference_json({"grid": {"L": 1.0, "m": grid.m},
                            "time": {"T": 1.0, "n_t": tg.n_t}}, whole)]
        assert_no_child_left()
