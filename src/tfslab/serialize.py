"""CSV/JSON serialization with atomic writes and reproducible formatting.

Floats are rendered with Python's shortest-roundtrip repr (max 17
significant digits); JSON keys are sorted.  Identical inputs therefore
produce byte-identical artifacts.

The complex arrays of the field and the observed data are rendered one
time row at a time, each float's repr once (``repr`` of the row's list, in
C), and the CSV and the JSON artifact are both built from those row
strings: the JSON is the small document through ``json.dumps`` with the
array spliced in.  Both texts come as chunk iterators, one chunk per row,
over one lazy stream of row strings.  ``atomic_write_texts`` draws the two
in lockstep, so each row is rendered, written to both files and dropped
before the next is rendered: one rendered row per artifact pair is held,
never a full artifact text.
"""

import collections
import contextlib
import itertools
import json
import os
import tempfile

import numpy as np


def _json_default(obj):
    """``json.dumps`` hook for the values the stdlib encoder does not know:
    arrays become lists, numpy scalars Python scalars, and complex numbers
    ``{"re", "im"}`` objects."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, default=_json_default, sort_keys=True, indent=2) + "\n"


def atomic_write_texts(targets) -> None:
    """Write each ``(path, text)`` of ``targets``, ``text`` a string or an
    iterable of string chunks, via a temp file in the path's directory plus
    rename, so readers never see a partial artifact.

    The texts are drawn in lockstep, one chunk of each in turn until every
    one is exhausted, so chunk iterators over one lazy source hold only the
    part of it that the others have not yet drawn.  On any failure every
    temp file is removed; the targets are renamed into place only once all
    of them are written."""
    tmps = []
    try:
        with contextlib.ExitStack() as files:
            handles = []
            for path, _ in targets:
                directory = os.path.dirname(os.path.abspath(path)) or "."
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tfslab-", suffix=".tmp")
                tmps.append(tmp)
                handles.append(files.enter_context(os.fdopen(fd, "w")))
            streams = [[text] if isinstance(text, str) else text for _, text in targets]
            for chunks in itertools.zip_longest(*streams):
                for handle, chunk in zip(handles, chunks):
                    if chunk is not None:
                        handle.write(chunk)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        for tmp in tmps:
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, (path, _) in zip(tmps, targets):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_text(path: str, text) -> None:
    """``atomic_write_texts`` for one target."""
    atomic_write_texts([(path, text)])


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dumps_canonical(obj))


def _re_im(values) -> np.ndarray:
    """Real and imaginary parts interleaved, [re_0, im_0, re_1, im_1, ...],
    in row-major order of ``values``."""
    flat = np.ravel(values)
    return np.column_stack([flat.real, flat.imag]).ravel()


def _rows(values):
    """Each row of ``values`` (a 1-D array is one row), rendered as it is
    drawn, as one string of its interleaved parts, ``"re_0, im_0, re_1,
    im_1, ..."``; ``repr`` of the row's list renders every float once, with
    the digits ``f"{x!r}"`` and ``json`` give."""
    return (repr(_re_im(row).tolist())[1:-1] for row in np.atleast_2d(values))


def _csv_chunks(header, nodes, rows, times=None):
    """CSV lines ``[t,]x,re,im``, time-major, one chunk per row of ``rows``
    (without ``times``, ``rows`` is that one row)."""
    xs = [repr(x) for x in np.asarray(nodes, dtype=float).tolist()]
    if times is None:
        prefixes = [""]
    else:
        prefixes = [f"{t!r}," for t in np.asarray(times, dtype=float).tolist()]
    yield header + "\n"
    for prefix, row in zip(prefixes, rows, strict=True):
        parts = iter(row.split(", "))
        yield "".join([f"{prefix}{x},{re},{im}\n"
                       for x, re, im in zip(xs, parts, parts, strict=True)])


# stands in for the array while json.dumps renders the rest of the document
_SPLICE = "\0splice"
# repr spells non-finite floats the CSV way; json.dumps spells them so
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_row(row: str) -> str:
    if "n" not in row:  # a finite repr holds only digits, ".", "-", "+" and "e"
        return row
    return ", ".join([_JSON_SPELLING.get(part, part) for part in row.split(", ")])


def _json_chunks(meta: dict, rows):
    """``dumps_canonical({**meta, "values_re_im": <the floats of rows>})`` in
    chunks: the small document goes through ``json.dumps`` with a
    placeholder, and the array is spliced in from the row strings, one
    chunk per row.  The key is top-level, so its items sit at indent 4."""
    head, _, tail = dumps_canonical({**meta, "values_re_im": _SPLICE}).partition(
        json.dumps(_SPLICE))
    sep = ",\n    "
    yield head + "[\n    "
    for i, row in enumerate(rows):
        yield (sep if i else "") + _json_row(row).replace(", ", sep)
    yield "\n  ]" + tail


def _tee(rows):
    """Two iterators over the iterator ``rows``, which draw each row from it
    once and hold it only until both have passed it (``itertools.tee`` keeps
    a row until both are some 57 rows past it)."""
    queues = (collections.deque(), collections.deque())

    def branch(mine):
        while True:
            if not mine:
                row = next(rows, None)
                if row is None:
                    return
                for queue in queues:
                    queue.append(row)
                del row  # only the queues hold it, so the other's draw frees it
            yield mine.popleft()

    return branch(queues[0]), branch(queues[1])


def _texts(header, nodes, times, values, meta):
    """The CSV and the JSON (``meta`` plus ``values_re_im``) of a time-major
    complex array, as chunk iterators over one lazy rendering of its
    floats: a row is rendered once, when the first of the two draws it, and
    kept until the other has drawn it too."""
    csv_rows, json_rows = _tee(_rows(values))
    return _csv_chunks(header, nodes, csv_rows, times), _json_chunks(meta, json_rows)


# ---------------------------------------------------------------------------
# domain objects


def _field_meta(field) -> dict:
    return {
        "time": {"T": field.tg.T, "n_t": field.tg.n_t},
        "grid": {"L": field.grid.L, "m": field.grid.m},
    }


def field_texts(field):
    """``(csv, json)``: the field's CSV rows and its canonical JSON (grid,
    time grid and ``values_re_im``) as chunk iterators that share one
    rendering of the field's floats."""
    return _texts("t,x,re_y,im_y", field.grid.nodes, field.tg.times, field.values,
                  _field_meta(field))


def _observed_meta(data) -> dict:
    return {
        "time": {"T": data.tg.T, "n_t": data.tg.n_t},
        "mask": mask_to_json(data.mask),
        "noise_level": data.noise_level,
        "seed": data.seed,
    }


def observed_texts(data):
    """``(csv, json)``: the observations' CSV rows and their canonical JSON
    (time grid, mask, noise level, seed and ``values_re_im``) as chunk
    iterators that share one rendering of the data's floats."""
    return _texts("t,x,re,im", data.mask.grid.nodes[data.mask.indices], data.tg.times,
                  data.values, _observed_meta(data))


def mask_to_json(mask) -> dict:
    return {
        "intervals": [list(iv) for iv in mask.intervals],
        "indices": mask.indices,
        "measure": mask.measure,
        "grid": {"L": mask.grid.L, "m": mask.grid.m},
    }


def eigensystem_to_json(eig) -> dict:
    return {
        "grid": {"L": eig.grid.L, "m": eig.grid.m},
        "lambdas": eig.lambdas,
        "phis_row_major": eig.phis.ravel(),
        "distinct": [
            {"mu": g.mu, "multiplicity": g.multiplicity,
             "start": g.start, "stop": g.stop}
            for g in eig.distinct
        ],
    }


def result_to_json(result) -> dict:
    out = {
        "residual": result.residual,
        "reg_norm": result.reg_norm,
        "diagnostics": result.diagnostics,
    }
    if result.modal is not None:
        out["modal_re_im"] = _re_im(result.modal)
    if result.spatial is not None:
        out["spatial_re_im"] = _re_im(result.spatial)
    if result.order is not None:
        out["order"] = result.order
    return out


def spatial_to_csv(nodes, values) -> str:
    return "".join(_csv_chunks("x,re,im", nodes, _rows(values)))
