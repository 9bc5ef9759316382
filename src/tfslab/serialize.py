"""CSV/JSON serialization with atomic writes and reproducible formatting.

Floats are rendered with Python's shortest-roundtrip repr (max 17
significant digits); JSON keys are sorted.  Identical inputs therefore
produce byte-identical artifacts.

The complex arrays of the field and the observed data are rendered one
time row at a time, each float's repr once (``repr`` of the row's list, in
C), and the CSV and the JSON artifact are both built from that row
string: the JSON is the small document through ``json.dumps`` with the
array spliced in.  An artifact pair comes as one stream of ``(csv, json)``
chunk tuples, one per row, and ``atomic_write_texts`` writes each tuple to
both files before it draws the next: one rendered row per artifact pair is
held, never a full artifact text.
"""

import contextlib
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


def atomic_write_texts(paths, chunks) -> None:
    """Write ``paths`` together from ``chunks``, an iterable of tuples of
    strings, one per path, via a temp file in each path's directory plus
    rename, so readers never see a partial artifact.

    Each tuple is written before the next is drawn.  On any failure every
    temp file is removed; the paths are replaced only once all of them are
    written."""
    tmps = []
    try:
        with contextlib.ExitStack() as files:
            handles = []
            for path in paths:
                directory = os.path.dirname(os.path.abspath(path)) or "."
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tfslab-", suffix=".tmp")
                tmps.append(tmp)
                handles.append(files.enter_context(os.fdopen(fd, "w")))
            for parts in chunks:
                for handle, part in zip(handles, parts, strict=True):
                    handle.write(part)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        for tmp in tmps:
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_texts([path], [(text,)])


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dumps_canonical(obj))


def _re_im(values) -> np.ndarray:
    """Real and imaginary parts interleaved, [re_0, im_0, re_1, im_1, ...],
    in row-major order of ``values``."""
    flat = np.ravel(values)
    return np.column_stack([flat.real, flat.imag]).ravel()


def _render(row) -> str:
    """A 1-D array as one string of its interleaved parts, ``"re_0, im_0,
    re_1, im_1, ..."``; ``repr`` of the list renders every float once, with
    the digits ``f"{x!r}"`` and ``json`` give."""
    return repr(_re_im(row).tolist())[1:-1]


def _csv_lines(prefix: str, xs, row: str) -> str:
    """The CSV lines ``{prefix}x,re,im`` of one rendered row at the node
    reprs ``xs``."""
    parts = iter(row.split(", "))
    return "".join([f"{prefix}{x},{re},{im}\n"
                    for x, re, im in zip(xs, parts, parts, strict=True)])


# stands in for the array while json.dumps renders the rest of the document
_SPLICE = "\0splice"
# repr spells non-finite floats the CSV way; json.dumps spells them so
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_row(row: str) -> str:
    if "n" not in row:  # a finite repr holds only digits, ".", "-", "+" and "e"
        return row
    return ", ".join([_JSON_SPELLING.get(part, part) for part in row.split(", ")])


def _chunks(header, nodes, times, values, meta):
    """The CSV (``header``, then lines ``t,x,re,im``, time-major) and the JSON
    (``dumps_canonical({**meta, "values_re_im": <the floats of values>})``)
    of a time-major complex array, as ``(csv, json)`` chunk tuples: the
    header and the JSON head, one tuple per row rendered once, and the JSON
    tail.  The JSON's small document goes through ``json.dumps`` with a
    placeholder for the array; the key is top-level, so its items sit at
    indent 4."""
    xs = [repr(x) for x in np.asarray(nodes, dtype=float).tolist()]
    head, _, tail = dumps_canonical({**meta, "values_re_im": _SPLICE}).partition(
        json.dumps(_SPLICE))
    sep = ",\n    "
    yield header + "\n", head + "[\n    "
    times = np.asarray(times, dtype=float).tolist()
    for i, (t, values_t) in enumerate(zip(times, values, strict=True)):
        row = _render(values_t)
        yield (_csv_lines(f"{t!r},", xs, row),
               (sep if i else "") + _json_row(row).replace(", ", sep))
    yield "", "\n  ]" + tail


# ---------------------------------------------------------------------------
# domain objects


def _field_meta(field) -> dict:
    return {
        "time": {"T": field.tg.T, "n_t": field.tg.n_t},
        "grid": {"L": field.grid.L, "m": field.grid.m},
    }


def field_chunks(field):
    """The field's CSV rows and its canonical JSON (grid, time grid and
    ``values_re_im``), as one stream of ``(csv, json)`` chunk tuples."""
    return _chunks("t,x,re_y,im_y", field.grid.nodes, field.tg.times, field.values,
                   _field_meta(field))


def _observed_meta(data) -> dict:
    return {
        "time": {"T": data.tg.T, "n_t": data.tg.n_t},
        "mask": mask_to_json(data.mask),
        "noise_level": data.noise_level,
        "seed": data.seed,
    }


def observed_chunks(data):
    """The observations' CSV rows and their canonical JSON (time grid, mask,
    noise level, seed and ``values_re_im``), as one stream of ``(csv,
    json)`` chunk tuples."""
    return _chunks("t,x,re,im", data.mask.grid.nodes[data.mask.indices], data.tg.times,
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
    xs = [repr(x) for x in np.asarray(nodes, dtype=float).tolist()]
    return "x,re,im\n" + _csv_lines("", xs, _render(values))
