"""CSV/JSON serialization with atomic writes and reproducible formatting.

Floats are rendered with Python's shortest-roundtrip repr (max 17
significant digits); JSON keys are sorted.  Identical inputs therefore
produce byte-identical artifacts.

The complex arrays of the field and the observed data are rendered a
block of whole time rows at a time (``BLOCK_FLOATS``), drawn from a row
source (a forward run synthesizes its field's rows from the modal
solution, never holding the field), each float's repr once (``repr`` of
the block's list, in C), and the CSV and the JSON artifact are both built
from its strings: the JSON is the small document through ``json.dumps``
with the array spliced in, as ``dumps_canonical`` splices a document's
top-level float arrays.  An artifact pair comes as a ``RowChunks``: a
``(csv, json)`` head, the chunk tuples of any row range, one per block,
and a tail.  ``atomic_write_texts`` writes each tuple to both files
before it draws the next: one rendered block per artifact pair and
process is held, never a full artifact text.

Rendering costs about 1 µs a float, and rows render independently.  A
pair of at least ``2 * PART_FLOATS`` floats has its row range split into
one contiguous slice per usable CPU, each of at least ``PART_FLOATS``
floats: forked children draw and render the later slices into part files
next to the temp files while this process does the first, and it then
appends the parts in order.  The bytes are the same for any number of slices.
"""

import contextlib
import json
import os
import shutil
import signal

import numpy as np

# The fewest floats a forked row slice renders.  On a shared 2-vCPU host,
# writing an artifact pair takes 0.8-1.6 µs a float and forking and reaping
# a 40 MB process 1.4 ms (3.5 ms at most), so a slice of this size (50 ms
# or more) pays for its fork more than ten times over, and the observed
# data of an inversion (a few thousand complex values) is always written
# in-process.
PART_FLOATS = 65_536

# The floats of whole rows (at least two, see forward.synthesize_rows) rendered
# as one block, so narrow rows share one repr; README gives the trade-off.
BLOCK_FLOATS = 256


def _json_default(obj):
    """``json.dumps`` hook for the one value type the stdlib encoder does
    not know and the artifacts hold: an array, which becomes a list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# stands in for an array while json.dumps renders the rest of the document
_SPLICE = "\0splice"
# the separator of a top-level array's items
_SEP = ",\n    "
# repr spells non-finite floats the CSV way; json.dumps spells them so
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_items(parts) -> str:
    """Rendered floats, ``repr``'s strings, as the items of a top-level JSON
    array, in json's spelling and at indent 4."""
    items = _SEP.join(parts)
    if "n" not in items:  # a finite repr holds only digits, ".", "-", "+" and "e"
        return items
    return _SEP.join([_JSON_SPELLING.get(part, part) for part in parts])


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with ``_json_default``,
    plus a newline.  The 1-D float64 arrays among the values of a top-level
    dict are rendered by one ``repr`` of their list each and spliced in,
    which skips json's pure-Python indenting encoder for them."""
    arrays = {}
    if isinstance(obj, dict):
        arrays = {key: value for key, value in obj.items()
                  if isinstance(key, str) and isinstance(value, np.ndarray)
                  and value.ndim == 1 and value.dtype == np.float64}
        obj = {**obj, **dict.fromkeys(arrays, _SPLICE)}
    text = json.dumps(obj, default=_json_default, sort_keys=True, indent=2) + "\n"
    for key, values in arrays.items():
        # a top-level item's key at indent 2 is unique in the document
        item = f"\n  {json.dumps(key)}: "
        items = _json_items(repr(values.tolist())[1:-1].split(", "))
        array = f"[\n    {items}\n  ]" if values.size else "[]"
        text = text.replace(item + json.dumps(_SPLICE), item + array)
    return text


def _write(handles, chunks) -> None:
    """Write each tuple of ``chunks`` to ``handles``, one string per handle,
    before the next tuple is drawn."""
    for parts in chunks:
        for handle, part in zip(handles, parts, strict=True):
            handle.write(part)


def _temp(path, suffix):
    """A new empty file next to ``path``, named ``.tfslab-<random>{suffix}``
    and created with the mode ``open`` gives a new file (0666 less the
    umask); returns its descriptor and name.  An existing file of that name
    is never opened: the call raises instead."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    name = os.path.join(directory, f".tfslab-{os.urandom(8).hex()}{suffix}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    return os.open(name, flags, 0o666), name


def _slice_bounds(chunks):
    """The row bounds of one contiguous slice per usable CPU, with at most
    one slice per row and per ``PART_FLOATS`` floats, and one slice where
    the platform cannot fork."""
    if not hasattr(os, "fork"):
        return [0, chunks.n_rows]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    parts = max(1, min(cpus, chunks.n_rows, chunks.floats // PART_FLOATS))
    return [chunks.n_rows * j // parts for j in range(parts + 1)]


def _fork_writer(names, rows) -> int:
    """Fork a child that writes the chunk tuples ``rows`` to the files
    ``names`` and exits 0, or 1 on any failure; returns its pid.  The child
    never returns into the caller's stack, so it flushes no inherited
    buffer and runs no cleanup of the caller's."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with contextlib.ExitStack() as files:
                _write([files.enter_context(open(name, "w")) for name in names], rows)
            code = 0
        finally:
            os._exit(code)
    return pid


def _write_rows(paths, handles, chunks) -> None:
    """Write the ``RowChunks`` ``chunks`` to ``handles``, the open temp files
    of ``paths``: the head, the first row slice rendered here while a forked
    child renders each later slice into part files, each child's parts
    appended once it has exited 0, and the tail.  With one slice nothing is
    forked.  On any failure every child still running is killed, and every
    child is reaped and every part file removed."""
    bounds = _slice_bounds(chunks)
    _write(handles, [chunks.head])
    for handle in handles:  # nothing buffered for a child to inherit
        handle.flush()
    children, parts = [], []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            names = []
            for path in paths:
                fd, name = _temp(path, ".part")
                os.close(fd)
                parts.append(name)
                names.append(name)
            children.append((_fork_writer(names, chunks.rows(start, stop)), names))
        _write(handles, chunks.rows(bounds[0], bounds[1]))
        while children:
            pid, names = children[0]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                raise OSError(f"a forked row writer of {paths} failed "
                              f"(exit code {os.waitstatus_to_exitcode(status)})")
            for handle, name in zip(handles, names):
                handle.flush()
                with open(name, "rb") as part:
                    shutil.copyfileobj(part, handle.buffer)
    finally:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)
        for name in parts:
            os.unlink(name)
    _write(handles, [chunks.tail])


def atomic_write_texts(paths, chunks) -> None:
    """Write ``paths`` together from ``chunks``, an iterable of tuples of
    strings, one per path, via a temp file in each path's directory plus
    rename, so readers never see a partial artifact.  A ``RowChunks`` is
    written by ``_write_rows``, whose row slices may render in parallel.

    Each tuple is written before the next is drawn.  On any failure every
    temp file is removed; the paths are replaced only once all of them are
    written."""
    tmps = []
    try:
        with contextlib.ExitStack() as files:
            handles = []
            for path in paths:
                fd, tmp = _temp(path, ".tmp")
                tmps.append(tmp)
                handles.append(files.enter_context(os.fdopen(fd, "w")))
            if isinstance(chunks, RowChunks):
                _write_rows(paths, handles, chunks)
            else:
                _write(handles, chunks)
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
    """Real and imaginary parts interleaved along the last axis, [re_0, im_0,
    re_1, im_1, ...]: a float64 view, copied unless contiguous complex128."""
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)


def _render_block(prefixes, xs, floats) -> tuple[str, list]:
    """The CSV lines ``{prefix}x,re,im`` of the interleaved parts ``floats``,
    one row per prefix at the nodes ``xs`` (``"x,"`` each), and the floats'
    strings, from one ``repr`` of their list; the slots raise ``ValueError``
    where the nodes and the floats disagree."""
    parts = repr(floats.ravel().tolist())[1:-1].split(", ")
    cells = [None, None, None, ",", None, "\n"] * (len(parts) // 2)
    cells[0::6] = [prefix for prefix in prefixes for _ in xs]
    cells[1::6] = xs * len(prefixes)
    cells[2::6] = parts[0::2]
    cells[4::6] = parts[1::2]
    return "".join(cells), parts


class RowChunks:
    """The CSV (``header``, then lines ``t,x,re,im``, time-major) and the JSON
    (``dumps_canonical({**meta, "values_re_im": <the floats of the rows>})``)
    of the time-major complex rows that ``source(lo, hi)`` returns, as chunk
    tuples in the order they are written: ``head``; ``rows(start, stop)``,
    one per block of the rows ``start`` to ``stop - 1``, blocks drawn from
    ``source`` eight at a time, row slices possibly in separate processes;
    ``tail``.  The JSON's small document goes through ``json.dumps``, and the
    array, a top-level key's, is spliced in at indent 4."""

    def __init__(self, header, nodes, times, source, meta):
        self.times, self.source = np.asarray(times, dtype=float), source
        self.xs = [f"{x!r}," for x in np.asarray(nodes, dtype=float).tolist()]
        self.n_rows, self.floats = len(self.times), 2 * len(self.xs) * len(self.times)
        head, _, tail = dumps_canonical({**meta, "values_re_im": _SPLICE}).partition(
            json.dumps(_SPLICE))
        self.head, self.tail = (header + "\n", head + "[\n    "), ("", "\n  ]" + tail)

    def rows(self, start, stop):
        step = max(2, BLOCK_FLOATS // (2 * len(self.xs)))
        # eight blocks are drawn at a time: a source that synthesizes its rows
        # calls BLAS, whose vector kernels slow the rendering after each call
        for first in range(start, stop, 8 * step):
            drawn = _re_im(self.source(first, min(first + 8 * step, stop)))
            for lo in range(first, first + len(drawn), step):
                hi = min(lo + step, stop)
                csv, parts = _render_block([f"{t!r}," for t in self.times[lo:hi].tolist()],
                                           self.xs, drawn[lo - first:hi - first])
                yield csv, (_SEP if lo else "") + _json_items(parts)


# ---------------------------------------------------------------------------
# domain objects


def field_chunks(tg, grid, source):
    """The CSV rows and canonical JSON (grid, time grid and ``values_re_im``) of
    the field on ``tg`` x ``grid`` whose rows ``source(lo, hi)`` returns."""
    meta = {"time": {"T": tg.T, "n_t": tg.n_t}, "grid": {"L": grid.L, "m": grid.m}}
    return RowChunks("t,x,re_y,im_y", grid.nodes, tg.times, source, meta)


def observed_chunks(data):
    """The observations' CSV rows and their canonical JSON (time grid, mask,
    noise level, seed and ``values_re_im``), as one stream of ``(csv,
    json)`` chunk tuples."""
    meta = {
        "time": {"T": data.tg.T, "n_t": data.tg.n_t},
        "mask": mask_to_json(data.mask),
        "noise_level": data.noise_level,
        "seed": data.seed,
    }
    return RowChunks("t,x,re,im", data.mask.grid.nodes[data.mask.indices], data.tg.times,
                     lambda lo, hi: data.values[lo:hi], meta)


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
    xs = [f"{x!r}," for x in np.asarray(nodes, dtype=float).tolist()]
    return "x,re,im\n" + _render_block([""], xs, _re_im(values))[0]
