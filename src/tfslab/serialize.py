"""CSV/JSON serialization with atomic writes and reproducible formatting.

Floats are rendered with Python's shortest-roundtrip repr (max 17
significant digits); JSON keys are sorted.  Identical inputs therefore
produce byte-identical artifacts.
"""

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


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so readers
    never see a partial artifact."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tfslab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dumps_canonical(obj))


def _re_im(values) -> np.ndarray:
    """Real and imaginary parts interleaved, [re_0, im_0, re_1, im_1, ...],
    in row-major order of ``values``."""
    flat = np.ravel(values)
    return np.column_stack([flat.real, flat.imag]).ravel()


def _complex_csv(header, nodes, values, times=None) -> str:
    """CSV lines ``[t,]x,re,im``, time-major, one row of ``values`` per
    time (without ``times``, ``values`` is that one row).  Each node and
    time is rendered once and the values one row at a time."""
    xs = [repr(x) for x in np.asarray(nodes, dtype=float).tolist()]
    values = np.asarray(values)
    if times is None:
        prefixes, values = [""], values[None]
    else:
        prefixes = [f"{t!r}," for t in np.asarray(times, dtype=float).tolist()]
    rows = [header]
    for prefix, row in zip(prefixes, values, strict=True):
        rows.append("\n".join([f"{prefix}{x},{re!r},{im!r}" for x, re, im in
                               zip(xs, row.real.tolist(), row.imag.tolist(), strict=True)]))
    rows.append("")  # the final newline, without a copy of the whole text
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# domain objects


def field_to_csv(field) -> str:
    return _complex_csv("t,x,re_y,im_y", field.grid.nodes, field.values, field.tg.times)


def field_to_json(field) -> dict:
    return {
        "time": {"T": field.tg.T, "n_t": field.tg.n_t},
        "grid": {"L": field.grid.L, "m": field.grid.m},
        "values_re_im": _re_im(field.values),
    }


def observed_to_csv(data) -> str:
    nodes = data.mask.grid.nodes[data.mask.indices]
    return _complex_csv("t,x,re,im", nodes, data.values, data.tg.times)


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


def observed_to_json(data) -> dict:
    return {
        "time": {"T": data.tg.T, "n_t": data.tg.n_t},
        "mask": mask_to_json(data.mask),
        "noise_level": data.noise_level,
        "seed": data.seed,
        "values_re_im": _re_im(data.values),
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
    return _complex_csv("x,re,im", nodes, values)
