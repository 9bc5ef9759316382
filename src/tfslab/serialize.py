"""CSV/JSON serialization with atomic writes and reproducible formatting.

Floats are rendered with Python's shortest-roundtrip repr (max 17
significant digits); JSON keys are sorted.  Identical inputs therefore
produce byte-identical artifacts.
"""

import json
import os
import tempfile

import numpy as np


def jsonify(obj):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def dumps_canonical(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"


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


# ---------------------------------------------------------------------------
# domain objects


def field_to_csv(field) -> str:
    lines = ["t,x,re_y,im_y"]
    times = field.tg.times
    nodes = field.grid.nodes
    for i in range(field.tg.n_t):
        t = float(times[i])
        for j in range(field.grid.m):
            v = complex(field.values[i, j])
            lines.append(f"{t!r},{float(nodes[j])!r},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


def field_to_json(field) -> dict:
    flat = field.values.ravel()
    return {
        "time": {"T": field.tg.T, "n_t": field.tg.n_t},
        "grid": {"L": field.grid.L, "m": field.grid.m},
        "values_re_im": np.column_stack([flat.real, flat.imag]).ravel(),
    }


def observed_to_csv(data) -> str:
    lines = ["t,x,re,im"]
    times = data.tg.times
    nodes = data.mask.grid.nodes[data.mask.indices]
    for i in range(data.values.shape[0]):
        t = float(times[i])
        for j, x in enumerate(nodes):
            v = complex(data.values[i, j])
            lines.append(f"{t!r},{float(x)!r},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


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
    flat = data.values.ravel()
    return {
        "time": {"T": data.tg.T, "n_t": data.tg.n_t},
        "mask": mask_to_json(data.mask),
        "noise_level": data.noise_level,
        "seed": data.seed,
        "values_re_im": np.column_stack([flat.real, flat.imag]).ravel(),
    }


def result_to_json(result) -> dict:
    out = {
        "residual": result.residual,
        "reg_norm": result.reg_norm,
        "diagnostics": result.diagnostics,
    }
    if result.modal is not None:
        out["modal_re_im"] = np.column_stack(
            [result.modal.real, result.modal.imag]
        ).ravel()
    if result.spatial is not None:
        out["spatial_re_im"] = np.column_stack(
            [result.spatial.real, result.spatial.imag]
        ).ravel()
    if result.order is not None:
        out["order"] = result.order
    return out


def spatial_to_csv(nodes, values) -> str:
    lines = ["x,re,im"]
    for x, v in zip(nodes, values):
        v = complex(v)
        lines.append(f"{float(x)!r},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"
