"""Batch command-line surface: experiment orchestration from a JSON config,
artifact persistence, and the acceptance battery.

Subcommands: forward, invert-initial, invert-source, invert-order, ml-eval,
selftest.  An experiment's config is parsed once, before any solve: one
parser per section checks it and builds its value, so every config error
exits 2, names its field and writes no artifact.  Exit codes: 0 success,
1 failed selftest criterion, 2 config error, 3 numerical failure, 4 I/O
failure.  TFSLAB_LOG sets verbosity.
"""

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from .errors import (CheckOverflowError, ConfigError, EmptyMaskError, GridMismatchError,
                     MLDomainError, NumericalError)
from .forward import (KernelTable, SourceSpec, TimeGrid, field_blocks, project,
                      projection_tail_energy, solve_modal, synthesize_rows)
from .inverse import (
    OrderSearchConfig,
    TikhonovConfig,
    _norm,
    invert_initial,
    invert_order,
    invert_source,
)
from .mlf import ALPHA_MAX, PHASES, FractionalOrder, MLParams, ml_eval
from .observe import make_mask, observe
from .serialize import (
    atomic_write_text,
    atomic_write_texts,
    dumps_canonical,
    eigensystem_to_json,
    field_chunks,
    mask_to_json,
    observed_chunks,
    result_to_json,
    spatial_to_csv,
    write_json,
)
from .spectral import Grid1D, OperatorSpec, analytic_eigensystem, assemble_operator, eigen_solve

log = logging.getLogger("tfslab.cli")

PROBLEMS = ("forward", "invert-initial", "invert-source", "invert-order")
_INT_MAX = int(np.iinfo(np.intp).max)


# ---------------------------------------------------------------------------
# config parsing: one parser per section checks it (strictly: unknown keys
# are rejected everywhere) and returns the value it builds from the config's
# own numbers, not their float() copies (grid.L and time.T are written to
# the artifacts as given)


def _finite(number, path):
    """``float(number)``; an int beyond the float range or a NaN or infinite
    float is a config error."""
    try:
        x = float(number)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path} must be finite", field=path)
    return x


def _require_dict(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object", field=path)
    return obj


def _check_keys(obj, path, required, optional=()):
    unknown = set(_require_dict(obj, path)) - set(required) - set(optional)
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {sorted(unknown)}", field=path
        )
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing key(s) {sorted(missing)}", field=path)
    return obj


def _number(obj, path, lo=None, hi=None, strict_lo=False, strict_hi=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path} must be a number", field=path)
    x = _finite(obj, path)
    if lo is not None and (x < lo or (strict_lo and x == lo)):
        raise ConfigError(f"{path}={x} below the admissible range", field=path)
    if hi is not None and (x > hi or (strict_hi and x == hi)):
        raise ConfigError(f"{path}={x} above the admissible range", field=path)
    return x


def _integer(obj, path, lo=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path} must be an integer", field=path)
    if lo is not None and obj < lo:
        raise ConfigError(f"{path}={obj} below the admissible minimum {lo}", field=path)
    if obj > _INT_MAX:  # numpy sizes and seeds must fit its index type
        raise ConfigError(f"{path} above the admissible maximum {_INT_MAX}", field=path)
    return obj


def _size(obj, path, lo):
    """An array length: an integer of at least ``lo`` for which a float
    array can be allocated."""
    n = _integer(obj, path, lo=lo)
    try:
        np.empty(n)  # never touched, so no memory is committed
    except (MemoryError, ValueError):  # ValueError at 2**60 floats or more
        raise ConfigError(f"{path}={n}: an array of that length cannot be allocated",
                          field=path) from None
    return n


def _float_list(obj, path):
    if not isinstance(obj, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    ):
        raise ConfigError(f"{path} must be a list of numbers", field=path)
    return [_finite(v, path) for v in obj]


def _grid(obj):
    _check_keys(obj, "grid", ("L", "m"))
    _number(obj["L"], "grid.L", lo=0.0, strict_lo=True)
    _size(obj["m"], "grid.m", lo=3)
    return Grid1D(obj["L"], obj["m"])


def _time(obj):
    _check_keys(obj, "time", ("T", "n_t"))
    _number(obj["T"], "time.T", lo=0.0, strict_lo=True)
    _size(obj["n_t"], "time.n_t", lo=2)
    return TimeGrid(obj["T"], obj["n_t"])


def _order(obj):
    _check_keys(obj, "order", ("alpha",), ("phase",))
    _number(obj["alpha"], "order.alpha", lo=0.0, hi=1.0, strict_lo=True,
            strict_hi=True)
    phase = obj.get("phase", "standard_i")
    if phase not in PHASES:
        raise ConfigError(f"order.phase must be {'|'.join(PHASES)}", field="order.phase")
    return FractionalOrder(obj["alpha"], phase)


def _operator(obj, grid):
    """The operator's coefficients; None for the closed-form Laplacian."""
    if "analytic" in _require_dict(obj, "operator"):
        _check_keys(obj, "operator", ("analytic",))
        if obj["analytic"] is not True:
            raise ConfigError("operator.analytic must be true", field="operator.analytic")
        return None
    if "a_const" in obj:
        _check_keys(obj, "operator", ("a_const", "p_const"))
        _number(obj["a_const"], "operator.a_const", lo=0.0, strict_lo=True)
        _number(obj["p_const"], "operator.p_const", lo=0.0)
        return OperatorSpec.constant(obj["a_const"], obj["p_const"], grid)
    _check_keys(obj, "operator", ("a", "p", "kappa"))
    m = grid.m
    a = _float_list(obj["a"], "operator.a")
    if len(a) != m + 1 or not all(v > 0.0 for v in a):
        raise ConfigError(f"operator.a must hold m+1={m + 1} positive numbers "
                          "(the midpoint samples)", field="operator.a")
    p = _float_list(obj["p"], "operator.p")
    if len(p) != m or not all(v >= 0.0 for v in p):
        raise ConfigError(f"operator.p must hold m={m} nonnegative numbers "
                          "(the node samples)", field="operator.p")
    kappa = _number(obj["kappa"], "operator.kappa", lo=0.0, strict_lo=True)
    if kappa > min(a):
        raise ConfigError(f"operator.kappa={kappa} exceeds min(operator.a)={min(a)}",
                          field="operator.kappa")
    return OperatorSpec(np.array(obj["a"]), np.array(obj["p"]), obj["kappa"])


def _mask(obj, grid):
    _check_keys(obj, "mask", ("intervals",))
    intervals = obj["intervals"]
    if not isinstance(intervals, list):
        raise ConfigError("mask.intervals must be a list", field="mask.intervals")
    for k, iv in enumerate(intervals):
        if (not isinstance(iv, list)) or len(iv) != 2:
            raise ConfigError(f"mask.intervals[{k}] must be [lo, hi]",
                              field="mask.intervals")
        _number(iv[0], f"mask.intervals[{k}][0]")
        _number(iv[1], f"mask.intervals[{k}][1]")
    # make_mask rejects an empty list, intervals outside [0, L] or
    # overlapping, and a set that captures no node
    try:
        return make_mask([tuple(iv) for iv in intervals], grid)
    except (GridMismatchError, EmptyMaskError) as exc:
        raise ConfigError(str(exc), field="mask.intervals") from exc


def _complex_list(obj, path, re_key, im_key):
    """``re + 1j im`` from the lists at ``re_key`` and, optionally, ``im_key``."""
    re = _float_list(obj[re_key], f"{path}.{re_key}")
    im = _float_list(obj.get(im_key, [0.0] * len(re)), f"{path}.{im_key}")
    if len(im) != len(re):
        raise ConfigError(f"{path}.{im_key} must hold as many numbers as "
                          f"{path}.{re_key}", field=f"{path}.{im_key}")
    return np.array(re) + 1j * np.array(im)


def _samples(obj, path, n, size):
    """The values of a samples spec, which must hold ``size`` = n of them."""
    _check_keys(obj, path, ("kind", "re"), ("im",))
    values = _complex_list(obj, path, "re", "im")
    if values.size != n:
        raise ConfigError(f"{path} holds {values.size} samples, not {size}={n}",
                          field=path)
    return values


def _require_nonzero(values, path):
    """Reject all-zero ``values``: an inversion cannot identify its unknown from them."""
    if not np.any(values):
        raise ConfigError(f"{path} vanishes identically; the unknown is not identifiable",
                          field=path)


def _datum(obj, path, m, n_modes, nonzero=False):
    """A datum spec as ``(values, is_samples)``.  A ``mode`` or ``mix``
    datum's values are its modal coefficients, exactly; a ``samples``
    datum's are its node values, which ``_modal`` projects once the
    eigensystem exists."""
    kind = _require_dict(obj, path).get("kind")
    if kind in ("mode", "mix"):
        coeffs = np.zeros(n_modes, dtype=complex)
        if kind == "mode":
            _check_keys(obj, path, ("kind", "index"))
            idx = _integer(obj["index"], f"{path}.index", lo=1)
            if idx > n_modes:
                raise ConfigError(f"mode index {idx} beyond n_modes={n_modes}",
                                  field=f"{path}.index")
            coeffs[idx - 1] = 1.0
        else:
            _check_keys(obj, path, ("kind", "coeffs_re"), ("coeffs_im",))
            given = _complex_list(obj, path, "coeffs_re", "coeffs_im")
            if given.size > n_modes:
                raise ConfigError(f"{given.size} mix coefficients for n_modes={n_modes}",
                                  field=path)
            coeffs[: given.size] = given
        if nonzero:
            _require_nonzero(coeffs, path)
        return coeffs, False
    if kind == "samples":
        values = _samples(obj, path, m, "m")
        if nonzero:
            _require_nonzero(values, path)
        return values, True
    raise ConfigError(f"{path}.kind must be mode|mix|samples", field=f"{path}.kind")


def _modal(datum, eig):
    """A ``_datum``'s modal coefficients over ``eig``."""
    values, is_samples = datum
    return project(values, eig) if is_samples else values


def _rho(obj, path, n_t):
    kind = _require_dict(obj, path).get("kind")
    if kind == "const":
        _check_keys(obj, path, ("kind", "value"))
        return np.full(n_t, complex(_number(obj["value"], f"{path}.value")))
    if kind == "samples":
        return _samples(obj, path, n_t, "n_t")
    raise ConfigError(f"{path}.kind must be const|samples", field=f"{path}.kind")


def _tikhonov(obj, n_modes):
    _check_keys(obj, "inversion", ("gamma", "n_modes"))
    _number(obj["gamma"], "inversion.gamma", lo=0.0)
    if _integer(obj["n_modes"], "inversion.n_modes", lo=1) > n_modes:
        raise ConfigError("inversion.n_modes exceeds the top-level n_modes",
                          field="inversion.n_modes")
    return TikhonovConfig(**obj)


def _order_search(obj):
    _check_keys(obj, "inversion",
                ("alpha_lo", "alpha_hi"), ("coarse_points", "refine_tol"))
    lo = _number(obj["alpha_lo"], "inversion.alpha_lo", lo=0.0, strict_lo=True)
    hi = _number(obj["alpha_hi"], "inversion.alpha_hi", hi=1.0, strict_hi=True)
    if lo >= hi:
        raise ConfigError("inversion.alpha_lo must be below inversion.alpha_hi",
                          field="inversion.alpha_lo")
    if "coarse_points" in obj:
        _size(obj["coarse_points"], "inversion.coarse_points", lo=3)
    if "refine_tol" in obj:
        _number(obj["refine_tol"], "inversion.refine_tol", lo=0.0, strict_lo=True)
    return OrderSearchConfig(**obj)


def _parse(cfg, problem, seed_override=None):
    """Check ``cfg`` as a ``problem`` config and build every input of the
    run as a value; raises ``ConfigError`` naming the offending field.
    ``initial`` is a ``_datum``, ``source`` None or rho with a ``_datum`` g,
    and ``order`` the order that generates the data (for invert-order,
    ``truth.alpha`` with ``order.phase``)."""
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r}", field="problem")
    # each problem accepts exactly the top-level sections it reads
    if problem == "forward":
        reads, may_read = ("initial",), ("source",)
    else:
        reads, may_read = ("truth", "inversion"), ("noise",)
    _check_keys(cfg, "config",
                ("problem", "grid", "time", "order", "operator", "n_modes", "mask")
                + reads, may_read + ("output_dir",))
    if cfg["problem"] != problem:
        raise ConfigError(
            f"config problem={cfg['problem']!r} does not match the "
            f"{problem!r} subcommand", field="problem",
        )
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError("output_dir must be a string", field="output_dir")
    grid = _grid(cfg["grid"])
    tg = _time(cfg["time"])
    n_modes = _integer(cfg["n_modes"], "n_modes", lo=1)
    if n_modes > grid.m:
        raise ConfigError("n_modes exceeds interior node count", field="n_modes")
    order = _order(cfg["order"])
    exp = SimpleNamespace(
        cfg=cfg, grid=grid, tg=tg, order=order, operator=_operator(cfg["operator"], grid),
        n_modes=n_modes, mask=_mask(cfg["mask"], grid), noise_level=0.0, seed=0,
        initial=(np.zeros(n_modes), False), source=None, inversion=None,
    )
    if "noise" in cfg:
        _check_keys(cfg["noise"], "noise", ("level", "seed"))
        exp.noise_level = _number(cfg["noise"]["level"], "noise.level", lo=0.0)
        exp.seed = _integer(cfg["noise"]["seed"], "noise.seed", lo=0)
    if seed_override is not None:
        exp.seed = _integer(seed_override, "seed", lo=0)

    def source(obj, path):  # a separable source's temporal samples and datum
        rho = _rho(obj["rho"], f"{path}.rho", tg.n_t)
        if problem == "invert-source":
            _require_nonzero(rho, f"{path}.rho")
        return rho, _datum(obj["g"], f"{path}.g", grid.m, n_modes)

    if problem == "forward":
        exp.initial = _datum(cfg["initial"], "initial", grid.m, n_modes)
        src = cfg.get("source", {"kind": "none"})
        if _require_dict(src, "source").get("kind") == "none":
            _check_keys(src, "source", ("kind",))
        elif src.get("kind") == "separable":
            _check_keys(src, "source", ("kind", "rho", "g"))
            exp.source = source(src, "source")
        else:
            raise ConfigError("source.kind must be none|separable",
                              field="source.kind")
        return exp

    truth = cfg["truth"]
    if problem == "invert-order":
        _check_keys(truth, "truth", ("alpha", "initial"))
        _number(truth["alpha"], "truth.alpha", lo=0.0, hi=1.0, strict_lo=True,
                strict_hi=True)
        exp.order = FractionalOrder(truth["alpha"], order.phase)
        exp.initial = _datum(truth["initial"], "truth.initial", grid.m, n_modes, nonzero=True)
        exp.inversion = _order_search(cfg["inversion"])
        return exp
    if problem == "invert-initial":
        _check_keys(truth, "truth", ("initial",))
        exp.initial = _datum(truth["initial"], "truth.initial", grid.m, n_modes)
    else:
        _check_keys(truth, "truth", ("rho", "g"))
        exp.source = source(truth, "truth")
    exp.inversion = _tikhonov(cfg["inversion"], n_modes)
    return exp


def validate_config(raw: dict, problem: str) -> dict:
    """Check ``raw`` as a ``problem`` config; returns ``raw``.  Raises
    ``ConfigError`` naming the offending field."""
    _parse(raw, problem)
    return raw


# ---------------------------------------------------------------------------
# pipeline


@contextlib.contextmanager
def _phase(seconds, name):
    """Time the block as ``seconds[name]``."""
    t0 = time.perf_counter()
    yield
    seconds[name] = time.perf_counter() - t0
    log.debug("phase %s: %.6f s", name, seconds[name])


def run(cfg: dict, output_dir: str) -> dict:
    """Execute the configured pipeline and write artifacts; returns the run
    report (also written as report.json).  ``cfg`` is parsed first, so a
    config error raises ``ConfigError`` before any solve or write."""
    return _run(_parse(cfg, _require_dict(cfg, "config").get("problem")), output_dir)


def _run(exp: SimpleNamespace, output_dir: str) -> dict:
    """``run`` on ``exp``, the inputs ``_parse`` built from its config."""
    problem, grid, tg, order, inv = exp.cfg["problem"], exp.grid, exp.tg, exp.order, exp.inversion
    mode = exp.cfg.get("initial", {}).get("index")  # a single mode's index, else None
    phase_seconds = {}
    artifacts = []
    checks = {}

    def emit(name, text):
        atomic_write_text(os.path.join(output_dir, name), text)
        artifacts.append(name)

    def emit_pair(names, chunks):  # a RowChunks with one string per name in each tuple
        atomic_write_texts([os.path.join(output_dir, name) for name in names], chunks)
        artifacts.extend(names)

    with _phase(phase_seconds, "spectral"):
        if exp.operator is None:
            eig = analytic_eigensystem(exp.n_modes, grid)
        else:
            eig = eigen_solve(assemble_operator(exp.operator, grid), exp.n_modes, grid)
    os.makedirs(output_dir, exist_ok=True)  # a run that fails before here writes nothing
    emit("eigensystem.json", dumps_canonical(eigensystem_to_json(eig)))

    y0 = _modal(exp.initial, eig)
    src = None if exp.source is None else SourceSpec(exp.source[0], _modal(exp.source[1], eig))
    # the data-generating order's kernel rows, each evaluated once: the
    # data solve, the forward run's trajectory check and the Tikhonov
    # designs read them from this table
    table = KernelTable(order, eig, tg)
    with _phase(phase_seconds, "forward"):
        coeffs = solve_modal(y0, src, table)
        if problem == "forward":
            norms, trajs = [], []
            for block in field_blocks(coeffs, eig.phis):
                norms.append(float(_norm(block, axis=1).max()))
                if mode is not None:
                    trajs.append(block @ eig.phis[mode - 1])
            del block  # the writers draw their own rows
    if problem in ("forward", "invert-initial"):
        values, is_samples = exp.initial
        checks["tail_energy"] = projection_tail_energy(values, eig) if is_samples else 0.0

    if problem == "forward":
        checks["max_field_norm"] = math.sqrt(grid.h) * max(norms)
        if mode is not None:
            # the synthesized field projected back onto the mode, against
            # the solution's own row: a check of synthesis, not of the kernels
            traj = eig.grid.h * np.concatenate(trajs)
            checks["kernel_trajectory_max_dev"] = float(np.max(np.abs(traj - coeffs[mode - 1])))
        rows = functools.partial(synthesize_rows, coeffs, eig.phis)
        emit_pair(("field.csv", "field.json"), field_chunks(tg, grid, rows))

    else:
        with _phase(phase_seconds, "observe"):
            data = observe(coeffs, eig, tg, exp.mask, exp.noise_level, exp.seed)
        emit_pair(("data.csv", "data.json"), observed_chunks(data))
        with _phase(phase_seconds, "inverse"):
            if problem == "invert-order":
                result = invert_order(data, y0, eig, inv, phase=order.phase)
            elif problem == "invert-source":
                result = invert_source(data, src.rho, table, inv)
            else:
                result = invert_initial(data, table, inv)
        emit("estimate.json", dumps_canonical(result_to_json(result)))
        if problem == "invert-order":
            checks["alpha_hat"] = result.order
            checks["alpha_abs_error"] = abs(result.order - order.alpha)
        else:
            # the Tikhonov estimate against the recovered datum's first modes
            truth = (src.g if problem == "invert-source" else y0)[: inv.n_modes]
            checks["sigma_min"] = result.diagnostics["sigma_min"]
            checks["modal_rel_error"] = _norm(result.modal - truth) / max(_norm(truth), 1e-300)
            emit("mask.json", dumps_canonical(mask_to_json(exp.mask)))
            emit("estimate.csv", spatial_to_csv(grid.nodes, result.spatial))

    for name, value in checks.items():
        if not math.isfinite(value):
            raise CheckOverflowError(
                f"{name}: {value} is not a finite number; the run's values exceed "
                "double precision")
    report = {
        "config": exp.cfg,
        "phase_seconds": phase_seconds,
        "artifacts": sorted(artifacts),
        "checks": checks,
    }
    write_json(os.path.join(output_dir, "report.json"), report)
    return report


# ---------------------------------------------------------------------------
# entry point


def _error_json(kind, message, field=None):
    payload = {"error": {"kind": kind, "message": message}}
    if field:
        payload["error"]["field"] = field
    print(json.dumps(payload, sort_keys=True))


def _cmd_experiment(problem, args):
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    exp = _parse(raw, problem, args.seed)
    output_dir = args.output or raw.get("output_dir")
    if not output_dir:
        raise ConfigError("no output directory (config output_dir or --output)",
                          field="output_dir")
    print(dumps_canonical({"report": _run(exp, output_dir)}), end="")
    return 0


def _cmd_ml_eval(args):
    try:
        params = MLParams(_number(args.alpha, "alpha", lo=0.0, hi=ALPHA_MAX, strict_lo=True),
                          _number(args.beta, "beta"))
        value = ml_eval(params, complex(_number(args.re, "re"), _number(args.im, "im")),
                        verify=not args.no_verify)
    except MLDomainError as exc:  # the modulus cap
        raise ConfigError(str(exc), field="z") from exc
    print(json.dumps({"alpha": args.alpha, "beta": args.beta,
                      "z": {"re": args.re, "im": args.im},
                      "value": {"re": value.real, "im": value.imag}},
                     sort_keys=True))
    return 0


def _cmd_selftest(args):
    from . import selftest

    names = args.criteria.split(",") if args.criteria else None
    results = selftest.run_battery(names)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        write_json(os.path.join(args.output, "selftest.json"), [
            {"name": r.name, "passed": r.passed, "runtime": r.runtime,
             "limit": r.limit, "detail": r.detail}
            for r in results
        ])
    print(selftest.format_table(results))
    return 0 if selftest.battery_passed(results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tfslab",
        description="Forward/inverse experiments for the time-fractional "
                    "Schrodinger equation on an interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for problem in PROBLEMS:
        p = sub.add_parser(problem, help=f"run a {problem} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--output", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="noise seed override")
    p = sub.add_parser("ml-eval", help="evaluate the Mittag-Leffler function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the recurrence self-check")
    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--criteria", help="comma-separated subset of criterion names")
    p.add_argument("--output", help="directory for the selftest report")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("TFSLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # the subcommands raise; here, and only here, an error becomes its exit code
    try:
        if args.command in PROBLEMS:
            return _cmd_experiment(args.command, args)
        if args.command == "ml-eval":
            return _cmd_ml_eval(args)
        return _cmd_selftest(args)
    except ConfigError as exc:
        _error_json("config", str(exc), exc.field)
        return 2
    except NumericalError as exc:
        _error_json("numerical", str(exc))
        return 3
    except OSError as exc:
        _error_json("io", str(exc))
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
