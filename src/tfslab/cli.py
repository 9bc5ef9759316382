"""Batch command-line surface: experiment orchestration from a JSON config,
artifact persistence, and the acceptance battery.

Subcommands: forward, invert-initial, invert-source, invert-order, ml-eval,
selftest.  Exit codes: 0 success, 1 failed selftest criterion, 2 config
error, 3 numerical failure, 4 I/O failure.  TFSLAB_LOG sets verbosity.
"""

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np

from .errors import (CheckOverflowError, ConfigError, EmptyMaskError, MLDomainError,
                     NumericalError, TfslabError)
from .forward import (SourceSpec, TimeGrid, project, projection_tail_energy, solve_forward,
                      source_rows, state_rows)
from .inverse import (
    OrderSearchConfig,
    TikhonovConfig,
    invert_initial,
    invert_order,
    invert_source,
)
from .mlf import FractionalOrder, MLParams, ml_eval
from .observe import make_mask, observe
from .serialize import (
    dumps_canonical,
    eigensystem_to_json,
    field_texts,
    mask_to_json,
    observed_texts,
    result_to_json,
    spatial_to_csv,
    write_json,
    atomic_write_text,
)
from .spectral import Grid1D, OperatorSpec, analytic_eigensystem, assemble_operator, eigen_solve

log = logging.getLogger("tfslab.cli")

PROBLEMS = ("forward", "invert-initial", "invert-source", "invert-order")


# ---------------------------------------------------------------------------
# config validation (strict: unknown keys are rejected everywhere)


def _require_dict(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object", field=path)
    return obj


def _check_keys(obj, path, required, optional=()):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {sorted(unknown)}", field=path
        )
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing key(s) {sorted(missing)}", field=path)


def _number(obj, path, lo=None, hi=None, strict_lo=False, strict_hi=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path} must be a number", field=path)
    x = float(obj)
    if not math.isfinite(x):
        raise ConfigError(f"{path} must be finite", field=path)
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
    return obj


def _float_list(obj, path):
    if not isinstance(obj, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    ):
        raise ConfigError(f"{path} must be a list of numbers", field=path)
    values = [float(v) for v in obj]
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{path} must hold finite numbers", field=path)
    return values


def _datum_spec(obj, path):
    obj = _require_dict(obj, path)
    kind = obj.get("kind")
    if kind == "mode":
        _check_keys(obj, path, ("kind", "index"))
        _integer(obj["index"], f"{path}.index", lo=1)
    elif kind == "mix":
        _check_keys(obj, path, ("kind", "coeffs_re"), ("coeffs_im",))
        _float_list(obj["coeffs_re"], f"{path}.coeffs_re")
        if "coeffs_im" in obj:
            im = _float_list(obj["coeffs_im"], f"{path}.coeffs_im")
            if len(im) != len(obj["coeffs_re"]):
                raise ConfigError(f"{path}: coeffs_re/coeffs_im length mismatch",
                                  field=path)
    elif kind == "samples":
        _check_keys(obj, path, ("kind", "re"), ("im",))
        re = _float_list(obj["re"], f"{path}.re")
        if "im" in obj and len(_float_list(obj["im"], f"{path}.im")) != len(re):
            raise ConfigError(f"{path}.im must hold as many samples as {path}.re",
                              field=f"{path}.im")
    else:
        raise ConfigError(f"{path}.kind must be mode|mix|samples", field=f"{path}.kind")
    return obj


def _rho_spec(obj, path, n_t):
    obj = _require_dict(obj, path)
    kind = obj.get("kind")
    if kind == "const":
        _check_keys(obj, path, ("kind", "value"))
        _number(obj["value"], f"{path}.value")
    elif kind == "samples":
        _check_keys(obj, path, ("kind", "re"), ("im",))
        re = _float_list(obj["re"], f"{path}.re")
        if len(re) != n_t:
            raise ConfigError(f"{path}.re must hold n_t={n_t} samples", field=path)
        if "im" in obj and len(_float_list(obj["im"], f"{path}.im")) != n_t:
            raise ConfigError(f"{path}.im must hold n_t={n_t} samples", field=path)
    else:
        raise ConfigError(f"{path}.kind must be const|samples", field=f"{path}.kind")
    return obj


def validate_config(raw: dict, problem: str) -> dict:
    cfg = _require_dict(raw, "config")
    top_required = ["problem", "grid", "time", "order", "operator", "n_modes",
                    "mask"]
    top_optional = ["initial", "source", "truth", "noise", "inversion",
                    "output_dir"]
    if problem == "forward":
        top_required += ["initial"]
    else:
        top_required += ["truth", "inversion"]
    _check_keys(cfg, "config", top_required, top_optional)
    if cfg["problem"] != problem:
        raise ConfigError(
            f"config problem={cfg['problem']!r} does not match the "
            f"{problem!r} subcommand", field="problem",
        )

    grid = _require_dict(cfg["grid"], "grid")
    _check_keys(grid, "grid", ("L", "m"))
    _number(grid["L"], "grid.L", lo=0.0, strict_lo=True)
    _integer(grid["m"], "grid.m", lo=3)

    tgc = _require_dict(cfg["time"], "time")
    _check_keys(tgc, "time", ("T", "n_t"))
    _number(tgc["T"], "time.T", lo=0.0, strict_lo=True)
    _integer(tgc["n_t"], "time.n_t", lo=2)

    oc = _require_dict(cfg["order"], "order")
    _check_keys(oc, "order", ("alpha",), ("phase",))
    _number(oc["alpha"], "order.alpha", lo=0.0, hi=1.0, strict_lo=True,
            strict_hi=True)
    if oc.get("phase", "standard_i") not in ("standard_i", "power_i_alpha"):
        raise ConfigError("order.phase must be standard_i|power_i_alpha",
                          field="order.phase")

    op = _require_dict(cfg["operator"], "operator")
    if op.get("analytic"):
        _check_keys(op, "operator", ("analytic",))
    elif "a_const" in op:
        _check_keys(op, "operator", ("a_const", "p_const"))
        _number(op["a_const"], "operator.a_const", lo=0.0, strict_lo=True)
        _number(op["p_const"], "operator.p_const", lo=0.0)
    else:
        _check_keys(op, "operator", ("a", "p", "kappa"))
        m = grid["m"]
        a = _float_list(op["a"], "operator.a")
        if len(a) != m + 1 or not all(v > 0.0 for v in a):
            raise ConfigError(f"operator.a must hold m+1={m + 1} positive numbers "
                              "(the midpoint samples)", field="operator.a")
        p = _float_list(op["p"], "operator.p")
        if len(p) != m or not all(v >= 0.0 for v in p):
            raise ConfigError(f"operator.p must hold m={m} nonnegative numbers "
                              "(the node samples)", field="operator.p")
        kappa = _number(op["kappa"], "operator.kappa", lo=0.0, strict_lo=True)
        if kappa > min(a):
            raise ConfigError(f"operator.kappa={kappa} exceeds min(operator.a)={min(a)}",
                              field="operator.kappa")

    n_modes = _integer(cfg["n_modes"], "n_modes", lo=1)
    if n_modes > grid["m"]:
        raise ConfigError("n_modes exceeds interior node count", field="n_modes")

    mask = _require_dict(cfg["mask"], "mask")
    _check_keys(mask, "mask", ("intervals",))
    if not isinstance(mask["intervals"], list) or not mask["intervals"]:
        raise ConfigError("mask.intervals must be a non-empty list",
                          field="mask.intervals")
    for k, iv in enumerate(mask["intervals"]):
        if (not isinstance(iv, list)) or len(iv) != 2:
            raise ConfigError(f"mask.intervals[{k}] must be [lo, hi]",
                              field="mask.intervals")
        lo = _number(iv[0], f"mask.intervals[{k}][0]")
        hi = _number(iv[1], f"mask.intervals[{k}][1]")
        if not 0.0 <= lo < hi <= grid["L"]:
            raise ConfigError(f"mask.intervals[{k}] must satisfy "
                              f"0 <= lo < hi <= L={grid['L']}", field="mask.intervals")
    ivs = sorted(mask["intervals"])
    for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
        if lo2 < hi1:
            raise ConfigError("mask.intervals overlap", field="mask.intervals")

    if "initial" in cfg:
        _datum_spec(cfg["initial"], "initial")
    if "source" in cfg:
        src = _require_dict(cfg["source"], "source")
        if src.get("kind") == "none":
            _check_keys(src, "source", ("kind",))
        elif src.get("kind") == "separable":
            _check_keys(src, "source", ("kind", "rho", "g"))
            _rho_spec(src["rho"], "source.rho", tgc["n_t"])
            _datum_spec(src["g"], "source.g")
        else:
            raise ConfigError("source.kind must be none|separable",
                              field="source.kind")

    if "noise" in cfg:
        nz = _require_dict(cfg["noise"], "noise")
        _check_keys(nz, "noise", ("level", "seed"))
        _number(nz["level"], "noise.level", lo=0.0)
        _integer(nz["seed"], "noise.seed", lo=0)

    if "truth" in cfg:
        tr = _require_dict(cfg["truth"], "truth")
        if problem == "invert-initial":
            _check_keys(tr, "truth", ("initial",))
            _datum_spec(tr["initial"], "truth.initial")
        elif problem == "invert-source":
            _check_keys(tr, "truth", ("rho", "g"))
            _rho_spec(tr["rho"], "truth.rho", tgc["n_t"])
            _datum_spec(tr["g"], "truth.g")
        elif problem == "invert-order":
            _check_keys(tr, "truth", ("alpha", "initial"))
            _number(tr["alpha"], "truth.alpha", lo=0.0, hi=1.0, strict_lo=True,
                    strict_hi=True)
            _datum_spec(tr["initial"], "truth.initial")

    if "inversion" in cfg:
        inv = _require_dict(cfg["inversion"], "inversion")
        if problem == "invert-order":
            _check_keys(inv, "inversion",
                        ("alpha_lo", "alpha_hi"), ("coarse_points", "refine_tol"))
            lo = _number(inv["alpha_lo"], "inversion.alpha_lo", lo=0.0, strict_lo=True)
            hi = _number(inv["alpha_hi"], "inversion.alpha_hi", hi=1.0, strict_hi=True)
            if lo >= hi:
                raise ConfigError("inversion.alpha_lo must be below inversion.alpha_hi",
                                  field="inversion.alpha_lo")
            if "coarse_points" in inv:
                _integer(inv["coarse_points"], "inversion.coarse_points", lo=3)
            if "refine_tol" in inv:
                _number(inv["refine_tol"], "inversion.refine_tol", lo=0.0,
                        strict_lo=True)
        else:
            _check_keys(inv, "inversion", ("gamma", "n_modes"))
            _number(inv["gamma"], "inversion.gamma", lo=0.0)
            if _integer(inv["n_modes"], "inversion.n_modes", lo=1) > n_modes:
                raise ConfigError("inversion.n_modes exceeds the top-level n_modes",
                                  field="inversion.n_modes")

    if "output_dir" in cfg and not isinstance(cfg["output_dir"], str):
        raise ConfigError("output_dir must be a string", field="output_dir")
    return cfg


# ---------------------------------------------------------------------------
# pipeline helpers


def _build_eigensystem(cfg, grid):
    op = cfg["operator"]
    n_modes = cfg["n_modes"]
    if op.get("analytic"):
        return analytic_eigensystem(grid.L, n_modes, grid)
    if "a_const" in op:
        spec = OperatorSpec.constant(op["a_const"], op["p_const"], grid)
    else:
        spec = OperatorSpec(np.array(op["a"]), np.array(op["p"]), op["kappa"])
    return eigen_solve(assemble_operator(spec, grid), n_modes, grid)


def _build_datum(spec, eig, path):
    if spec["kind"] == "mode":
        idx = spec["index"]
        if idx > eig.n:
            raise ConfigError(f"mode index {idx} beyond n_modes={eig.n}",
                              field=f"{path}.index")
        return eig.phis[idx - 1].astype(complex)
    if spec["kind"] == "mix":
        re = np.array(spec["coeffs_re"], dtype=float)
        im = np.array(spec.get("coeffs_im", np.zeros_like(re)), dtype=float)
        if re.size > eig.n:
            raise ConfigError("more mix coefficients than modes", field=path)
        coeffs = np.zeros(eig.n, dtype=complex)
        coeffs[: re.size] = re + 1j * im
        return coeffs @ eig.phis
    re = np.array(spec["re"], dtype=float)
    im = np.array(spec.get("im", np.zeros_like(re)), dtype=float)
    if re.size != eig.grid.m:
        raise ConfigError(f"sample length {re.size} vs grid m={eig.grid.m}",
                          field=path)
    return re + 1j * im


def _build_rho(spec, tg):
    if spec["kind"] == "const":
        return np.full(tg.n_t, complex(spec["value"]))
    re = np.array(spec["re"], dtype=float)
    im = np.array(spec.get("im", np.zeros_like(re)), dtype=float)
    return re + 1j * im


class _Phases:
    def __init__(self):
        self.seconds = {}
        self._t0 = None
        self._name = None

    def start(self, name):
        self._name, self._t0 = name, time.perf_counter()

    def stop(self):
        self.seconds[self._name] = time.perf_counter() - self._t0
        log.debug("phase %s: %.6f s", self._name, self.seconds[self._name])


def run(cfg: dict, output_dir: str, seed_override=None) -> dict:
    """Execute the configured pipeline and write artifacts; returns the run
    report (also written as report.json)."""
    problem = cfg["problem"]
    phases = _Phases()
    artifacts = []
    checks = {}

    grid = Grid1D(cfg["grid"]["L"], cfg["grid"]["m"])
    tg = TimeGrid(cfg["time"]["T"], cfg["time"]["n_t"])
    order = FractionalOrder(cfg["order"]["alpha"],
                            cfg["order"].get("phase", "standard_i"))
    noise_cfg = cfg.get("noise", {"level": 0.0, "seed": 0})
    seed = seed_override if seed_override is not None else noise_cfg["seed"]
    # a mask that captures no node is an invalid config: caught before any
    # solve and before any artifact is written
    try:
        mask = make_mask([tuple(iv) for iv in cfg["mask"]["intervals"]], grid)
    except EmptyMaskError as exc:
        raise ConfigError(str(exc), field="mask.intervals") from exc
    os.makedirs(output_dir, exist_ok=True)

    def emit(name, text):  # text: a string or an iterable of chunks
        atomic_write_text(os.path.join(output_dir, name), text)
        artifacts.append(name)

    phases.start("spectral")
    eig = _build_eigensystem(cfg, grid)
    phases.stop()
    emit("eigensystem.json", dumps_canonical(eigensystem_to_json(eig)))

    def observed(y0, src, gen_order):
        """Forward solve, observation and the data artifacts."""
        phases.start("forward")
        fieldv = solve_forward(y0, src, gen_order, eig, tg)
        phases.stop()
        phases.start("observe")
        data = observe(fieldv, mask, noise_cfg["level"], seed)
        phases.stop()
        data_csv, data_json = observed_texts(data)
        emit("data.csv", data_csv)
        emit("data.json", data_json)
        return data

    def tikhonov_tail(truth_datum, invert):
        """A Tikhonov inversion ``invert(tikhonov_config)``, its checks
        against the truth's modes and its artifacts."""
        inv_cfg = TikhonovConfig(cfg["inversion"]["gamma"],
                                 cfg["inversion"]["n_modes"])
        phases.start("inverse")
        result = invert(inv_cfg)
        phases.stop()
        truth = project(truth_datum, eig)[: inv_cfg.n_modes]
        checks["sigma_min"] = result.diagnostics["sigma_min"]
        with np.errstate(over="ignore", invalid="ignore"):
            checks["modal_rel_error"] = float(np.linalg.norm(result.modal - truth)
                                              / max(np.linalg.norm(truth), 1e-300))
        emit("mask.json", dumps_canonical(mask_to_json(mask)))
        emit("estimate.json", dumps_canonical(result_to_json(result)))
        emit("estimate.csv", spatial_to_csv(grid.nodes, result.spatial))

    if problem == "forward":
        y0 = _build_datum(cfg["initial"], eig, "initial")
        src = SourceSpec.none()
        if cfg.get("source", {"kind": "none"})["kind"] == "separable":
            src = SourceSpec.separable(
                _build_rho(cfg["source"]["rho"], tg),
                _build_datum(cfg["source"]["g"], eig, "source.g"),
            )
        phases.start("forward")
        fieldv = solve_forward(y0, src, order, eig, tg)
        phases.stop()
        checks["tail_energy"] = projection_tail_energy(y0, eig)
        checks["max_field_norm"] = max(
            grid.norm(fieldv.values[i]) for i in range(tg.n_t)
        )
        if cfg["initial"]["kind"] == "mode":
            # the mode's full response: its unit initial datum plus the part
            # of the source that drives it
            idx = cfg["initial"]["index"] - 1
            lam = eig.lambdas[idx:idx + 1]
            expect = state_rows(order, lam, tg.times)[0]
            if src.kind == "separable":
                forcing = project(src.g, eig)[idx] * src.rho
                expect += source_rows(order, lam, tg, forcing[None, :])[0]
            # a row at a time: one projection of the whole field costs a
            # BLAS buffer of about 1 MB of peak memory
            traj = np.array([project(row, eig)[idx] for row in fieldv.values])
            checks["kernel_trajectory_max_dev"] = float(np.max(np.abs(traj - expect)))
        field_csv, field_json = field_texts(fieldv)
        emit("field.csv", field_csv)
        emit("field.json", field_json)

    elif problem == "invert-initial":
        y0 = _build_datum(cfg["truth"]["initial"], eig, "truth.initial")
        data = observed(y0, SourceSpec.none(), order)
        tikhonov_tail(y0, lambda tik: invert_initial(data, order, eig, tik))
        checks["tail_energy"] = projection_tail_energy(y0, eig)

    elif problem == "invert-source":
        rho = _build_rho(cfg["truth"]["rho"], tg)
        g = _build_datum(cfg["truth"]["g"], eig, "truth.g")
        data = observed(np.zeros(grid.m), SourceSpec.separable(rho, g), order)
        tikhonov_tail(g, lambda tik: invert_source(data, rho, order, eig, tik))

    elif problem == "invert-order":
        truth_alpha = cfg["truth"]["alpha"]
        y0 = _build_datum(cfg["truth"]["initial"], eig, "truth.initial")
        data = observed(y0, SourceSpec.none(), FractionalOrder(truth_alpha, order.phase))
        inv = cfg["inversion"]
        search = OrderSearchConfig(
            inv["alpha_lo"], inv["alpha_hi"],
            inv.get("coarse_points", 25), inv.get("refine_tol", 1e-4),
        )
        phases.start("inverse")
        result = invert_order(data, y0, eig, search, phase=order.phase)
        phases.stop()
        checks["alpha_hat"] = result.order
        checks["alpha_abs_error"] = abs(result.order - truth_alpha)
        emit("estimate.json", dumps_canonical(result_to_json(result)))

    else:  # pragma: no cover - validate_config guards this
        raise ConfigError(f"unknown problem {problem!r}", field="problem")

    for name, value in checks.items():
        if not math.isfinite(value):
            raise CheckOverflowError(
                f"{name}: {value} is not a finite number; the run's values exceed "
                "double precision")
    report = {
        "config": cfg,
        "phase_seconds": phases.seconds,
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
        _error_json("io", f"cannot read config: {exc}")
        return 4
    except json.JSONDecodeError as exc:
        _error_json("config", f"config is not valid JSON: {exc}")
        return 2
    try:
        cfg = validate_config(raw, problem)
    except ConfigError as exc:
        _error_json("config", str(exc), exc.field)
        return 2
    output_dir = args.output or cfg.get("output_dir")
    if not output_dir:
        _error_json("config", "no output directory (config output_dir or --output)",
                    "output_dir")
        return 2
    try:
        report = run(cfg, output_dir, seed_override=args.seed)
    except ConfigError as exc:
        _error_json("config", str(exc), exc.field)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        _error_json("numerical", str(exc))
        return 3
    except OSError as exc:
        _error_json("io", str(exc))
        return 4
    print(dumps_canonical({"report": report}), end="")
    return 0


def _cmd_ml_eval(args):
    try:
        params = MLParams(_number(args.alpha, "alpha", lo=0.0, strict_lo=True),
                          _number(args.beta, "beta"))
        value = ml_eval(params, complex(_number(args.re, "re"), _number(args.im, "im")),
                        verify=not args.no_verify)
    except ConfigError as exc:
        _error_json("config", str(exc), exc.field)
        return 2
    except MLDomainError as exc:  # the modulus cap
        _error_json("config", str(exc), "z")
        return 2
    except TfslabError as exc:
        _error_json("numerical", str(exc))
        return 3
    print(json.dumps({"alpha": args.alpha, "beta": args.beta,
                      "z": {"re": args.re, "im": args.im},
                      "value": {"re": value.real, "im": value.imag}},
                     sort_keys=True))
    return 0


def _cmd_selftest(args):
    from . import selftest

    names = args.criteria.split(",") if args.criteria else None
    try:
        results = selftest.run_battery(names)
    except KeyError as exc:
        _error_json("config", str(exc))
        return 2
    print(selftest.format_table(results))
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        write_json(os.path.join(args.output, "selftest.json"), [
            {"name": r.name, "passed": r.passed, "runtime": r.runtime,
             "limit": r.limit, "detail": r.detail}
            for r in results
        ])
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
    if args.command in PROBLEMS:
        return _cmd_experiment(args.command, args)
    if args.command == "ml-eval":
        return _cmd_ml_eval(args)
    return _cmd_selftest(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
