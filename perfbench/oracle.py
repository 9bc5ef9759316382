"""Accuracy guard for the Mittag-Leffler evaluator on each workload's range.

Each workload's kernels evaluate E_{a,b}(-i x) with b = 1 (state) and
b = a + 1 (integral), x = lambda_n t^a.  ``ml_reference.json`` holds a fixed
sample of (a, b, x) per workload, spread over the range its config reaches.
``check`` evaluates the sample through ``tfslab.mlf.ml_eval`` -- the public
evaluator, which stays when the per-scalar kernel wrappers are replaced --
and compares it with

* a high-precision mpmath power series where mpmath resolves the
  cancellation (x^(1/a) <= SERIES_LIMIT): relative error <= 1e-10;
* beyond that, the values frozen in ``ml_reference.json`` from the seed
  commit: relative difference <= 2e-10 for x <= 50 and 2e-8 beyond, twice
  the evaluator's documented error targets, since both sides may err.

Regenerate the reference only from the seed commit's sources:

    python3 perfbench/oracle.py --freeze
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "ml_reference.json")
SERIES_LIMIT = 250.0  # the series terms peak near exp(x^(1/a)), ~0.2 s per point at the limit
POINTS_PER_RANGE = 6


def series(alpha, beta, x):
    """E_{alpha,beta}(-i x) from its power series in mpmath, with enough
    working digits to absorb the largest term's cancellation."""
    import mpmath

    growth = x ** (1.0 / alpha)
    dps = 40 + int(growth / math.log(10.0))
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        z = mpmath.mpc(0, -x)
        total, power, floor = mpmath.mpc(0), mpmath.mpc(1), mpmath.mpf(10) ** -32
        k = 0
        while True:
            term = power * mpmath.rgamma(a * k + b)
            total += term
            if k * alpha > growth + 2 and abs(term) < floor:
                return complex(total)
            k += 1
            power *= z


def _value(alpha, beta, x):
    from tfslab.mlf import MLParams, ml_eval

    return ml_eval(MLParams(alpha, beta), complex(0.0, -x),
                   z_max=max(1e4, 2.0 * x), verify=False)


def check(workload):
    """Compare the sample of ``workload``; returns (attempted, failures,
    worst relative error per comparison kind)."""
    with open(REFERENCE) as fh:
        points = [p for p in json.load(fh)["points"] if p["workload"] == workload]
    failures, worst = [], {"mpmath": 0.0, "frozen": 0.0}
    for p in points:
        a, b, x = p["alpha"], p["beta"], p["x"]
        try:
            got = _value(a, b, x)
        except Exception as exc:  # any raise is a failed evaluation
            failures.append(f"E_{{{a},{b}}}(-i {x}) raised {exc!r}")
            continue
        if x ** (1.0 / a) <= SERIES_LIMIT:
            kind, ref, tol = "mpmath", series(a, b, x), 1e-10
        else:
            kind, ref, tol = "frozen", complex(p["re"], p["im"]), 2e-10 if x <= 50 else 2e-8
        err = abs(got - ref) / abs(ref)
        worst[kind] = max(worst[kind], err)
        if not err <= tol:
            failures.append(f"E_{{{a},{b}}}(-i {x}): relative error {err:.3e} > {tol:g} "
                            f"against {kind}")
    return len(points), failures, worst


def _ranges():
    """(workload, alpha, x_min, x_max) from the workload configs: the
    smallest and largest lambda_n t^alpha over the grid times."""
    import numpy as np

    from tfslab.spectral import Grid1D, OperatorSpec, assemble_operator, eigen_solve

    import workloads

    out = []
    for name in ("forward-output", "invert-source", "invert-order"):
        cfg = workloads.WORKLOADS[name].make(False, workloads.Draws(0, "reference"))
        m, n = cfg["grid"]["m"], cfg["n_modes"]
        if cfg["operator"].get("analytic"):
            lam = [(k * math.pi) ** 2 for k in (1, n)]
        else:
            grid = Grid1D(1.0, m)
            op = cfg["operator"]
            spec = OperatorSpec(np.array(op["a"]), np.array(op["p"]), op["kappa"])
            eig = eigen_solve(assemble_operator(spec, grid), n, grid)
            lam = [float(eig.lambdas[0]), float(eig.lambdas[-1])]
        dt = cfg["time"]["T"] / cfg["time"]["n_t"]
        alphas = (0.3, 0.6, 0.9) if name == "invert-order" else (workloads.ALPHA,)
        out += [(name, a, lam[0] * dt**a, lam[1]) for a in alphas]
    # the battery's own range: recoveries at alpha 0.95 (8 modes, n_t = 50)
    # and the long-horizon decay slope at alpha 0.5
    out += [("selftest", 0.95, math.pi**2 * 0.02**0.95, 64 * math.pi**2),
            ("selftest", 0.5, 1e-3, 1e4)]
    return out


def freeze():
    points = []
    for name, a, lo, hi in _ranges():
        for j in range(POINTS_PER_RANGE):
            x = float(f"{lo * (hi / lo) ** (j / (POINTS_PER_RANGE - 1)):.4g}")
            for b in (1.0, a + 1.0):
                v = _value(a, b, x)
                points.append({"workload": name, "alpha": a, "beta": b, "x": x,
                               "re": v.real, "im": v.imag})
    doc = {"about": "E_{alpha,beta}(-i x) from the seed commit's tfslab.mlf.ml_eval; "
                    "see oracle.py", "points": points}
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(points)} points to {REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python3 perfbench/oracle.py --freeze")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    freeze()
