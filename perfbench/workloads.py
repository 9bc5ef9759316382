"""The benchmark's four workloads: configs, per-call jitter and checks.

Every workload shares L = 1, alpha ~ 0.6 and the observation mask
[[0.2, 0.4]], and stays at 16 modes or fewer (the argument cap that 33 or
more modes trip is a known defect, not exercised here).  This module
imports nothing from tfslab, so the parent process can use it before any
check that the sources are present.

Isolation rules that keep the benchmark from rewarding work no CLI user
gets:

* each timed call draws a fresh noise seed and jitters alpha by a small
  seeded step, so no timed call repeats an earlier call's kernel
  arguments in the same process and a cross-call memo cannot fake a gain;
  within one call the pipeline may reuse what it likes;
* only validated configs are driven, and never with ``workers``/
  ``--threads``, ``TFSLAB_NUMBA`` or ``TFSLAB_PERTURB_KERNEL``.
"""

import math
import random
from collections import namedtuple

ALPHA = 0.6
JITTER = 0.005  # largest alpha step; below the order search's 0.025 grid
MASK = {"intervals": [[0.2, 0.4]]}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Each measuring phase takes at least this many timed calls, so that no
# median rests on one or two calls of a noisy machine.
MIN_CALLS = 3


def base_config(problem, m, n_t, n_modes, alpha):
    return {
        "problem": problem,
        "grid": {"L": 1.0, "m": m},
        "time": {"T": 1.0, "n_t": n_t},
        "order": {"alpha": alpha, "phase": "standard_i"},
        "operator": {"analytic": True},
        "n_modes": n_modes,
        "mask": MASK,
    }


def _variable_operator(m):
    """a = 1 + 0.3 sin(2 pi x) on the m+1 midpoints, p = x on the m nodes."""
    h = 1.0 / (m + 1)
    return {
        "a": [1.0 + 0.3 * math.sin(2.0 * math.pi * h * (j + 0.5)) for j in range(m + 1)],
        "p": [h * (j + 1) for j in range(m)],
        "kappa": 0.5,
    }


class Draws:
    """Seeded per-call draws: alpha steps never repeat within a process."""

    def __init__(self, seed, stream):
        self._rng = random.Random(f"{seed}:{stream}")
        self._u = self._rng.random()

    def step(self):
        """The next alpha step, from a golden-ratio sequence with a seeded
        start: any stretch of calls spreads its steps evenly over
        [-JITTER, JITTER], so runs with different seeds time the same mix
        of orders (a call's cost varies by some 10 % with the order)."""
        self._u = (self._u + GOLDEN) % 1.0
        return JITTER * (2.0 * self._u - 1.0)

    def noise_seed(self):
        return self._rng.randrange(2**31)


def forward_output(tiny, draws):
    m, n_t, n_modes = (15, 8, 3) if tiny else (511, 800, 8)
    cfg = base_config("forward", m, n_t, n_modes, ALPHA + draws.step())
    cfg["operator"] = _variable_operator(m)
    cfg["initial"] = {"kind": "mode", "index": 1}
    cfg["source"] = {"kind": "separable",
                     "rho": {"kind": "const", "value": 1.0},
                     "g": {"kind": "mode", "index": 2}}
    return cfg


def invert_source(tiny, draws):
    m, n_t, n_modes, unknown = (15, 8, 4, 2) if tiny else (99, 200, 16, 8)
    cfg = base_config("invert-source", m, n_t, n_modes, ALPHA + draws.step())
    cfg["truth"] = {"rho": {"kind": "const", "value": 1.0},
                    "g": {"kind": "mode", "index": 1}}
    cfg["noise"] = {"level": 1e-3, "seed": draws.noise_seed()}
    cfg["inversion"] = {"gamma": 1e-6, "n_modes": unknown}
    return cfg


def invert_order(tiny, draws):
    m, n_t, n_modes, coarse, tol = (15, 8, 3, 3, 1e-2) if tiny else (99, 200, 16, 25, 1e-4)
    # the bracket shifts by its own step so the scanned orders differ from
    # every earlier call's and from the data-generating order
    shift = draws.step()
    cfg = base_config("invert-order", m, n_t, n_modes, ALPHA)
    cfg["truth"] = {"alpha": ALPHA + draws.step(),
                    "initial": {"kind": "mode", "index": 1}}
    cfg["noise"] = {"level": 1e-3, "seed": draws.noise_seed()}
    cfg["inversion"] = {"alpha_lo": 0.3 + shift, "alpha_hi": 0.9 + shift,
                        "coarse_points": coarse, "refine_tol": tol}
    return cfg


def _check_artifacts(report, expected):
    if sorted(report["artifacts"]) != sorted(expected):
        return [f"artifacts {sorted(report['artifacts'])} != {sorted(expected)}"]
    return []


def check_forward(report, cfg):
    fails = _check_artifacts(report, ["eigensystem.json", "field.csv", "field.json"])
    dev = report["checks"]["kernel_trajectory_max_dev"]
    if not dev <= 1e-10:
        fails.append(f"kernel_trajectory_max_dev {dev!r} > 1e-10")
    return fails


# At gamma = 1e-6 the recovery error of mode 1 is set by the regularization
# bias and the 1e-3 noise: 0.057-0.065 over noise seeds and alpha steps, and
# 0.065 noise-free.  0.1 leaves room for rounding, not for a wrong design.
SOURCE_ERROR_MAX = 0.1


def check_source(report, cfg):
    fails = _check_artifacts(report, ["data.csv", "data.json", "eigensystem.json",
                                      "estimate.csv", "estimate.json", "mask.json"])
    err = report["checks"]["modal_rel_error"]
    if not err <= SOURCE_ERROR_MAX:
        fails.append(f"modal_rel_error {err!r} > {SOURCE_ERROR_MAX}")
    return fails


def check_order(report, cfg):
    fails = _check_artifacts(report, ["data.csv", "data.json", "eigensystem.json",
                                      "estimate.json"])
    err = abs(report["checks"]["alpha_hat"] - cfg["truth"]["alpha"])
    if not err <= 1e-3:
        fails.append(f"|alpha_hat - alpha| = {err!r} > 1e-3")
    return fails


def order_alphas(cfg):
    """The orders whose kernels a call evaluates, as far as the config
    fixes them: the configured order, or the order search's coarse grid
    plus the data-generating order."""
    if cfg["problem"] != "invert-order":
        return [cfg["order"]["alpha"]]
    inv = cfg["inversion"]
    n = inv["coarse_points"]
    lo, hi = inv["alpha_lo"], inv["alpha_hi"]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)] + [cfg["truth"]["alpha"]]


def region_histogram(cfg, lambdas):
    """Share of the state-kernel arguments |lambda_n t^alpha| (all modes,
    all grid times, every order in ``order_alphas``) that fall in the
    evaluator's series (<= 1), contour (1..50) and asymptotic (>= 50)
    ranges."""
    T, n_t = cfg["time"]["T"], cfg["time"]["n_t"]
    counts = {"series": 0, "contour": 0, "asymptotic": 0}
    for alpha in order_alphas(cfg):
        for lam in lambdas:
            for i in range(1, n_t + 1):
                x = lam * (T * i / n_t) ** alpha
                key = "series" if x <= 1.0 else "asymptotic" if x >= 50.0 else "contour"
                counts[key] += 1
    total = sum(counts.values())
    return {"arguments": total, **{k: v / total for k, v in counts.items()}}


# make(tiny, draws) builds a config and check(report, cfg) lists the failed
# checks of a call; the selftest workload drives the battery instead
Workload = namedtuple("Workload", "make check")

WORKLOADS = {
    "forward-output": Workload(forward_output, check_forward),
    "invert-source": Workload(invert_source, check_source),
    "invert-order": Workload(invert_order, check_order),
    "selftest": Workload(None, None),
}
