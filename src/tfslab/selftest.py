"""Acceptance battery: every criterion the package must meet, runnable at
desk scale via ``tfslab selftest`` or pytest.

Each criterion is a function that raises ``AssertionError`` with a message
on failure and returns a one-line detail string on success; the runner
times them against the declared budgets after a warm-up call.
"""

import cmath
import filecmp
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SourceHypothesisError
from .forward import (
    KernelTable,
    SourceSpec,
    TimeGrid,
    caputo_l1,
    decay_slope,
    duhamel_check,
    eval_homogeneous,
    pde_residual,
    project,
    solve_modal,
)
from .inverse import (
    OrderSearchConfig,
    TikhonovConfig,
    extract_modal_projection,
    invert_initial,
    invert_order,
    invert_source,
    laplace_identity_gap,
    modal_resolvent,
    order_misfit,
)
from .mlf import (
    MLParams,
    FractionalOrder,
    certify_c0,
    kernel_grid,
    ml_eval,
    rgamma_real,
)
from .observe import make_mask, observe
from .spectral import Grid1D, OperatorSpec, analytic_eigensystem, assemble_operator, eigen_solve


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime: float
    limit: float
    detail: str


def _safe_radius(alpha, theta, rng_r):
    """Largest |z| <= 50 keeping exp(Re z^{1/a}) within double range, scaled
    by ``rng_r``."""
    best = 0.0
    m_range = range(-2, 3)
    for m in m_range:
        psi = (theta + 2.0 * math.pi * m) / alpha
        if abs(psi) <= math.pi:
            best = max(best, math.cos(psi))
    if best <= 0.0:
        return 50.0 * rng_r
    return min(50.0, (120.0 / best) ** alpha) * rng_r


def _c1_ml_correctness():
    rng = np.random.default_rng(np.random.Philox(101))
    z = np.empty(200, dtype=complex)
    for i in range(z.size):
        r = 10.0 * math.sqrt(rng.random())
        z[i] = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    val = ml_eval(MLParams(1.0, 1.0), z, verify=False)
    worst_exp = float(np.max(np.abs(val - np.exp(z)) / np.abs(np.exp(z))))
    assert worst_exp <= 1e-10, f"exp reduction error {worst_exp:.3e} > 1e-10"
    worst_rec = 0.0
    for _ in range(500):
        alpha = rng.uniform(0.3, 1.8)
        beta = rng.uniform(-0.5, 2.5)
        th = rng.uniform(-math.pi, math.pi)
        r = _safe_radius(alpha, th, rng.random())
        z = r * cmath.exp(1j * th)
        e1 = ml_eval(MLParams(alpha, beta), z, verify=False)
        e2 = ml_eval(MLParams(alpha, alpha + beta), z, verify=False)
        res = abs(e1 - rgamma_real(beta) - z * e2) / (1.0 + abs(e1))
        worst_rec = max(worst_rec, res)
    assert worst_rec <= 1e-9, f"recurrence residual {worst_rec:.3e} > 1e-9"
    return f"exp sup {worst_exp:.2e}; recurrence sup {worst_rec:.2e}"


def _c2_kernel_bound():
    details = []
    for alpha in (0.3, 0.5, 0.7, 0.9):
        c0 = certify_c0(alpha)
        assert 1.0 <= c0 <= 100.0, f"alpha={alpha}: c0={c0:.3g} outside [1, 100]"
        dense = certify_c0(alpha, np.geomspace(1.0, 100.0, 37),
                           np.geomspace(1e-3, 1e3, 37))
        assert abs(dense - c0) <= 0.05 * c0, (
            f"alpha={alpha}: grid refinement moves c0 by "
            f"{abs(dense - c0) / c0:.2%} (> 5%)"
        )
        details.append(f"a={alpha}: c0={c0:.3f}")
    return "; ".join(details)


def _c3_spectral_convergence():
    errs = []
    worst_ortho = 0.0
    for m in (31, 63, 127):
        grid = Grid1D(1.0, m)
        A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
        eig = eigen_solve(A, 4, grid)
        errs.append(abs(eig.lambdas[0] - math.pi**2))
        gram = grid.h * (eig.phis @ eig.phis.T)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(gram - np.eye(4)))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.9 <= o <= 2.1, f"FD order {o:.3f} outside [1.9, 2.1]"
    assert worst_ortho <= 1e-10, f"orthonormality dev {worst_ortho:.3e} > 1e-10"
    return f"orders {orders[0]:.3f}, {orders[1]:.3f}; ortho {worst_ortho:.1e}"


def _c4_forward_single_mode():
    grid = Grid1D(1.0, 199)
    eig = analytic_eigensystem(4, grid)
    order = FractionalOrder(0.6)
    tg = TimeGrid(1.0, 40)
    lam1 = float(eig.lambdas[0])
    table = KernelTable(order, eig, tg)
    # homogeneous: modal trajectory equals the state kernel
    e1 = np.eye(eig.n)[0]
    y = solve_modal(e1, None, table).T @ eig.phis
    c1 = project(y.T, eig)[0]
    worst = float(np.max(np.abs(c1 - kernel_grid(order, lam1, tg.times, "state"))))
    assert worst <= 1e-12, f"trajectory deviates from state kernel by {worst:.3e}"
    # separable source, rho = 1: closed form vs quadrature of the entire
    # function E_{a,a}(-i lam u) over [0, t^a], 64 Gauss-Legendre nodes
    rho = np.ones(tg.n_t, dtype=complex)
    ys = solve_modal(np.zeros(eig.n), SourceSpec(rho, e1), table).T @ eig.phis
    ts = np.array([0.25, 0.5, 1.0])
    got = project(ys[np.rint(ts / tg.dt).astype(int) - 1].T, eig)[0]
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * ts**order.alpha
    vals = ml_eval(MLParams(order.alpha, order.alpha),
                   -1j * (lam1 * half[:, None] * (x + 1.0)), verify=False)
    oracle = -1j * half * (vals @ w) / order.alpha
    worst_q = float(np.max(np.abs(got - oracle)))
    assert worst_q <= 1e-6, f"source term deviates from quadrature by {worst_q:.3e}"
    return f"kernel match {worst:.1e}; quadrature match {worst_q:.1e}"


def _c5_classical_limit():
    # L = pi gives lambda_1 = 1, the canonical classical oscillator; the
    # alpha -> 1 gap scales with lambda, so the domain choice matters
    grid = Grid1D(math.pi, 199)
    eig = analytic_eigensystem(2, grid)
    order = FractionalOrder(0.999)
    lam1 = float(eig.lambdas[0])
    vals = eval_homogeneous(np.eye(eig.n)[0], order, eig, np.array([1.0]),
                            np.arange(grid.m))
    target = cmath.exp(-1j * lam1) * eig.phis[0]
    dev = grid.norm(vals[0] - target)
    assert dev <= 5e-3, f"classical-limit deviation {dev:.3e} > 5e-3"
    return f"deviation {dev:.2e} at alpha=0.999, lambda_1={lam1:.6f}"


def _c6_pde_residual():
    grid = Grid1D(1.0, 63)
    A = assemble_operator(OperatorSpec.constant(1.0, 0.0, grid), grid)
    eig = eigen_solve(A, 8, grid)
    order = FractionalOrder(0.5)
    y0 = eig.phis[0].astype(complex)
    resids = []
    for n_t in (200, 400, 800):
        table = KernelTable(order, eig, TimeGrid(1.0, n_t))
        resids.append(pde_residual(solve_modal(project(y0, eig), None, table), table, y0,
                                   None, A))
    assert resids[0] > resids[1] > resids[2], (
        f"residuals not monotone under refinement: {resids}"
    )
    return "residuals " + " > ".join(f"{r:.3e}" for r in resids)


def _c7_duhamel():
    grid = Grid1D(1.0, 99)
    eig = analytic_eigensystem(8, grid)
    order = FractionalOrder(0.5)
    g = np.eye(eig.n)[0]
    discs = []
    for n_t in (1000, 2000):
        table = KernelTable(order, eig, TimeGrid(1.0, n_t))
        discs.append(duhamel_check(SourceSpec(np.ones(n_t), g), table))
    assert discs[0] <= 1e-3, f"Duhamel discrepancy {discs[0]:.3e} > 1e-3 at dt=1e-3"
    ratio = discs[1] / discs[0]
    assert ratio <= 0.7, f"refinement ratio {ratio:.3f} not halving"
    return f"disc {discs[0]:.2e} -> {discs[1]:.2e} (ratio {ratio:.2f})"


def _recovery_setup():
    grid = Grid1D(1.0, 99)
    eig = analytic_eigensystem(8, grid)
    tg = TimeGrid(1.0, 50)
    mask = make_mask([(0.2, 0.4)], grid)
    return grid, eig, tg, mask


def _c8_initial_recovery():
    # alpha is free in this criterion; 0.95 keeps the high-mode kernel
    # columns oscillatory enough that the design is well conditioned
    _, eig, tg, mask = _recovery_setup()
    order = FractionalOrder(0.95)
    truth = np.zeros(8, dtype=complex)
    truth[:2] = 1.0 / math.sqrt(2.0)
    table = KernelTable(order, eig, tg)
    coeffs = solve_modal(truth, None, table)
    clean = observe(coeffs, eig, tg, mask, 0.0, 0)
    res = invert_initial(clean, table, TikhonovConfig(1e-10, 8))
    smin = res.diagnostics["sigma_min"]
    assert smin > 0.0, "sigma_min(G) vanished"
    err_clean = float(np.linalg.norm(res.modal - truth))
    assert err_clean <= 1e-6, f"noiseless recovery error {err_clean:.3e} > 1e-6"
    noisy = observe(coeffs, eig, tg, mask, 1e-3, 7)
    resn = invert_initial(noisy, table, TikhonovConfig(1e-6, 8))
    err_noisy = float(np.linalg.norm(resn.modal - truth) / np.linalg.norm(truth))
    assert err_noisy <= 1e-1, f"noisy recovery error {err_noisy:.3e} > 1e-1"
    return f"sigma_min {smin:.2e}; errors {err_clean:.1e} / {err_noisy:.1e}"


def _c9_source_recovery():
    _, eig, tg, mask = _recovery_setup()
    order = FractionalOrder(0.95)
    rho = np.ones(tg.n_t, dtype=complex)
    truth = np.zeros(8, dtype=complex)
    truth[1] = 1.0
    table = KernelTable(order, eig, tg)
    coeffs = solve_modal(np.zeros(8), SourceSpec(rho, truth), table)
    clean = observe(coeffs, eig, tg, mask, 0.0, 0)
    res = invert_source(clean, rho, table, TikhonovConfig(1e-12, 8))
    err = float(np.linalg.norm(res.modal - truth))
    assert err <= 1e-5, f"source recovery error {err:.3e} > 1e-5"
    try:
        invert_source(clean, np.zeros(tg.n_t), table, TikhonovConfig(1e-12, 8))
    except SourceHypothesisError:
        pass
    else:
        raise AssertionError("rho = 0 was not rejected")
    return f"recovery error {err:.1e}; rho=0 rejected"


def _c10_order_recovery():
    grid, eig, tg, mask = _recovery_setup()
    y0 = np.eye(eig.n)[0]
    coeffs = solve_modal(y0, None, KernelTable(FractionalOrder(0.5), eig, tg))
    data = observe(coeffs, eig, tg, mask, 0.0, 0)
    cfg = OrderSearchConfig(0.25, 0.85, 25, 1e-4)
    res = invert_order(data, y0, eig, cfg)
    err = abs(res.order - 0.5)
    assert err <= 1e-3, f"|alpha_hat - 0.5| = {err:.3e} > 1e-3"
    m_other = order_misfit(data, y0, FractionalOrder(0.7), eig)
    d_norm2 = float(grid.h * tg.dt * np.sum(np.abs(data.values) ** 2))
    assert m_other > 1e-3 * d_norm2, (
        f"misfit at |alpha-beta|=0.2 is {m_other:.3e}, not discriminating "
        f"against {1e-3 * d_norm2:.3e}"
    )
    return f"alpha_hat err {err:.1e}; M(0.7)/||d||^2 = {m_other / d_norm2:.2e}"


def _c11_laplace_identity():
    g1 = laplace_identity_gap(0.5, math.pi**2, 1.0 + 0j, 200.0)
    assert g1 <= 1e-4, f"gap {g1:.3e} > 1e-4 for (0.5, pi^2, 1)"
    g2 = laplace_identity_gap(0.7, 5.0, 2.0 + 3.0j, 14.0)
    assert g2 <= 1e-4, f"gap {g2:.3e} > 1e-4 for (0.7, 5, 2+3i)"
    return f"gaps {g1:.2e}, {g2:.2e}"


def _c12_residue_extraction():
    grid = Grid1D(1.0, 19)
    eig = analytic_eigensystem(3, grid)
    # single pole: exact at modest node counts
    coeffs = np.array([1.3 - 0.4j, 0.0, 0.0])
    got = extract_modal_projection(modal_resolvent(coeffs, eig), eig, 0, 64)
    exact = coeffs[0] * eig.phis[0]
    err_single = float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
    assert err_single <= 1e-10, f"single-pole error {err_single:.3e} > 1e-10"
    # two poles: leakage decays geometrically in the node count
    coeffs2 = np.array([1.0, 0.7 + 0.2j, 0.0])
    S2 = modal_resolvent(coeffs2, eig)
    exact2 = coeffs2[1] * eig.phis[1]
    errors = []
    for n in (8, 16, 32, 64):
        got_n = extract_modal_projection(S2, eig, 1, n)
        errors.append(float(np.max(np.abs(got_n - exact2))))
    for e0, e1 in zip(errors, errors[1:]):
        if e0 <= 1e-12:
            break
        assert e1 <= 0.5 * e0, f"decay ratio {e1 / e0:.3f} > 0.5: {errors}"
    # no energy at the target mode: projection vanishes
    S3 = modal_resolvent(np.array([0.0, 1.0, 0.0]), eig)
    got3 = extract_modal_projection(S3, eig, 0, 64)
    leak = float(np.max(np.abs(got3)))
    assert leak <= 1e-8, f"empty-mode leakage {leak:.3e} > 1e-8"
    return f"single {err_single:.1e}; decay {errors}; leak {leak:.1e}"


def _c13_decay_slope():
    grid = Grid1D(1.0, 63)
    eig = analytic_eigensystem(2, grid)
    mask = make_mask([(0.2, 0.4)], grid)
    details = []
    for alpha in (0.5, 0.8):
        slope = decay_slope(np.eye(eig.n)[0], FractionalOrder(alpha), eig, mask.indices)
        assert abs(slope + alpha) <= 0.05, (
            f"alpha={alpha}: slope {slope:.4f} vs -{alpha} (tol 0.05)"
        )
        details.append(f"a={alpha}: slope={slope:.3f}")
    return "; ".join(details)


def _c14_determinism():
    from . import cli

    config = {
        "problem": "invert-initial",
        "grid": {"L": 1.0, "m": 63},
        "time": {"T": 1.0, "n_t": 30},
        "order": {"alpha": 0.5, "phase": "standard_i"},
        "operator": {"analytic": True},
        "n_modes": 6,
        "mask": {"intervals": [[0.2, 0.4]]},
        "truth": {"initial": {"kind": "mix", "coeffs_re": [0.7, 0.7, 0.0],
                              "coeffs_im": [0.0, 0.0, 0.1]}},
        "noise": {"level": 1e-3, "seed": 42},
        "inversion": {"gamma": 1e-6, "n_modes": 6},
    }
    import contextlib
    import io

    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            rc1 = cli.main(["invert-initial", "--config", cfg_path, "--output", out1])
            rc2 = cli.main(["invert-initial", "--config", cfg_path, "--output", out2])
        assert rc1 == 0 and rc2 == 0, f"runs failed: {rc1}, {rc2}"
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2)), "artifact manifests differ"
        compared = []
        for name in names:
            if name == "report.json":
                with open(os.path.join(out1, name)) as fh:
                    r1 = json.load(fh)
                with open(os.path.join(out2, name)) as fh:
                    r2 = json.load(fh)
                r1.pop("phase_seconds"), r2.pop("phase_seconds")
                assert r1 == r2, "reports differ beyond wall times"
                continue
            same = filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name),
                               shallow=False)
            assert same, f"artifact {name} is not byte-identical"
            compared.append(name)
    return f"byte-identical: {', '.join(compared)}"


CRITERIA = [
    ("ml-correctness", 5.0, _c1_ml_correctness),
    ("kernel-bound-c0", 10.0, _c2_kernel_bound),
    ("spectral-convergence", 5.0, _c3_spectral_convergence),
    ("forward-single-mode", 5.0, _c4_forward_single_mode),
    ("classical-limit", 2.0, _c5_classical_limit),
    ("pde-residual-refinement", 30.0, _c6_pde_residual),
    ("duhamel-identity", 30.0, _c7_duhamel),
    ("initial-data-recovery", 60.0, _c8_initial_recovery),
    ("source-recovery", 60.0, _c9_source_recovery),
    ("order-recovery", 120.0, _c10_order_recovery),
    ("laplace-identity", 10.0, _c11_laplace_identity),
    ("residue-extraction", 5.0, _c12_residue_extraction),
    ("decay-slope", 10.0, _c13_decay_slope),
    ("determinism", 10.0, _c14_determinism),
]


def warmup():
    """Touch each evaluator region once so the timed criteria measure
    steady-state numerics."""
    # Kept so that the first ML calls in each region and the first FFT
    # convolution (inside caputo_l1) happen before any criterion's clock
    # starts.
    order = FractionalOrder(0.5)
    kernel_grid(order, 1.0, np.array([0.5]), "state")
    kernel_grid(order, 100.0, np.array([10.0]), "integral")
    tg = TimeGrid(0.1, 4)
    caputo_l1(np.ones(5, dtype=complex), 0.5, tg)


def run_battery(names=None):
    selected = CRITERIA if names is None else [
        c for c in CRITERIA if c[0] in set(names)
    ]
    if names is not None and len(selected) != len(set(names)):
        known = {c[0] for c in CRITERIA}
        raise ConfigError(f"unknown criteria: {sorted(set(names) - known)}",
                          field="criteria")
    warmup()
    results = []
    for name, limit, func in selected:
        start = time.perf_counter()
        try:
            detail = func()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        runtime = time.perf_counter() - start
        results.append(CriterionResult(name, passed, runtime, limit, detail))
    return results


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed and r.runtime <= r.limit else "FAIL"
        if r.passed and r.runtime > r.limit:
            detail = f"over time budget ({r.runtime:.1f}s > {r.limit:.0f}s); " + r.detail
        else:
            detail = r.detail
        lines.append(f"{status}  {r.name:<{width}}  {r.runtime:7.2f}s  {detail}")
    n_pass = sum(1 for r in results if r.passed and r.runtime <= r.limit)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)


def battery_passed(results) -> bool:
    return all(r.passed and r.runtime <= r.limit for r in results)
