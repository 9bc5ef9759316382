"""Self-tests of the benchmark's tracer and isolation rules.

    python3 perfbench/selfcheck.py

Prints one PASS/FAIL line per check and exits 1 if any failed.  The tracer
counts are stated for the seed commit's call structure, where a forward
solve evaluates one state-kernel grid and one integral-kernel grid per
mode with a source component.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import tfslab  # noqa: E402
import tfslab.cli as cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(cfg, tracer=None):
    out = tempfile.mkdtemp()
    try:
        start = time.perf_counter()
        if tracer is None:
            cli.run(cli.validate_config(cfg, cfg["problem"]), out)
        else:
            with tracer.root("cli", "run"):
                cli.run(cli.validate_config(cfg, cfg["problem"]), out)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(out)


def tiny_forward(n_modes, n_t):
    cfg = workloads.base_config("forward", 31, n_t, n_modes, workloads.ALPHA)
    cfg["initial"] = {"kind": "mix", "coeffs_re": [1.0] * n_modes}
    cfg["source"] = {"kind": "separable", "rho": {"kind": "const", "value": 1.0},
                     "g": {"kind": "mix", "coeffs_re": [1.0] * n_modes}}
    return cfg


def check_tracer_counts():
    n, n_t = 4, 12
    tracer = Tracer(tfslab)
    tracer.install()
    try:
        _run(tiny_forward(n, n_t), tracer)
    finally:
        tracer.uninstall()
    got = tracer.call_metrics(0)
    want = {"mlf.calls": 2 * n, "mlf.values": n * n_t + n * (n_t + 1),
            "forward.solves": 1, "mlf.repeat_share": 0.0}
    bad = {k: got[k] for k in want if got[k] != want[k]}
    assert not bad, f"got {bad}, want {want}"
    return f"{want}"


def check_uninstall():
    originals = {(m.__name__, k): v for m in Tracer(tfslab).modules
                 for k, v in vars(m).items() if callable(v)}
    tracer = Tracer(tfslab)
    tracer.install()
    wrapped = len(tracer._patches)
    tracer.uninstall()
    after = {(m.__name__, k): v for m in tracer.modules
             for k, v in vars(m).items() if callable(v)}
    assert wrapped > 0, "nothing was wrapped"
    assert after == originals, "uninstall left wrappers behind"
    return f"{wrapped} bindings wrapped and restored"


def check_self_times():
    """Layer self times sum to the traced pipeline time, within the
    tracing overhead."""
    draws = workloads.Draws(0, "selfcheck")
    cfg = workloads.invert_source(True, draws)
    _run(cfg)  # warm-up
    untraced = min(_run(workloads.invert_source(True, draws)) for _ in range(3))
    tracer = Tracer(tfslab)
    tracer.install()
    try:
        traced = _run(workloads.invert_source(True, draws), tracer)
    finally:
        tracer.uninstall()
    got = tracer.call_metrics(0)
    total = sum(v for k, v in got.items() if k.endswith(".self_s"))
    overhead = traced - untraced
    assert abs(total - traced) <= max(abs(overhead), 1e-4), (
        f"self times sum to {total:.6f} s, traced call {traced:.6f} s, "
        f"overhead {overhead:.6f} s")
    return f"sum {total:.6f} s, traced {traced:.6f} s, overhead {overhead:.6f} s"


def check_no_repeats():
    """No call repeats an earlier call's orders in one process."""
    for name in ("forward-output", "invert-source", "invert-order"):
        draws = workloads.Draws(0, "calls")
        seen = set()
        for _ in range(200):
            cfg = workloads.WORKLOADS[name].make(False, draws)
            alphas = tuple(workloads.order_alphas(cfg))
            assert not seen & set(alphas), f"{name}: an order repeats"
            seen.update(alphas)
    return "200 calls per workload"


def main():
    failed = 0
    for check in (check_tracer_counts, check_uninstall, check_self_times, check_no_repeats):
        try:
            detail, ok = check(), True
        except AssertionError as exc:
            detail, ok = str(exc), False
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {check.__name__}  {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
