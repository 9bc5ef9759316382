"""Acceptance battery: one test per criterion, each enforced at its stated
tolerance and runtime budget.  ``tfslab selftest`` runs the same battery
from the command line.
"""

import pytest

from tfslab import mlf, selftest

selftest.warmup()


@pytest.mark.parametrize(
    "name,limit,func", selftest.CRITERIA, ids=[c[0] for c in selftest.CRITERIA]
)
def test_criterion(name, limit, func):
    import time

    start = time.perf_counter()
    detail = func()
    runtime = time.perf_counter() - start
    print(f"PASS {name}: {detail} ({runtime:.2f}s)")
    assert runtime <= limit, f"{name} exceeded its {limit:.0f}s budget: {runtime:.1f}s"


def test_ml_correctness_evaluates_rows(monkeypatch):
    # the exp sweep and the 500 recurrence pairs take one evaluator row
    # each, every point at its own (alpha, beta), not 1,000 one-point calls;
    # the rows' values are those of the one-point calls, so the detail
    # string keeps its digits.  Only the outermost calls count: a row
    # reduces its orders above 1 through a nested row.
    row, calls, depth = mlf._ml_row, [], [0]

    def spy(alpha, beta, z, *ray):
        if not depth[0]:
            calls.append(z.size)
        depth[0] += 1
        try:
            return row(alpha, beta, z, *ray)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(mlf, "_ml_row", spy)
    detail = {name: func for name, _, func in selftest.CRITERIA}["ml-correctness"]()
    assert detail == "exp sup 3.88e-13; recurrence sup 5.03e-12"
    assert calls == [200, 500, 500]
