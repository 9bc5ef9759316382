"""One fresh benchmark process; started by run.py, not by hand.

    worker.py WORKLOAD SEED MODE SECONDS [--oracle]

The process imports tfslab from the checkout's ``src``, makes an untimed
warm-up call on a tiny config of the workload's problem, and prints
``READY`` (run.py times set-up up to that line).  MODE then selects:

* ``setup``   -- stop there;
* ``measure`` -- timed pipeline calls for SECONDS (one battery for the
  selftest workload, which runs once per process);
* ``trace``   -- the same calls under the span tracer.

``--oracle`` adds the Mittag-Leffler accuracy check after the timed part.
From before the tfslab import to ``READY``, and again during each timed
call, ``hostspeed.HostSpeed`` gauges the host's speed.  The last line is
``RESULT <json>``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

SETUP_SPEED = HostSpeed()
SETUP_SPEED.start()

import tfslab.cli as cli  # noqa: E402  (set-up time includes this import)

import workloads  # noqa: E402


def _machine():
    import importlib.util
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pipeline:
    """Validated configs through ``tfslab.cli.run``, artifacts in a
    temporary directory deleted after each call."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.draws = workloads.Draws(seed, "calls")
        self.first = None

    def warm_up(self):
        cfg = self.workload.make(True, workloads.Draws(0, "warm-up"))
        out = tempfile.mkdtemp()
        try:
            cli.run(cli.validate_config(cfg, cfg["problem"]), out)
        finally:
            shutil.rmtree(out)

    def call(self, tracer=None):
        """One timed call; returns (seconds, failures)."""
        cfg = self.workload.make(False, self.draws)
        cli.validate_config(cfg, cfg["problem"])
        out = tempfile.mkdtemp()
        try:
            start = time.perf_counter()
            try:
                if tracer is None:
                    report = cli.run(cfg, out)
                else:
                    with tracer.root("cli", "run"):
                        report = cli.run(cfg, out)
            except Exception as exc:  # a failed call, counted and reported
                return time.perf_counter() - start, [f"cli.run raised {exc!r}"]
            seconds = time.perf_counter() - start
            if self.first is None:
                with open(os.path.join(out, "eigensystem.json")) as fh:
                    lambdas = json.load(fh)["lambdas"]
                self.first = {"config": cfg, "kernel_argument_regions":
                              workloads.region_histogram(cfg, lambdas)}
            return seconds, self.workload.check(report, cfg)
        finally:
            shutil.rmtree(out)


class Battery:
    """The selftest battery; the warm-up runs one small criterion."""

    def __init__(self, workload, seed):
        from tfslab import selftest

        self.selftest = selftest
        self.first = None

    def warm_up(self):
        self.selftest.run_battery(["residue-extraction"])

    def call(self, tracer=None):
        start = time.perf_counter()
        try:
            if tracer is None:
                results = self.selftest.run_battery()
            else:
                with tracer.root("selftest", "run_battery"):
                    results = self.selftest.run_battery()
        except Exception as exc:
            return time.perf_counter() - start, [f"run_battery raised {exc!r}"]
        seconds = time.perf_counter() - start
        fails = [f"{r.name}: {r.detail} ({r.runtime:.2f} s of {r.limit:g} s)"
                 for r in results if not (r.passed and r.runtime <= r.limit)]
        return seconds, fails


def _timed(pipeline, seconds, once, tracer=None):
    """Timed calls until ``seconds`` have passed and at least MIN_CALLS
    were made; returns the wall times, the reference-loop times measured
    during each call, and the check failures.  A call whose checks fail
    keeps its sample and counts as failed."""
    samples, refs, failures, failed = [], [], [], 0
    speed = HostSpeed()
    speed.start()
    try:
        start = time.perf_counter()
        while True:
            speed.take()  # drop what the set-up between calls sampled
            t, fails = pipeline.call(tracer)
            refs.append(speed.take())
            samples.append(t)
            failed += bool(fails)
            failures += [f"call {len(samples)}: {f}" for f in fails]
            if once or (len(samples) >= workloads.MIN_CALLS
                         and time.perf_counter() - start >= seconds):
                return samples, refs, failed, failures
    finally:
        speed.stop()


def main(argv):
    name, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"tfslab imported from {cli.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name]
    once = workload.make is None
    pipeline = (Battery if once else Pipeline)(workload, seed)
    pipeline.warm_up()
    print("READY", flush=True)
    SETUP_SPEED.stop()
    result = {"setup_ref_s": SETUP_SPEED.take()}
    if mode in ("measure", "trace"):
        tracer = None
        if mode == "trace":
            import tfslab
            from tracer import Tracer

            tracer = Tracer(tfslab)
            tracer.install()
        try:
            samples, refs, failed, failures = _timed(pipeline, seconds, once, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(samples=samples, ref_s=refs, failed=failed, failures=failures,
                      peak_rss_mb=_peak_rss_mb(), first_call=pipeline.first,
                      machine=_machine())
        if tracer is not None:
            result["layers"] = [tracer.call_metrics(c) for c in range(tracer.call + 1)]
            result["functions"] = tracer.function_counts(0)
            spans = os.path.join(ROOT, ".perfbench",
                                 f"spans-{name}-{seed}-{os.getpid()}.jsonl.gz")
            tracer.dump(spans)
            result["spans_file"] = os.path.relpath(spans, ROOT)
    if "--oracle" in argv:
        import oracle

        n, fails, worst = oracle.check(name)
        result["oracle"] = {"attempted": n, "failed": len(fails), "failures": fails,
                            "worst_rel_error": worst}
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
