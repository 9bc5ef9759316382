#!/usr/bin/env python3
"""tfslab benchmark: four pipeline workloads, driven as a CLI user drives them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/tfslab``.  Every
measurement happens in a fresh single-process interpreter (``worker.py``)
with one BLAS thread, importing tfslab from the checkout's ``src``:

* ``setup_s`` is the median, over three or more such processes, of the time
  from starting the process until tfslab.cli is imported and an untimed
  warm-up call on a tiny config of the workload's problem has returned --
  what a CLI user pays on every invocation -- corrected for the host's
  speed as ``pipeline_s`` is below, with the reference loop sampled from
  just before the tfslab import;
* ``pipeline_s`` is the median time of one timed call: ``cli.run`` on a
  validated config for forward-output, invert-source and invert-order
  (many calls in one process for S seconds, each with its own noise seed
  and alpha step), ``selftest.run_battery`` for selftest (once per process,
  processes repeated for S seconds).  Each call's wall time is corrected
  for the host's speed while it ran: multiplied by REF_NOMINAL_S over the
  trimmed harmonic mean CPU time of a fixed reference loop sampled
  during the call
  (``hostspeed.py``).  The value is the call's wall time on a host
  where that loop takes REF_NOMINAL_S; the uncorrected wall times are in
  the record line;
* ``peak_rss_mb`` is the peak resident memory of the measuring process.

With ``--trace 1`` the first half of S is measured untraced and the second
half under the span tracer (``tracer.py``), in separate processes; the
result then carries the per-layer metrics.  Every call's own checks, and
once per run a Mittag-Leffler accuracy check (``oracle.py``), count toward
``attempted`` and ``failed``.

Standard output ends with two JSON lines: the record of the run (workload,
config, seed, reason, kernel-argument regions, machine, sample
distributions, check failures) and the result line.  Scratch
files go under ``.perfbench/`` at the checkout root; spans of a traced run
are written there as ``spans-<workload>-<seed>-<pid>.jsonl.gz``.

Exit status: 0 with a result, 2 for bad arguments or a checkout without
tfslab sources, 1 when a measuring process failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3
# CPU time of hostspeed.reference_loop on the host that pipeline_s is scaled
# to; on a 2-vCPU Xeon (Sapphire Rapids) VM it took about 400 us, and up to
# 40 % more or less as the VM's neighbours loaded the machine
REF_NOMINAL_S = 400e-6
WORKER_TIMEOUT = 150.0
# single-threaded BLAS: the workloads are dominated by Python-level work and
# small dense algebra, and one thread keeps the figures steady on a shared
# machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _env(tmp):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TFSLAB_") and k != "PYTHONPATH"}
    env.update(dict.fromkeys(BLAS_ENV, "1"), TMPDIR=tmp)
    return env


def _worker(args, env, seconds=0.0, mode="setup", oracle=False):
    """Run one worker; returns (setup wall seconds, result dict)."""
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), mode, repr(seconds)]
    if oracle:
        cmd.append("--oracle")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    setup, result = None, None
    try:
        for line in proc.stdout:
            if line == "READY\n" and setup is None:
                setup = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup is None or result is None:
        raise WorkerError(f"worker {cmd[2:]} exited with {proc.returncode}")
    return setup, result


def _distribution(samples):
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (None below eleven samples)."""
    s = sorted(samples)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n > 1 else (s[0],) * 3
    tail = {"percentile": 100.0 * (n - 10) / n, "value": s[n - 11]} if n > 10 else None
    return {"n": n, "median": statistics.median(s), "q1": q1, "q3": q3, "tail": tail,
            "samples": samples}


def _measure(args, env):
    """Run the workers of one benchmark run; returns their setup times and
    results, tagged with the mode each ran in."""
    once = workloads.WORKLOADS[args.workload].make is None
    phases = [("measure", args.seconds)]
    if args.trace:
        phases = [("measure", args.seconds / 2.0), ("trace", args.seconds / 2.0)]
    setups, runs = [], []
    for mode, seconds in phases:
        start, n = time.perf_counter(), 0
        while True:
            setup, result = _worker(args, env, seconds, mode, oracle=not runs)
            setups.append((setup, result["setup_ref_s"]))
            runs.append((mode, result))
            n += 1
            if not once or (n >= workloads.MIN_CALLS
                             and time.perf_counter() - start >= seconds):
                break
    while len(setups) < SETUP_SAMPLES:
        setup, result = _worker(args, env)
        setups.append((setup, result["setup_ref_s"]))
    return setups, runs


def _source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tfslab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _corrected(result):
    """A worker's call times scaled to a host of reference speed."""
    return [t * REF_NOMINAL_S / ref for t, ref in zip(result["samples"], result["ref_s"])]


def _layers(traced):
    """Median per-layer metrics over the traced calls."""
    names = sorted({k for call in traced for k in call})
    return {k: statistics.median(call.get(k, 0) for call in traced) for k in names}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description="tfslab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tfslab", "cli.py")):
        print(f"perfbench: no tfslab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(work, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = _env(tmp)
    try:
        setups, runs = _measure(args, env)
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    untraced = [r for mode, r in runs if mode == "measure"]
    samples = [t for r in untraced for t in _corrected(r)]
    oracle = runs[0][1]["oracle"]
    failures = [f for _, r in runs for f in r["failures"]] + oracle["failures"]
    attempted = sum(len(r["samples"]) for _, r in runs) + oracle["attempted"]
    failed = sum(r["failed"] for _, r in runs) + oracle["failed"]
    pipeline = _distribution(samples)
    metrics = {
        "pipeline_s": _metric(pipeline["median"], "s"),
        "setup_s": _metric(statistics.median(
            wall * REF_NOMINAL_S / ref for wall, ref in setups), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    record = {
        "workload": {"name": args.workload, "seed": args.seed, "why": why,
                     **(runs[0][1]["first_call"] or {})},
        "machine": {**runs[0][1]["machine"], "git_commit": _git_commit(),
                    "source_sha256": _source_digest()},
        "seconds": args.seconds,
        "pipeline_s": pipeline,
        "pipeline_wall_s": _distribution([t for r in untraced for t in r["samples"]]),
        "reference_loop_s": _distribution([x for r in untraced for x in r["ref_s"]]),
        "setup_wall_s": sorted(wall for wall, _ in setups),
        "oracle": oracle,
        "failures": failures,
    }
    if args.trace:
        traced_runs = [r for mode, r in runs if mode == "trace"]
        traced = [call for r in traced_runs for call in r["layers"]]
        layers = _layers(traced)
        traced_s = _distribution([t for r in traced_runs for t in _corrected(r)])
        overhead = traced_s["median"] - pipeline["median"]
        layers["trace.overhead_s"] = overhead
        # per traced call: its layer self times against its timed duration
        gaps = [abs(sum(v for k, v in call.items() if k.endswith(".self_s")) - t)
                for call, t in zip(traced, (t for r in traced_runs for t in r["samples"]))]
        record["trace"] = {
            "traced_pipeline_s": traced_s,
            "self_sum_gap_s": max(gaps),
            "self_sum_within_overhead": max(gaps) <= abs(overhead),
            "functions": traced_runs[0]["functions"],
            "spans_files": [r["spans_file"] for r in traced_runs],
            "counts_repeat": all(
                all(call[k] == traced[0][k] for k in ("mlf.calls", "mlf.values",
                                                       "forward.solves", "kernels.calls"))
                for call in traced),
        }
        metrics = {m["name"]: _metric(layers.get(m["name"], 0), m["unit"])
                   for m in declared["per_layer"]}
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
