"""Benchmark of qgw: one workload, one seed, one result line.

    python3 qgwbench/run.py --workload algebra --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads: suite, algebra, braid, build
(see README.md).  Each run does a fixed number of whole rounds of its
workload, set from ``--seconds`` by the table below, never by the clock.
A run is one worker process; with ``--trace 0`` it reports the end-to-end
metrics, its times scaled to a reference core speed (speed.py), with
``--trace 1`` it is traced and reports the per-layer ones.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Raw results go to qgwbench/out/.  Exits 2 without a result when the qgw
sources are missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("suite", "algebra", "braid", "build")
# Rounds per 10 s of --seconds.  A round takes 5-7 s of CPU on algebra,
# 5-6 on braid and 2.5-3.7 on build on the reference machine (README).
ROUNDS_PER_10S = {"algebra": 1, "braid": 1, "build": 2}
TIMEOUT_S = 170
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


def rounds_for(workload: str, seconds: int) -> int:
    """Whole rounds for a run of about ``seconds``; suite is one cold run
    (about 60 s of CPU) whatever the length."""
    if workload == "suite":
        return 1
    return max(1, round(ROUNDS_PER_10S[workload] * seconds / 10))


def _run_worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, deadline):
    args = ["--workload", workload, "--seed", seed, "--rounds", rounds_for(workload, seconds)]
    if trace:
        trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl.gz")
        raw = _run_worker(args + ["--trace", 1, "--trace-file", trace_file], deadline)
        return raw, raw["per_layer"]
    raw = _run_worker(args, deadline)
    metrics = {
        "setup_s": {"value": raw["setup_cpu"], "unit": "s"},
        "cpu_s": {"value": raw["cpu_s"], "unit": "s"},
        "wall_s": {"value": raw["wall_s"], "unit": "s"},
        "op_p50_ms": {"value": raw["op_p50_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }
    return raw, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qgw", "__init__.py")):
        print(f"qgw sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        raw, metrics = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    raw.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "metrics": metrics})
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(raw, fh)

    for key, m in sorted(metrics.items()):
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(f"operations: {raw['attempted']} attempted, {raw['failed']} failed, "
          f"{len(raw['faults'])} wrong; rewrite steps {raw['steps']}")
    print(json.dumps({"correct": not raw["faults"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
