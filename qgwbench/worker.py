"""One benchmark process: the workload's set-up, then its batch.

Started by run.py; prints one JSON object as its last line of output.
``--trace 1`` installs the per-layer wrappers of tracing.py before anything
of qgw runs; otherwise the SpeedSampler of speed.py samples the core's
speed from the start, and set-up and operation times are scaled by it.
The process is single-threaded, so its times are the thread's CPU times.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def run_batch(ops, sampler=None):
    """Time each operation (CPU and wall) and keep its result.  A failed
    operation is counted, not fatal; its result is None.  With a speed
    sampler, each time is given less the sampling inside it and scaled to
    the reference speed, with the raw time beside it."""
    times, results = [], []
    for op in ops:
        m = sampler.mark() if sampler else 0
        c0, k0, w0 = time.thread_time(), _cpu(resource.RUSAGE_CHILDREN), time.perf_counter()
        try:
            res = (op.run(), None)
        except Exception as exc:
            res = (None, f"{op.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc()
        w1, k1, c1 = time.perf_counter(), _cpu(resource.RUSAGE_CHILDREN), time.thread_time()
        spent = sampler.spent(m) if sampler else 0.0
        cpu, wall = (c1 - c0) + (k1 - k0) - spent, w1 - w0 - spent
        f = sampler.scale(m) if sampler else 1.0
        times.append((op.name, cpu * f, wall * f, cpu, wall))
        results.append(res)
    return times, results


def verify_batch(ops, results):
    """Check every result that did not fail; returns (failed, faults)."""
    failed, faults = 0, []
    for op, (res, err) in zip(ops, results):
        if err is not None:
            failed += 1
            print(f"failed: {err}", file=sys.stderr)
            continue
        try:
            fault = op.verify(res)
        except Exception as exc:
            fault = f"{op.name}: check raised {type(exc).__name__}: {exc}"
        if fault:
            faults.append(fault)
            print(f"wrong: {fault}", file=sys.stderr)
    return failed, faults


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    tracer = sampler = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        from speed import SpeedSampler
        sampler = SpeedSampler()
        sampler.start()
    import workloads
    from qgw import ncalg

    setup, batch = workloads.WORKLOADS[args.workload]
    ctx = setup()
    # CPU time of interpreter start, imports and set-up
    setup_cpu = raw_setup_cpu = time.thread_time()
    if sampler:
        raw_setup_cpu -= sampler.spent(0)
        setup_cpu = raw_setup_cpu * sampler.scale(0)
    rng = random.Random(args.seed)
    ops = []
    for _ in range(args.rounds):
        ops += batch(ctx, rng)
    s0 = ncalg.STATS["steps"]
    times, results = run_batch(ops, sampler)
    if sampler:
        sampler.stop()
    # read before the checks run: they import numpy, which qgw does not use
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps = ncalg.STATS["steps"] - s0
    failed, faults = verify_batch(ops, results)
    out = {
        "setup_cpu": setup_cpu, "attempted": len(ops), "failed": failed, "faults": faults,
        "steps": steps,
        "cpu_s": sum(t[1] for t in times), "wall_s": sum(t[2] for t in times),
        "op_p50_ms": 1000.0 * statistics.median(t[1] for t in times),
        "raw_setup_cpu": raw_setup_cpu,
        "raw_cpu_s": sum(t[3] for t in times), "raw_wall_s": sum(t[4] for t in times),
        "peak_rss_mb": rss, "ops": times,
    }
    if tracer is not None:
        out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in
                            tracer.metrics(tracer.calibrate()).items()}
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
