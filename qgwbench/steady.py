"""Steadiness check: two sets of runs of the same code, compared.

    python3 qgwbench/steady.py

Runs every workload at BENCHMARK.json's ``run_seconds``.  Set A uses
seeds 1-5 and set B seeds 6-10; their runs alternate, so drift of the
machine falls on both.  For each workload and end-to-end metric it prints
each set's quartiles, the spread of each set (quartile distance over
median), the drift of B's median from A's, and whether both stay within
the metric's bound from BENCHMARK.json (the spread of setup_s is not
bounded).  Also prints the rewrite steps of every run, to show that the
seed does not change the work, and the failed share.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import run

RUNS = 5  # per set


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a, b, bound, better, spread_bounded=True):
    """Spreads, drift and verdict of two sets of values of one metric."""
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    worse = (qb[1] - qa[1]) / qa[1] if better == "lower" else (qa[1] - qb[1]) / qa[1]
    ok = worse <= bound and (not spread_bounded or max(spread_a, spread_b) <= bound)
    return qa, qb, spread_a, spread_b, worse, ok


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    os.makedirs(run.OUT, exist_ok=True)
    record = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in run.WORKLOADS:
        sets = {"A": [], "B": []}
        for i in range(1, RUNS + 1):
            for name, seed in (("A", i), ("B", RUNS + i)):
                raw, metrics = run.measure(workload, seed, seconds, 0,
                                           time.monotonic() + run.TIMEOUT_S)
                sets[name].append({"seed": seed, "steps": raw["steps"],
                                   "attempted": raw["attempted"], "failed": raw["failed"],
                                   "faults": len(raw["faults"]), "ops": raw["ops"],
                                   "metrics": {k: m["value"] for k, m in metrics.items()}})
                print(f"{workload} set {name} seed {seed}: steps {raw['steps']}, "
                      + ", ".join(f"{k} {m['value']:.4g}" for k, m in metrics.items()),
                      flush=True)
        print(f"\n{workload}: {'metric':12s} {'set':3s} {'q1':>10s} {'median':>10s} "
              f"{'q3':>10s} {'spread':>7s} {'drift':>7s} {'bound':>6s} ok")
        rows = []
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in sets["A"]]
            b = [r["metrics"][m["name"]] for r in sets["B"]]
            qa, qb, sa, sb, worse, ok = compare(a, b, m["bound"], m["better"],
                                                m["name"] != "setup_s")
            all_ok &= ok
            rows.append({"metric": m["name"], "A": qa, "B": qb, "spread_A": sa,
                         "spread_B": sb, "drift": worse, "bound": m["bound"], "ok": ok})
            for label, q, s in (("A", qa, sa), ("B", qb, sb)):
                tail = f" {worse:+7.1%} {m['bound']:6.2f} {'yes' if ok else 'NO'}" \
                    if label == "B" else ""
                print(f"{'':{len(workload) + 2}s}{m['name']:12s} {label:3s} {q[0]:10.4g} "
                      f"{q[1]:10.4g} {q[2]:10.4g} {s:7.1%}{tail}")
        steps = sorted({r["steps"] for r in sets["A"] + sets["B"]})
        shares = {(r["failed"], r["attempted"]) for r in sets["A"] + sets["B"]}
        faults = sum(r["faults"] for r in sets["A"] + sets["B"])
        print(f"{'':{len(workload) + 2}s}rewrite steps per run: {steps}; "
              f"failed/attempted: {sorted(shares)}; wrong results: {faults}\n")
        all_ok &= len(shares) == 1 and faults == 0
        record["workloads"][workload] = {"sets": sets, "rows": rows}
    path = os.path.join(run.OUT, f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{'all within bounds' if all_ok else 'NOT steady'}; raw runs in {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
