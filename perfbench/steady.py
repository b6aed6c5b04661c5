#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of the same build.

    python3 perfbench/steady.py [--workloads serve_scatter,meta_churn]
        [--runs 5] [--seconds 10] [--first-seed 1]

Runs `--runs` runs per set, alternating set A and set B run by run, each
run with its own seed (A takes first-seed, first-seed+2, ...; B the odd
offsets). For every end-to-end metric of every workload it prints each
set's median and quartiles, the quartile spread of all runs as a share of
their median, and the gap between the two sets' medians as a share of set
A's median; then the bound BENCHMARK.json fixes, and whether the spread
is below a third of it and the gap within it (setup_s: gap only). It also
checks that the share of failed operations is identical in both sets.
Exit code 0 when every check holds.

Run it from the root of a checkout; it calls perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (out.returncode,
                                                       " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("output check failed: " + " ".join(cmd))
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, name in enumerate("AB"):
                seed = args.first_seed + 2 * i + k
                sets[name].append(run_once(workload, seed, args.seconds))
        print("== %s: %d runs per set, %ds each" % (workload, args.runs,
                                                    args.seconds))
        print("%-18s %12s %12s %12s | %12s %12s %12s | %7s %7s %6s %s" % (
            "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3",
            "spread", "gap", "bound", "verdict"))
        for metric in bounds:
            a = [r["metrics"][metric]["value"] for r in sets["A"]
                 if metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]
                 if metric in r["metrics"]]
            if len(a) != args.runs or len(b) != args.runs:
                print("%-18s missing in some runs" % metric)
                ok = False
                continue
            qa, qb = quartiles(a), quartiles(b)
            q1, med, q3 = quartiles(a + b)
            spread = (q3 - q1) / med
            gap = (qb[1] - qa[1]) / qa[1]
            bound = bounds[metric]
            steady = metric == "setup_s" or spread < bound / 3
            agree = abs(gap) <= bound
            verdict = "ok" if steady and agree else "UNSTEADY"
            ok = ok and steady and agree
            print("%-18s %12.4g %12.4g %12.4g | %12.4g %12.4g %12.4g | "
                  "%6.1f%% %+6.1f%% %5.0f%% %s" % (
                      metric, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2],
                      100 * spread, 100 * gap, 100 * bound, verdict))
        share = {k: sum(r["failed"] for r in v) /
                 sum(r["attempted"] for r in v) for k, v in sets.items()}
        print("failed share: A %.6f  B %.6f" % (share["A"], share["B"]))
        ok = ok and share["A"] == share["B"]
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
