#!/usr/bin/env python3
"""Run one workload N times and report how steady its end-to-end metrics are.

Usage (from the root of the repository):

    python3 perfbench/steady.py --workload fleet-rollout --runs 10 \
        --save set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

Each run uses its own seed (--first-seed, --first-seed + 1, ...) and the
run length from BENCHMARK.json unless --seconds is given. For every
end-to-end metric the report gives the median, the quartiles (as
statistics.quantiles(values, n=4) computes them), the quartile spread and
the largest deviation from the median, both as a share of the median,
next to the metric's bound. --compare reads two saved sets and shows, per
workload and metric, how far the second median moved from the first
against the bound, plus the share of failed operations in each set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(workload, runs, first_seed, seconds):
    results = []
    for k in range(runs):
        seed = first_seed + k
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("steady.py: %s seed %d exited with %d"
                     % (workload, seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print("  seed %d done" % seed, file=sys.stderr)
    return results


def report(workload, results, metrics):
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("%s: %d runs, correct %s, failed share %s" % (
        workload, len(results), all(r["correct"] for r in results),
        ", ".join("%.9g" % s for s in shares)))
    print("  %-20s %14s %14s %14s %9s %9s %7s" % (
        "metric", "median", "q1", "q3", "iqr/med", "maxdev", "bound"))
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        dev = max(abs(v - med) for v in values)
        print("  %-20s %14.6g %14.6g %14.6g %9.4f %9.4f %7.3f" % (
            m["name"], med, q1, q3, (q3 - q1) / med if med else 0.0,
            dev / med if med else 0.0, m["bound"]))


def compare(first, second, metrics):
    for workload in first:
        a, b = first[workload], second.get(workload)
        if not b:
            continue
        sa = {r["failed"] / r["attempted"] for r in a}
        sb = {r["failed"] / r["attempted"] for r in b}
        print("%s: failed share %s vs %s (%s)" % (
            workload, sorted(sa), sorted(sb),
            "same" if sa == sb and len(sa) == 1 else "DIFFERENT"))
        for m in metrics:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print("  %-20s %14.6g -> %14.6g  worse by %+8.4f  bound %.3f  %s"
                  % (m["name"], ma, mb, worse, m["bound"],
                     "ok" if worse <= m["bound"] else "OVER"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save", help="write the raw results to this file")
    ap.add_argument("--compare", nargs=2, metavar=("SET1", "SET2"))
    args = ap.parse_args()
    bench = spec()
    metrics = bench["end_to_end"]

    if args.compare:
        with open(args.compare[0]) as f1, open(args.compare[1]) as f2:
            compare(json.load(f1), json.load(f2), metrics)
        return

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    sets = {}
    for w in workloads:
        sets[w] = run_set(w, args.runs, args.first_seed, seconds)
        report(w, sets[w], metrics)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(sets, f, indent=1)


if __name__ == "__main__":
    main()
