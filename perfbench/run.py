#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the update pipeline.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload release-train --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the library and the benchmark driver
(Release, from ../src) into .bench_build/perfbench; later runs rebuild only
what changed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

An untraced run is SUBRUNS driver processes in a row, each measuring a
SUBRUNS-th of --seconds on the same inputs; each metric is the median over
the processes (peak_rss_mb the largest), attempted and failed are summed.
A process's speed on a shared host shifts as a whole (every metric of one
process moves together) far more than it drifts within the process, so a
median over processes is steadier than one longer process. A traced run
(--trace 1) is one process and also writes the span tree of its traced
releases to .bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SUBRUNS = 4


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    # Build output goes to stderr so the result stays the last stdout line.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: --seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit("run.py: build failed: %s" % err)

    tag = "%s-%d" % (args.workload, args.seed)
    runs = 1 if args.trace else SUBRUNS
    results = []
    for k in range(runs):
        work = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d-%d" % (tag, os.getpid(), k))
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / runs), "--trace",
               str(args.trace), "--work-dir", work]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(ROOT, ".bench_build", "traces", tag + ".json")]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(work, ignore_errors=True)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(out)  # ends with the failing check's result
            sys.exit(proc.returncode or 1)
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        pick = max if name == "peak_rss_mb" else statistics.median
        metrics[name] = {"value": pick(values), "unit": first["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))


if __name__ == "__main__":
    main()
