#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload sim-deep --seeds 1-10 [--trace 0|1]

For every metric it prints the median of the per-run values, the distance
between the first and third quartiles (statistics.quantiles, n=4) as a share
of that median, and — for end-to-end metrics — that spread against the
metric's bound in BENCHMARK.json. A run that fails, or prints
"correct": false, stops the script with a non-zero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = list(bench["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit("seed %d: exit code %d" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: outputs failed verification" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)
    print("%-34s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag = "  (above a third of the bound)"
        print("%-34s %14.6g %10.4f %8s%s" % (
            name, med, share, "" if bound is None else bound, flag))
        print("    runs: " + " ".join("%.6g" % v for v in vs))


if __name__ == "__main__":
    main()
