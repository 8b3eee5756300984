#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs the workload once per seed (sequentially, untraced) and prints, for
every end-to-end metric, the median over the runs and the distance
between the first and third quartile as a share of the median, next to
the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE)
        last = proc.stdout.decode().strip().splitlines()[-1]
        res = json.loads(last)
        print("seed %d exit %d correct %s" % (seed, proc.returncode, res["correct"]), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("%-22s %14s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-22s %14.6g %9.4f %7.3f" % (name, med, spread, bounds.get(name, float("nan"))))


if __name__ == "__main__":
    sys.exit(main())
