#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program is built with dune into $CARGO_TARGET_DIR (default
.bench_build) inside the checkout; the traced run writes its spans there
too.  Standard output is the program's report, whose last line is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit status is the program's: 0 when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(build_dir):
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return None, str(e)
    out = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        return None, out
    return os.path.join(build_dir, "default", "perfbench", "perfbench.exe"), out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        return fail("run me from the root of a repository checkout "
                    "(dune-project, lib/ and perfbench/ must be present)")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(out_root, "perfbench"), exist_ok=True)
    exe, log = build(os.path.join(out_root, "dune"))
    if exe is None:
        sys.stderr.write(log)
        return fail("build failed")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(out_root, "perfbench")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode(errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("no result line") if proc.returncode == 0 else proc.returncode
    if set(result) != RESULT_KEYS:
        return fail("malformed result line")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
