#!/usr/bin/env python3
"""Build and run one workload of the MDAgent benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload city-follow-me --seed 1 --seconds 30 --trace 0

The script builds the `perf` bench target of the `perfbench` package
(optimised, offline, into `$CARGO_TARGET_DIR`, default `.bench_build`),
then runs it in a fresh process for the one workload. Its standard output
is relayed; the last line is the JSON result. Traced runs (`--trace 1`)
write their spans under `.bench_out/`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("city-follow-me", "cargo-shuttle", "registry-churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def build():
    """Builds the benchmark program; returns the path of its executable."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "bench", "--offline", "--no-run", "--bench", "perf",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "perf"
                and msg.get("executable")):
            return msg["executable"]
    sys.exit("perfbench: build produced no perf executable")


def build_id(path):
    """A short hash of the executable: guard records never cross builds."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    exe = build()
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
        "--build-id", build_id(exe),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: run failed with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
