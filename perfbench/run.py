#!/usr/bin/env python3
"""Builds the benchmark and runs workloads, each in its own process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of the traced pass. The last line of a single-workload run is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Workers run at ATHENA_THREADS = the number of cores. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); run records and spans go to
`<target dir>/perfbench-runs/`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["conv_relu_fc", "linear_only", "maxpool_batch"]
RUN_TIMEOUT_S = 170


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr so stdout carries only results.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def run_one(binary, args, workload, env):
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["ATHENA_THREADS"] = str(os.cpu_count() or 1)
    if not build(env):
        print("build failed", file=sys.stderr)
        return 2
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "athena-perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(binary, args, w, env) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
