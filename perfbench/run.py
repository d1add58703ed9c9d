#!/usr/bin/env python3
"""Build the benchmark crate and run one workload.

    python3 perfbench/run.py --workload mc_offline --seed 1 --seconds 30 --trace 0

Run from the repository root. The crate is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; it
is printed only when the run succeeded and its metrics are exactly the ones
BENCHMARK.json declares for the chosen --trace. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_offline", "serve_small", "repro_suite")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def declared_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in 1..60")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    if build.returncode != 0:
        return fail("the benchmark crate did not build")

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "hlpower-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, check=False)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        return fail(f"{args.workload} exited with status {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return fail(f"last line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(args.trace):
        return fail("printed metrics differ from the ones BENCHMARK.json declares")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
