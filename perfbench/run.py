#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the perfbench program (and the
moheco library it links) from source with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the checkout, runs the workload in process,
and relays the program's output.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; its
metric names and units are checked against BENCHMARK.json.  Exits non-zero,
without printing a result, when the checkout cannot be built or the program
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIGURE_TIMEOUT_S = 300
BUILD_TIMEOUT_S = 850
# Beyond --seconds, a run spends up to about a minute on untimed work: the
# output checks (a reference MC per example-1 run, a design-point estimate
# for the estimate workloads) and the solver probes.
RUN_MARGIN_S = 140


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_program(build_dir):
    """Configures and builds perfbench; returns its path.  Configuring every
    time keeps a build tree left by another version of this directory
    usable."""
    try:
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=CONFIGURE_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    return os.path.join(build_dir, "perfbench")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics {got} do not match BENCHMARK.json {wanted}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    for needed in ("CMakeLists.txt", "src", "examples", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} missing: run from a full source checkout")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    program = build_program(build_dir)

    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_dir, f"trace_{args.workload}_{args.seed}.json")]
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"program exceeded {timeout_s:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"program exited with code {proc.returncode}")
    check_result(lines[-1], args.trace == "1")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
