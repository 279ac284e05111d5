#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test     # the benchmark's own tests

The first call configures and builds the library sources plus the
benchmark (Release) into .bench_build/ at the repository root; later
calls only rebuild what changed.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  The reported metric
names and units are checked against BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    # Compiler and benchmark temporaries stay inside the checkout.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    try:
        binary = build("perfbench_tests" if args.test else "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.test:
        return subprocess.run([binary], cwd=BUILD).returncode
    if not args.workload:
        parser.error("--workload is required")

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--root", ROOT],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want.items()) - set(got.items()))
        extra = sorted(set(got.items()) - set(want.items()))
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, "
              f"unexpected {extra}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
