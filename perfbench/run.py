#!/usr/bin/env python3
"""Build and run the sweep_server benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload dev_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Every run first (re)builds the repository's library, the real
example_sweep_server and the perfbench program into .bench_build/ with
CMake (a no-op when nothing changed), then runs perfbench. Build output goes
to stderr, so the last line of stdout is perfbench's JSON result. The exit
code is perfbench's: 0 ok, 1 outputs wrong, 2 usage, build or run error,
3 the client was the bottleneck. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {BENCH_DIR.name}/; nothing to build")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def run(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["dev_grid", "spice_faults", "replay_mix"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the generator/statistics tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(run([str(BUILD_DIR / "perfbench_tests")]))

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    build(["perfbench", "example_sweep_server"])
    # One span file per workload: the latest traced run overwrites it.
    spans = BUILD_DIR / "spans" / f"{args.workload}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--server", str(BUILD_DIR / "xysig" / "example_sweep_server"),
           "--spans", str(spans)]
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
