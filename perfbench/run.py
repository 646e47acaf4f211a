#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: pipeline, explore_cold, explore_shared (see perfbench/README.md).
The first run configures and builds perfbench/ (the library from src/ plus
the benchmark program in perfbench/src/) in Release mode under
.bench_build/perfbench; later runs rebuild only what changed. The
program's stdout passes through: its last line is the run's JSON result.
Exits non-zero when the build fails, a check fails or the run overruns its
time limit.
"""

import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                log("build failed (full log: .bench_build/perfbench/build.log)")
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "explore_cold", "explore_shared"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: tiny inputs, same checks")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: one wrong expected answer")
    args = parser.parse_args()

    if not build():
        return 1
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    with subprocess.Popen(command, cwd=ROOT) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
            return 1


if __name__ == "__main__":
    sys.exit(main())
