#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and for explore_shared, it checks
that an untraced run prints every end-to-end metric, and a traced run every
per-layer metric, with the units BENCHMARK.json gives; that two runs with
one seed generate the same query stream (same stream hash) and another seed
a different one; and that the correctness checks can fail: with --corrupt
one expected answer is wrong, and the run must exit non-zero with
"correct": false.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    hashes = [l.split()[1] for l in lines if l.startswith("stream_hash ")]
    return proc, result, hashes[0] if hashes else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def check_metrics(workload, result, metrics, label):
        got = result["metrics"] if result else {}
        check(set(got) == {m["name"] for m in metrics},
              f"{workload}: {label} run prints exactly the {label} metrics")
        for m in metrics:
            value = got.get(m["name"], {})
            check(value.get("unit") == m["unit"] and
                  isinstance(value.get("value"), (int, float)) and
                  math.isfinite(value["value"]),
                  f"{workload}: {m['name']} printed with unit {m['unit']}")

    # explore_shared is not in BENCHMARK.json (see README.md) but is kept
    # runnable, so it is checked too.
    workloads = [w["name"] for w in spec["workloads"]] + ["explore_shared"]
    for workload in workloads:
        proc, result, first_hash = run(workload, 5, 0)
        check(proc.returncode == 0 and result is not None and
              result["correct"] and result["attempted"] >= 1,
              f"{workload}: untraced run passes its checks")
        check_metrics(workload, result, spec["end_to_end"], "end-to-end")

        _, _, again = run(workload, 5, 0)
        check(first_hash is not None and again == first_hash,
              f"{workload}: one seed gives one query stream ({first_hash})")
        _, _, other = run(workload, 6, 0)
        check(other is not None and other != first_hash,
              f"{workload}: another seed gives another query stream")

        proc, result, _ = run(workload, 5, 1)
        check(proc.returncode == 0 and result is not None and result["correct"],
              f"{workload}: traced run passes its checks")
        check_metrics(workload, result, spec["per_layer"], "per-layer")

        proc, result, _ = run(workload, 5, 0, "--corrupt")
        check(proc.returncode != 0 and result is not None and
              not result["correct"],
              f"{workload}: a wrong expected answer fails the run")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
