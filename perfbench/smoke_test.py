#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size, both modes.

    python3 perfbench/smoke_test.py

Runs `run.py --smoke` for each workload of BENCHMARK.json with --trace 0
and --trace 1 and fails if a run exits non-zero, reports a failed check,
or lacks a metric named in BENCHMARK.json or its unit. Builds first, like
run.py, so the first call takes a few minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload["name"], "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {result['failed']} "
                                f"of {result['attempted']}")
            for entry in wanted:
                got = result["metrics"].get(entry["name"])
                if got is None or got.get("unit") != entry["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {entry['name']} missing, "
                                    "without its unit or not a number")
            print(f"ok   {label}: {len(result['metrics'])} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
