#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark is a CMake package of its
own (perfbench/CMakeLists.txt) that compiles the repository's libraries
from source into the build directory: $CARGO_TARGET_DIR when set, else
.bench_build. One process runs one workload; its last stdout line is
the result, with the end-to-end metrics of BENCHMARK.json when --trace 0
and the per-layer metrics when --trace 1. A metric the binary did not
measure makes the run fail.

--smoke runs the workload at a tiny size for a second (the benchmark's
own test, perfbench/smoke_test.py, uses it).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        fail("the repository sources (CMakeLists.txt, src/) are missing; "
             "run from the root of a full checkout")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """Git sha when the checkout is a repository, and a digest of src/."""
    sha = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, f"work-{args.workload}-{os.getpid()}")
    sha, digest = source_identity()
    env = dict(os.environ, PERFBENCH_GIT_SHA=sha, PERFBENCH_SRC_DIGEST=digest,
               GORDER_OBS="on" if args.trace else "off", GORDER_LOG="quiet")
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work-dir={work_dir}"]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} was not measured")
        if not isinstance(got["value"], (int, float)):
            fail(f"metric {entry['name']} is not a finite number")
        if got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
