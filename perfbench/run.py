#!/usr/bin/env python3
"""Builds and runs the MISTIQUE benchmark (see README.md).

    python3 perfbench/run.py --workload warm_query --seed 1 --seconds 20 --trace 0

Run from the repository root. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under the root; the first run configures and
builds it. The program's output is relayed; its last line is one JSON
object whose metric names are checked against BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def git_stamp():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        if sha.returncode != 0:
            return "none (not a git checkout)"
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               text=True, capture_output=True, timeout=10)
        return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MISTIQUE sources under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return binary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    # perfbench checks the workload name itself: ingest_mixed runs too,
    # though BENCHMARK.json does not list it (README.md says why).
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in manifest["per_layer" if args.trace else "end_to_end"]}

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    workdir = os.path.join(build_root, "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT=git_stamp(), PERFBENCH_WORKDIR=workdir)
    log_path = os.path.join(workdir, "stderr-%s.log" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The engine logs every cost-model misprediction to stderr; that goes
    # to a file, and its tail is shown only when the run fails.
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=log, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.readlines()[-20:]
        sys.stderr.write("".join(tail))
        print(lines[-1])
        sys.exit(proc.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: got %s, want %s"
             % (sorted(got.items()), sorted(expected.items())))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
