#!/usr/bin/env python3
"""Builds and runs the ucp end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload pla_dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) under the checkout, with CMake in
Release mode. Build output goes to stderr; the benchmark's own report goes to
stdout and ends with one JSON line {"correct", "attempted", "failed",
"metrics"}. The exit code is non-zero when the build fails, an answer fails
its oracle, or the result does not carry exactly the metrics BENCHMARK.json
names.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pla_dense", "pla_wide", "scp_unicost", "scp_exact"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    path = os.path.realpath(path)
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        fail("build directory %s is outside the checkout" % path)
    return path


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src; run from a full checkout"
             % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "ucp_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "ucp_perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode, or None."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the small-size self-test instead of a workload")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    # Library knobs read from the environment would make runs incomparable.
    env = {k: v for k, v in os.environ.items() if not k.startswith("UCP_")}

    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"], cwd=ROOT, env=env,
                                timeout=170).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 170 s")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write("".join(line + "\n" for line in lines))
        fail("benchmark exited with code %d and no result" % proc.returncode)
    sys.stdout.write("".join(line + "\n" for line in lines))
    if proc.returncode != 0:
        fail("%d of %d answers failed their oracle"
             % (result["failed"], result["attempted"]))
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        fail("result metrics %s differ from BENCHMARK.json's %s"
             % (sorted(result["metrics"]), sorted(expected)))


if __name__ == "__main__":
    main()
