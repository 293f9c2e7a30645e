#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload wire_lookup --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); stores, sockets and span files stay under
.bench_build as well. The last line of stdout is the benchmark's JSON result.
Exits non-zero, without a result, when the arguments are malformed or the
build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire_lookup", "erp_audit", "ingest_age")
# A run must finish within 180 s; what the build leaves of that is the cap.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def positive_seconds(text):
    if not text.isdigit() or not 1 <= int(text) <= 600:
        raise argparse.ArgumentTypeError(f"not a whole number in [1, 600]: {text!r}")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=positive_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "full"), default="full")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test only: the answer check must fail")
    return parser.parse_args(argv)


def build():
    """Configures and builds payg_perfbench; returns the binary's path."""
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out, *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "--target", "payg_perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                done = None
            if done is None or done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"perfbench: build step failed: {' '.join(step)}\n")
                return None
    return os.path.join(out, "payg_perfbench")


def run(binary, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    # Relative paths keep the server's unix socket path short.
    root = os.path.relpath(build_root())
    run_dir = os.path.join(root, "perfbench-run", f"{args.workload}-{os.getpid()}")
    trace_out = os.path.join(root, "perfbench-traces", f"{args.workload}.spans.csv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--dir", run_dir, "--trace-out", trace_out]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S}s\n")
        return 1, []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    """The JSON result on the last line, or None when it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main(argv):
    args = parse_args(argv)
    binary = build()
    if binary is None:
        return 1
    code, lines = run(binary, args)
    result = result_of(lines)
    for line in lines[:-1]:
        print(line)
    if result is None:
        sys.stderr.write("perfbench: the run printed no result\n")
        return 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
