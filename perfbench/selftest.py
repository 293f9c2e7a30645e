#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py (from the repo root).

Runs every workload at tiny scale, untraced and traced, and requires each run
to exit 0 with zero failures and to print exactly the metrics BENCHMARK.json
names for that mode, each with its unit. Then requires that a run against a
deliberately corrupted reference is caught by the answer check, and that
malformed arguments are refused with a non-zero exit and no result.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 4


def spec():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in bench[key]}
    return [w["name"] for w in bench["workloads"]], units("end_to_end"), units("per_layer")


def check_run(binary, workload, trace, expected):
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds",
                           str(SECONDS), "--trace", str(trace), "--scale", "tiny"])
    code, lines = run.run(binary, args)
    result = run.result_of(lines)
    label = f"{workload} trace={trace}"
    if code != 0 or result is None:
        return [f"{label}: exit {code}, result {'missing' if result is None else 'present'}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"{label}: missing {missing} extra {extra} wrong units {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def check_corrupted(binary, workload):
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds",
                           str(SECONDS), "--scale", "tiny", "--corrupt-reference"])
    code, lines = run.run(binary, args)
    result = run.result_of(lines)
    if code == 0 or result is None or result["correct"] is not False:
        return [f"{workload}: a corrupted reference was not caught (exit {code})"]
    return []


def check_refused(argv):
    done = subprocess.run([sys.executable, run.__file__, *argv],
                          capture_output=True, text=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"malformed arguments {argv} were accepted"]
    return []


def main():
    workloads, end_to_end, per_layer = spec()
    binary = run.build()
    if binary is None:
        print("selftest: build failed")
        return 1
    problems = []
    for workload in workloads:
        problems += check_run(binary, workload, 0, end_to_end)
        problems += check_run(binary, workload, 1, per_layer)
        problems += check_corrupted(binary, workload)
    for argv in (["--workload", "erp_audit", "--seed", "abc", "--seconds", "1"],
                 ["--workload", "erp_audit", "--seed", "1", "--seconds", "0"],
                 ["--workload", "erp_audit", "--seed", "-1", "--seconds", "1"],
                 ["--workload", "nope", "--seed", "1", "--seconds", "1"],
                 ["--workload", "erp_audit", "--seed", "1", "--seconds", "1",
                  "--trace", "2"]):
        problems += check_refused(argv)
    bad_binary = subprocess.run([binary, "--workload", "erp_audit", "--seed", "1x",
                                 "--seconds", "1", "--dir", "unused"],
                                capture_output=True, text=True)
    if bad_binary.returncode == 0 or bad_binary.stdout.strip():
        problems.append("the binary accepted --seed 1x")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
