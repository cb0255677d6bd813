#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oltp_wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

The first form configures and builds perfbench/ (the engine is compiled
from src/) under $CARGO_TARGET_DIR/perfbench, default .bench_build/, then
runs one workload. The last line of standard output is the result JSON.
--selfcheck runs every workload briefly, checks that each metric named in
BENCHMARK.json is printed with its unit, and that a deliberately wrong
expected row is counted as a failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

# Seeds: claims are made on DEFAULT_SEED and re-checked on HELD_OUT_SEED,
# which is not used while a change is being written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

WORKLOADS = ("oltp_wire", "analytic", "analytic_parallel")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/; "
            "run from a full checkout")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if rc != 0:
            log("build step failed (%d): %s" % (rc, " ".join(cmd)))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, args, capture):
    out_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-out")
    cmd = [binary] + args + ["--out-dir", out_dir]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark timed out: " + " ".join(cmd))
        return 124, ""
    return p.returncode, p.stdout or ""


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selfcheck(binary, seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check_metrics(where, result, wanted):
        if result is None:
            problems.append(where + ": no result line")
            return
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(where + ": wrong result keys %s" % sorted(result))
            return
        if not result["correct"] or result["failed"] != 0:
            problems.append(where + ": run reported failures")
        if result["attempted"] < 1:
            problems.append(where + ": nothing attempted")
        got = result["metrics"]
        names = [m["name"] for m in wanted]
        if sorted(got) != sorted(names):
            problems.append(where + ": metrics differ: missing %s, extra %s" % (
                sorted(set(names) - set(got)), sorted(set(got) - set(names))))
        for m in wanted:
            v = got.get(m["name"])
            if v is None:
                continue
            if v.get("unit") != m["unit"]:
                problems.append("%s: %s unit %r, want %r" % (
                    where, m["name"], v.get("unit"), m["unit"]))
            if not isinstance(v.get("value"), (int, float)) or \
                    not math.isfinite(v["value"]):
                problems.append("%s: %s value %r" % (where, m["name"], v.get("value")))

    # Every workload the binary runs, including any not listed in
    # BENCHMARK.json; the metric sets are the listed ones.
    for name in WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            where = "%s trace=%s" % (name, trace)
            log("selfcheck " + where)
            rc, out = run_binary(binary, ["--workload", name, "--seed", str(seed),
                                          "--seconds", "2", "--trace", trace], True)
            if rc != 0:
                problems.append("%s: exit %d" % (where, rc))
            check_metrics(where, last_json(out), wanted)
            if trace == "0":
                for m in spec["end_to_end"]:
                    v = (last_json(out) or {}).get("metrics", {}).get(m["name"], {})
                    if v.get("value") == 0:
                        problems.append("%s: %s is 0" % (where, m["name"]))
        where = name + " inject-wrong-row"
        log("selfcheck " + where)
        rc, out = run_binary(binary, ["--workload", name, "--seed", str(seed),
                                      "--seconds", "1", "--trace", "0",
                                      "--inject-wrong-row"], True)
        result = last_json(out)
        if rc == 0 or result is None or result.get("correct") or \
                result.get("failed", 0) < 1:
            problems.append(where + ": the wrong row was not counted as a failure")
    for p in problems:
        print("selfcheck: " + p)
    print("selfcheck: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--inject-wrong-row", action="store_true",
                    help="corrupt one expected row; the run must fail")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selfcheck:
        return selfcheck(binary, args.seed)
    extra = ["--inject-wrong-row"] if args.inject_wrong_row else []
    rc, _ = run_binary(binary, ["--workload", args.workload,
                                "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", args.trace] + extra, False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
