#!/usr/bin/env python3
"""Compare two bench_smoke JSON files and fail on work regressions.

    bench_compare.py <old.json> <new.json>

Each file maps bench name -> rows_per_sec and may hold a "work" section
(see scripts/bench_smoke.sh, bench/exec_work.cc, bench/spill_scan.cc):

    "work": {"toolchain": "GNU 12.2.0",        # optional
             "statements_per_query": 3,         # optional
             "queries": {"exec_seqscan": {"allocs": 120618, ...}, ...}}

The gate is the work counts. They repeat exactly on any host, so the
slack is not for noise: it lets a change add a little incidental work
without a re-baseline. A count that rises by more than SLACK of its
baseline (at least MIN_SLACK) fails; a count that drops is printed and
passes (re-baseline the committed file to keep the gain). Allocation
counts ("allocs") depend on the C++ runtime: when the two files name
different toolchains they are printed, not compared.

The rows_per_sec numbers are wall clock, which varies by tens of percent
between runs and hosts, so they are printed as a trajectory and never
fail. A bench, query or count present in <old> but missing from <new>
fails: a silently dropped benchmark must not read as a pass.

Exit status: 0 = no regression, 1 = at least one regression or a missing
entry, 2 = bad usage/unreadable input.
"""

import argparse
import json
import math
import sys

TOOLCHAIN_DEPENDENT = {"allocs"}
SLACK = 0.01
MIN_SLACK = 8


def compare_rates(old, new, failures):
    rates = sorted(k for k, v in old.items() if not isinstance(v, dict))
    if not rates:
        return
    print(f"{'rows/s (trajectory, not gated)':40s} {'old':>14s} "
          f"{'new':>14s} {'ratio':>8s}")
    for name in rates:
        if name not in new:
            failures.append(f"{name}: missing")
            print(f"{name:40s} {old[name]:>14.1f} {'MISSING':>14s}")
            continue
        ratio = new[name] / old[name] if old[name] > 0 else float("inf")
        print(f"{name:40s} {old[name]:>14.1f} {new[name]:>14.1f} "
              f"{ratio:>8.3f}")
    for name in sorted(k for k, v in new.items()
                       if not isinstance(v, dict) and k not in old):
        print(f"{name:40s} {'(new)':>14s} {new[name]:>14.1f}")
    print()


def compare_work(old, new, failures):
    if "work" not in old:
        return
    if "work" not in new:
        failures.append("work: section missing")
        print("work: MISSING")
        return
    old_w, new_w = old["work"], new["work"]
    old_tc, new_tc = old_w.get("toolchain"), new_w.get("toolchain")
    same_toolchain = old_tc == new_tc
    per_stmt = old_w.get("statements_per_query", 1)
    if new_w.get("statements_per_query", 1) != per_stmt:
        failures.append("work: statements_per_query changed from "
                        f"{per_stmt}; re-baseline the committed file")
        print("work: statements_per_query differs, counts not comparable")
        return
    print(f"{'work (gated)':40s} {'old':>14s} {'new':>14s} {'change':>10s}")
    for query in sorted(old_w["queries"]):
        counts = old_w["queries"][query]
        got = new_w["queries"].get(query)
        if got is None:
            failures.append(f"{query}: missing")
            print(f"{query:40s} {'':>14s} {'MISSING':>14s}")
            continue
        for count in sorted(counts):
            name = f"{query}.{count}"
            was = counts[count]
            if count not in got:
                failures.append(f"{name}: missing")
                print(f"{name:40s} {was:>14d} {'MISSING':>14s}")
                continue
            now = got[count]
            delta = now - was
            note = ""
            if count in TOOLCHAIN_DEPENDENT and not same_toolchain:
                note = f"  not compared: baseline toolchain is {old_tc}"
            elif delta > max(math.ceil(was * SLACK), MIN_SLACK):
                note = "  REGRESSED"
                failures.append(
                    f"{name}: {was} -> {now} (+{delta}, "
                    f"+{delta / per_stmt:.0f} per statement; slack "
                    f"{SLACK * 100:g}%, at least {MIN_SLACK})")
            elif delta < 0:
                note = "  dropped: re-baseline to keep the gain"
            print(f"{name:40s} {was:>14d} {now:>14d} {delta:>+10d}{note}")
    for query in sorted(set(new_w["queries"]) - set(old_w["queries"])):
        print(f"{query:40s} {'(new)':>14s} "
              f"{json.dumps(new_w['queries'][query])}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("old", help="baseline JSON")
    parser.add_argument("new", help="candidate JSON")
    args = parser.parse_args()

    try:
        with open(args.old) as f:
            old = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    failures = []
    compare_rates(old, new, failures)
    compare_work(old, new, failures)

    if failures:
        print(f"bench_compare: {len(failures)} regression(s) against "
              f"{args.old}:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"bench_compare: no work regressions against {args.old}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
