#!/usr/bin/env bash
# Perf-regression smoke (DESIGN.md §9). Emits <out.json> holding
#   - bench -> rows_per_sec for the executor microbenchmarks
#     (micro_operators BM_Exec*) and the single-thread rows of the
#     concurrent_sessions bench: wall clock, a trajectory;
#   - a "work" section from bench/exec_work: heap allocations, page pins
#     and execution batches of each BM_Exec* query, exact on any host.
# Then runs bench/spill_scan (rates plus spill work, into
# BENCH_spill_current.json next to <out.json>) and bench/parallel_exec
# (mechanism invariants). Every workload uses fixed in-code seeds, so a
# shifted count means an executor change, not a data change.
#
#   bench_smoke.sh <build-dir> <out.json>
#   bench_smoke.sh --compare <baseline.json> [--compare-spill <spill.json>] \
#                  [--compare-parallel <parallel.json>] --build-type <type> \
#                  --sanitize <sanitize> <build-dir> <out.json>
#   bench_smoke.sh --trace-overhead [--tolerance T] <build-dir> <out.json>
#
# The --compare form is the ctest entry point (BenchSmoke.compare): it
# diffs the fresh files against the committed baselines with
# scripts/bench_compare.py, which fails when a work count rises past its
# slack and prints the rates next to the committed ones without gating
# them (wall clock varies 30-40% between runs and hosts). The counts are
# taken from optimized, unsanitized builds, so the test SKIPS (exit 77)
# under -DHDB_SANITIZE=* or a non-Release/RelWithDebInfo build type. Host
# load changes none of them, so --compare also runs on a busy host.
#
# The --trace-overhead form guards the statement-tracing budget
# (DESIGN.md §11, target <= 2%): it configures a sibling build with
# -DHDB_TELEMETRY=OFF, runs the BM_Exec* microbenchmarks in both trees
# interleaved over 5 rounds, takes per bench the median of the 5
# per-round telemetry-off / tracing-on CPU-rate ratios (printing their
# min and max), and fails when the geometric mean of those medians shows
# a slowdown above the tolerance (default 0.03: the 2% budget plus
# residual measurement noise). Same exit-77 guards as --compare, plus one
# for a busy host, where co-tenants blur the CPU-time ratio. Invoke via
# `cmake --build <build> --target trace_overhead`.
set -eu

baseline=""
spill_baseline=""
parallel_baseline=""
build_type="RelWithDebInfo"
sanitize=""
trace_overhead=0
tolerance="0.03"
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --compare)       baseline="$2"; shift 2 ;;
    --compare=*)     baseline="${1#*=}"; shift ;;
    --compare-spill)   spill_baseline="$2"; shift 2 ;;
    --compare-spill=*) spill_baseline="${1#*=}"; shift ;;
    --compare-parallel)   parallel_baseline="$2"; shift 2 ;;
    --compare-parallel=*) parallel_baseline="${1#*=}"; shift ;;
    --build-type)    build_type="$2"; shift 2 ;;
    --build-type=*)  build_type="${1#*=}"; shift ;;
    --sanitize)      sanitize="$2"; shift 2 ;;
    --sanitize=*)    sanitize="${1#*=}"; shift ;;
    --trace-overhead) trace_overhead=1; shift ;;
    --tolerance)     tolerance="$2"; shift 2 ;;
    --tolerance=*)   tolerance="${1#*=}"; shift ;;
    *) echo "bench_smoke: unknown flag $1" >&2; exit 2 ;;
  esac
done

build="${1:?usage: bench_smoke.sh [--compare baseline.json] <build-dir> <out.json>}"
out="${2:?usage: bench_smoke.sh [--compare baseline.json] <build-dir> <out.json>}"
here="$(cd "$(dirname "$0")" && pwd)"

if [[ -n "$baseline" || "$trace_overhead" == 1 ]]; then
  if [[ -n "$sanitize" ]]; then
    echo "bench_smoke: sanitizer build ($sanitize), skipping perf compare"
    exit 77
  fi
  case "$build_type" in
    Release | RelWithDebInfo) ;;
    *)
      echo "bench_smoke: build type '$build_type' is not optimized," \
           "skipping perf compare"
      exit 77
      ;;
  esac
fi

if [[ "$trace_overhead" == 1 ]]; then
  # A tracing overhead of a few percent is lost when the host is already
  # busy (shared CI runners, the 1-minute load ahead of the core count).
  # Skip rather than flake.
  cores=$(nproc)
  load=$(awk '{printf "%d", $1 * 10}' /proc/loadavg 2>/dev/null || echo 0)
  if (( load > cores * 10 )); then
    echo "bench_smoke: host load $(awk '{print $1}' /proc/loadavg) on" \
         "$cores core(s), skipping trace-overhead check"
    exit 77
  fi
  # Tracing-on numbers come from the regular build; the baseline comes
  # from a sibling tree compiled with every obs/ mutation compiled out.
  notrace="$build-notrace"
  root="$(cd "$here/.." && pwd)"
  cmake -B "$notrace" -S "$root" -DHDB_TELEMETRY=OFF \
        -DCMAKE_BUILD_TYPE="$build_type" > /dev/null
  cmake --build "$notrace" -j "$(nproc)" --target micro_operators \
        > /dev/null
  cmake --build "$build" -j "$(nproc)" --target micro_operators > /dev/null

  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  # Measurement discipline: two sequential blocks (all-on, then all-off)
  # would let host drift — co-tenant load, frequency scaling — masquerade
  # as a tracing delta, so the two binaries run INTERLEAVED, 5 rounds
  # each, and each round's on and off runs form a pair. The comparison
  # below takes, per bench, the median of the 5 paired ratios: a host
  # slowdown that spans a round slows both of its runs, so pairing
  # cancels it, and the median drops the odd pair one side of which was
  # hit alone. (Each side's best-of-5, compared unpaired, let one lucky
  # run on either side swing a bench by 10% or more either way.) Rates
  # are per CPU second: tracing cost is CPU work, and CPU time is immune
  # to the scheduler-steal noise that dominates wall clock on shared
  # hosts.
  run_bm() {
    "$1/bench/micro_operators" --benchmark_filter='BM_Exec' \
        --benchmark_min_time=0.5 \
        --benchmark_format=json > "$2"
  }
  for round in 1 2 3 4 5; do
    run_bm "$build" "$tmpdir/on.$round.json"
    run_bm "$notrace" "$tmpdir/off.$round.json"
  done

  python3 - "$tmpdir" "$out" "$tolerance" <<'EOF'
import glob
import json
import math
import sys

tmpdir, out_path, tol = sys.argv[1:4]
tol = float(tol)

def rates(path):
    # Rows per CPU second per bench: cpu_time is per-iteration in
    # time_unit (ns by default); scale by items/iteration derived from the
    # real-time rate.
    out = {}
    with open(path) as f:
        for b in json.load(f)["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"].split("/")[0]
            items_per_iter = b["items_per_second"] * b["real_time"] * 1e-9
            out[name] = items_per_iter / (b["cpu_time"] * 1e-9)
    return out

# ratio > 1 means the tracing-on tree was slower in that pair.
ratios = {}
for on_path in sorted(glob.glob(f"{tmpdir}/on.*.json")):
    on = rates(on_path)
    off = rates(on_path.replace("/on.", "/off."))
    for name in set(on) & set(off):
        ratios.setdefault(name, []).append(off[name] / on[name])
common = sorted(ratios)
if not common:
    sys.exit("bench_smoke: no common BM_Exec benchmarks between builds")

def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2

report = {}
log_sum = 0.0
for name in common:
    m = median(ratios[name])
    log_sum += math.log(m)
    report[name] = {"overhead": round(m - 1.0, 4),
                    "overhead_min": round(min(ratios[name]) - 1.0, 4),
                    "overhead_max": round(max(ratios[name]) - 1.0, 4),
                    "rounds": len(ratios[name])}
geomean = math.exp(log_sum / len(common)) - 1.0
report["geomean_overhead"] = round(geomean, 4)

with open(out_path, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")
for name in common:
    r = report[name]
    print(f"  {name:24s} overhead={r['overhead']*100:+.2f}% "
          f"(paired rounds: min {r['overhead_min']*100:+.2f}%, "
          f"max {r['overhead_max']*100:+.2f}%)")
print(f"bench_smoke: tracing geomean overhead {geomean*100:+.2f}% "
      f"(tolerance {tol*100:.1f}%)")
if geomean > tol:
    sys.exit(f"bench_smoke: statement tracing costs {geomean*100:.2f}% "
             f"> {tol*100:.1f}% budget")
EOF
  exit 0
fi

micro="$build/bench/micro_operators"
work="$build/bench/exec_work"
sessions="$build/bench/concurrent_sessions"
spill="$build/bench/spill_scan"
parallel="$build/bench/parallel_exec"
for bin in "$micro" "$work" "$sessions" "$spill" "$parallel"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_smoke: missing benchmark binary $bin" >&2
    exit 1
  fi
done

micro_json="$(mktemp)"
work_json="$(mktemp)"
sessions_txt="$(mktemp)"
trap 'rm -f "$micro_json" "$work_json" "$sessions_txt"' EXIT

# Deterministic work counts of the same BM_Exec* statements; exec_work
# fails by itself when two fresh databases disagree.
"$work" "$work_json"

# BM_Exec* report items_per_second = base-table rows per wall second.
"$micro" --benchmark_filter='BM_Exec' --benchmark_min_time=0.5 \
         --benchmark_format=json > "$micro_json"

# The 1-thread rows are the stable ones (no scheduler/core-count noise);
# stmt_per_s there is 1 / (think time + statement latency).
"$sessions" > "$sessions_txt"

python3 - "$micro_json" "$sessions_txt" "$work_json" "$out" <<'EOF'
import json
import re
import sys

micro_json, sessions_txt, work_json, out_path = sys.argv[1:5]

result = {}
with open(micro_json) as f:
    for b in json.load(f)["benchmarks"]:
        name = b["name"]
        key = "exec_" + re.sub(r"^BM_Exec", "", name).lower()
        result[key] = round(b["items_per_second"], 1)

# concurrent_sessions prints one table per workload; take the threads=1
# row of each (columns: threads stmts aborted gate_timeouts stmt_per_s ...).
section = None
with open(sessions_txt) as f:
    for line in f:
        m = re.match(r"=== (\S+)", line.strip())
        if m:
            section = m.group(1).replace("-", "_")
            continue
        cols = line.split()
        if section and len(cols) >= 5 and cols[0] == "1" and cols[0].isdigit():
            result[f"sessions_{section}_1t"] = float(cols[4])
            section = None

expected = {"exec_seqscan", "exec_filter", "exec_aggregate", "exec_hashjoin"}
missing = expected - result.keys()
if missing:
    sys.exit(f"bench_smoke: missing benchmarks: {sorted(missing)}")
for k in sorted(result):
    print(f"  {k:32s} {result[k]:>14.1f} /s")

with open(work_json) as f:
    result["work"] = json.load(f)
with open(out_path, "w") as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"bench_smoke: wrote {out_path}")
EOF

if [[ -n "$baseline" ]]; then
  python3 "$here/bench_compare.py" "$baseline" "$out"
fi

# Larger-than-memory execution (DESIGN.md §10): spill_scan verifies its
# own results against an unconstrained run and emits its JSON directly,
# rates plus the spill work that bench_compare.py gates.
spill_out="$(dirname "$out")/BENCH_spill_current.json"
"$spill" "$spill_out"
if [[ -n "$spill_baseline" ]]; then
  python3 "$here/bench_compare.py" "$spill_baseline" "$spill_out"
fi

# Intra-query parallelism (DESIGN.md §13, EXPERIMENTS C5): parallel_exec
# sweeps parallel.max_workers over the same join + group-by queries and
# emits BENCH_parallel.json. Wall-clock speedup is bounded by the host's
# core count, so the gate checks MECHANISM invariants — identical results
# at every width, zero pipelines in the serial run, crews and morsels
# actually dispatched at every parallel width — never times. With
# --compare-parallel the committed baseline's row counts must also match
# the fresh run (the workload is seeded, so a drift means an executor
# change, not a data change).
parallel_out="$(dirname "$out")/BENCH_parallel_current.json"
"$parallel" "$parallel_out"
python3 - "$parallel_out" "${parallel_baseline:-}" <<'EOF'
import json
import sys

cur_path, base_path = sys.argv[1], sys.argv[2]
fail = []

def check(path, doc):
    for key in ("hash_join", "hash_group_by"):
        runs = doc.get(key, [])
        if [r["max_workers"] for r in runs] != [1, 2, 4, 8]:
            fail.append(f"{path}: {key}: expected widths 1/2/4/8")
            continue
        for r in runs:
            w = r["max_workers"]
            if not r.get("result_identical"):
                fail.append(f"{path}: {key}@{w}: results differ from serial")
            if w == 1 and r["pipelines"] != 0:
                fail.append(f"{path}: {key}@1: serial run built a pipeline")
            if w > 1 and (r["pipelines"] < 1 or r["workers_started"] < 2
                          or r["morsels"] < 1):
                fail.append(f"{path}: {key}@{w}: no parallel execution "
                            f"(pipelines={r['pipelines']}, "
                            f"started={r['workers_started']}, "
                            f"morsels={r['morsels']})")
    return {k: [r["rows"] for r in doc.get(k, [])]
            for k in ("hash_join", "hash_group_by")}

with open(cur_path) as f:
    cur_rows = check(cur_path, json.load(f))
if base_path:
    with open(base_path) as f:
        base_rows = check(base_path, json.load(f))
    if base_rows != cur_rows:
        fail.append(f"row counts drifted: baseline {base_rows} "
                    f"vs current {cur_rows}")
if fail:
    sys.exit("bench_smoke: parallel mechanism check failed:\n  "
             + "\n  ".join(fail))
print("bench_smoke: parallel mechanism invariants hold"
      + (" (baseline row counts match)" if base_path else ""))
EOF
