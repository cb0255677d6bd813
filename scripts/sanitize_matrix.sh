#!/usr/bin/env bash
# One-stop correctness matrix (ISSUE 4): static lints, clang-tidy, and the
# full ctest suite under each sanitizer, with a per-stage summary.
#
#   sanitize_matrix.sh [repo-root] [--fast]   (root defaults to the repo
#                                              containing this script)
#
# Stages:
#   lint:locks      scripts/check_locks.sh (no naked std::mutex in src/)
#   lint:metrics    scripts/check_metrics.sh (metric-name hygiene)
#   build:werror    RelWithDebInfo, HDB_WERROR=ON, HDB_LOCK_RANK=ON,
#                   full ctest (this is also the tidy compile database).
#                   This is the one stage where BenchSmoke.compare runs
#                   for real (optimized, unsanitized): the work counts of
#                   the BM_Exec* queries and spill workloads are gated
#                   against the committed BENCH_exec.json and
#                   BENCH_spill.json; their rows/s are printed as a
#                   trajectory, not gated (DESIGN.md §9).
#   build:tsa       Clang Thread Safety Analysis: the whole tree compiled
#                   by clang++ with -DHDB_THREAD_SAFETY=ON (-Wthread-safety
#                   -Werror=thread-safety), plus the negative-compile
#                   harness (scripts/check_thread_safety.sh) proving the
#                   annotations reject seeded violations, plus — being the
#                   matrix's one Clang tree — the coverage-guided libFuzzer
#                   run over the wire codec (-DHDB_LIBFUZZER=ON, ctest -R
#                   FuzzWire). Skipped, not failed, when no clang++ is
#                   installed — neither the analysis nor libFuzzer exists
#                   under GCC (FuzzWire.replay in the main suite still
#                   replays the corpus there).
#   tidy            clang-tidy with the repo .clang-tidy over src/**/*.cc
#                   (skipped, not failed, when clang-tidy is absent)
#   tsan            full ctest under ThreadSanitizer (a superset of
#                   check_metrics.sh --tsan, which builds only the
#                   observability/durability test subset). The batch
#                   executor's shared scan path is covered here by
#                   BatchParity.ConcurrentScansAgree; BenchSmoke.compare
#                   self-skips under every sanitizer (exit 77).
#   asan            full ctest under AddressSanitizer
#   ubsan           full ctest under UndefinedBehaviorSanitizer
#   tsan:net        ctest -L net re-run in the TSan tree, named in the
#                   summary (the epoll/worker-pool subsystem, §12)
#   tsan:parallel   ctest -L parallel likewise (exchange worker crews,
#                   morsel dispenser, shared memory account, §13)
#
# --fast keeps only lint + build:werror + tidy (the cheap static stages).
# Build trees live in <root>/build-matrix-*; they are reused across runs.
set -u

default_root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ "${1:-}" == "--fast" ]]; then
  root="$default_root"
  mode="--fast"
else
  root="${1:-$default_root}"
  mode="${2:-}"
fi
jobs="$(nproc)"

declare -a stage_names=()
declare -a stage_results=()

note_stage() {
  stage_names+=("$1")
  stage_results+=("$2")
}

run_ctest_build() {
  # run_ctest_build <build-dir> <extra cmake args...>
  local build="$1"
  shift
  cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DHDB_LOCK_RANK=ON "$@" &&
    cmake --build "$build" -j "$jobs" &&
    (cd "$build" && ctest --output-on-failure -j "$jobs")
}

# ---- lint stages ----------------------------------------------------------
if "$root/scripts/check_locks.sh" "$root"; then
  note_stage "lint:locks" "PASS"
else
  note_stage "lint:locks" "FAIL"
fi

if "$root/scripts/check_metrics.sh" "$root"; then
  note_stage "lint:metrics" "PASS"
else
  note_stage "lint:metrics" "FAIL"
fi

# ---- warning-clean build + full suite (also the tidy compile DB) ----------
werror_build="$root/build-matrix-werror"
if run_ctest_build "$werror_build" -DHDB_WERROR=ON; then
  note_stage "build:werror" "PASS"
else
  note_stage "build:werror" "FAIL"
fi

# ---- Clang Thread Safety Analysis (compile-time lock discipline) ----------
find_clangxx() {
  local c
  for c in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
           clang++-17 clang++-16 clang++-15 clang++-14; do
    if command -v "$c" > /dev/null 2>&1; then
      echo "$c"
      return 0
    fi
  done
  return 1
}

if clangxx="$(find_clangxx)"; then
  tsa_build="$root/build-matrix-tsa"
  # Compile only (the suite already runs in build:werror): this stage's
  # products are the clean -Werror=thread-safety build itself, the
  # harness run that proves the flags reject seeded violations, and — as
  # this is the one Clang build tree in the matrix — the coverage-guided
  # libFuzzer run over the wire codec (FuzzWire.*).
  if cmake -B "$tsa_build" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
         -DCMAKE_CXX_COMPILER="$clangxx" -DHDB_LOCK_RANK=ON \
         -DHDB_THREAD_SAFETY=ON -DHDB_LIBFUZZER=ON &&
      cmake --build "$tsa_build" -j "$jobs" &&
      "$root/scripts/check_thread_safety.sh" "$root" "$clangxx" &&
      (cd "$tsa_build" && ctest --output-on-failure -R '^FuzzWire'); then
    note_stage "build:tsa" "PASS"
  else
    note_stage "build:tsa" "FAIL"
  fi
else
  echo "sanitize_matrix: no clang++ installed, skipping build:tsa stage" \
       "(Thread Safety Analysis does not exist under GCC)"
  note_stage "build:tsa" "SKIP"
fi

# ---- clang-tidy -----------------------------------------------------------
if command -v clang-tidy > /dev/null 2>&1; then
  if [[ -f "$werror_build/compile_commands.json" ]] &&
      find "$root/src" -name '*.cc' -print0 |
        xargs -0 -n 8 -P "$jobs" clang-tidy -p "$werror_build" --quiet; then
    note_stage "tidy" "PASS"
  else
    note_stage "tidy" "FAIL"
  fi
else
  echo "sanitize_matrix: clang-tidy not installed, skipping tidy stage"
  note_stage "tidy" "SKIP"
fi

# ---- sanitizer matrix -----------------------------------------------------
if [[ "$mode" != "--fast" ]]; then
  for san in thread address undefined; do
    if run_ctest_build "$root/build-matrix-$san" -DHDB_SANITIZE="$san"; then
      note_stage "$san" "PASS"
    else
      note_stage "$san" "FAIL"
    fi
  done

  # The network front end is the most thread-shaped subsystem (epoll loop
  # + worker pool + client threads, DESIGN.md §12): run its ctest label as
  # its own TSan stage so a race there is named in the summary instead of
  # drowning in the full-suite stage above.
  if (cd "$root/build-matrix-thread" && ctest --output-on-failure -L net); then
    note_stage "tsan:net" "PASS"
  else
    note_stage "tsan:net" "FAIL"
  fi

  # The intra-query parallel executor (DESIGN.md §13) is the other
  # deliberately thread-shaped subsystem: exchange worker crews racing on
  # the morsel dispenser, packet queues, and one shared TaskMemoryContext.
  # Same reasoning as tsan:net — name it in the summary.
  if (cd "$root/build-matrix-thread" &&
      ctest --output-on-failure -L parallel); then
    note_stage "tsan:parallel" "PASS"
  else
    note_stage "tsan:parallel" "FAIL"
  fi
fi

# ---- summary --------------------------------------------------------------
echo
echo "sanitize_matrix summary:"
fail=0
for i in "${!stage_names[@]}"; do
  printf '  %-14s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
  if [[ "${stage_results[$i]}" == "FAIL" ]]; then
    fail=1
  fi
done
exit "$fail"
