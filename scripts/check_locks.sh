#!/usr/bin/env bash
# Latch-discipline lint (wired into ctest as LockDiscipline.check).
#
#   check_locks.sh <repo-root>
#
# Every latch in the tree — src/ AND tests/bench/examples, which run
# against the same engine and feed the same rank checker — must be
# declared through the ranked wrappers in src/common/lock_rank.h so it
# carries an explicit LockRank, the runtime hierarchy check sees it, and
# the Clang Thread Safety Analysis capability attributes apply. This lint
# fails on:
#
#   * naked std::mutex / std::shared_mutex / std::recursive_mutex
#     declarations (a rank-less latch is invisible to both checkers), and
#   * std:: guard types (std::lock_guard / std::unique_lock /
#     std::shared_lock / std::scoped_lock) — they would capture the
#     acquisition site inside the STL header instead of the caller, and
#     they carry no SCOPED_CAPABILITY annotation, so the engine uses
#     LockGuard / UniqueLock / SharedLock et al., and
#   * plain std::condition_variable — it only accepts std::mutex, so its
#     presence means a naked mutex is nearby; waits over ranked mutexes
#     use std::condition_variable_any, and
#   * raw pthread mutex/rwlock/cond primitives — the C-level loophole
#     around all of the above.
#
# Only src/common/lock_rank.* (the wrappers' own implementation) may name
# the raw primitives. Comments and string literals are stripped before
# matching so prose about std::mutex stays legal.
#
# It also fails when the rank table in DESIGN.md §8.1 drifts from the
# LockRank enum in src/common/lock_rank.h: every rank value needs a table
# row with that number, and every row needs a rank.
set -u

root="${1:?usage: check_locks.sh <repo-root>}"

if [[ ! -d "$root/src" ]]; then
  echo "check_locks: missing $root/src" >&2
  exit 1
fi

pattern='std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable)\b|pthread_(mutex|rwlock|cond)_t\b'

fail=0
checked=0
scan_dirs=("$root/src")
for d in tests bench examples; do
  if [[ -d "$root/$d" ]]; then
    scan_dirs+=("$root/$d")
  fi
done

while IFS= read -r -d '' file; do
  case "$file" in
    "$root"/src/common/lock_rank.h | "$root"/src/common/lock_rank.cc)
      continue ;;
  esac
  checked=$((checked + 1))
  # Strip // and /* */ comments and string literals, then grep. The sed is
  # line-local, which is enough: the forbidden tokens never span lines.
  hits=$(sed -e 's://.*$::' -e 's:/\*.*\*/::g' -e 's:"[^"]*"::g' "$file" |
         grep -nE "$pattern" |
         sed "s|^|$file:|" || true)
  if [[ -n "$hits" ]]; then
    echo "check_locks: naked synchronization primitive (declare it" \
         "through common/lock_rank.h so it carries a LockRank and the" \
         "thread-safety capability attributes):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
  fi
done < <(find "${scan_dirs[@]}" \( -name '*.h' -o -name '*.cc' \) -print0 |
         sort -z)

code_ranks=$(sed -n 's/^ *k[A-Za-z0-9]* = \([0-9]*\),.*/\1/p' \
               "$root/src/common/lock_rank.h" | sort)
doc_ranks=$(awk -F'|' '/^### 8\.1 /{on=1; next} /^##/{on=0}
                      on && $2 ~ /^ *[0-9]+ *$/ {gsub(/ /, "", $2); print $2}' \
              "$root/DESIGN.md" | sort)
if [[ -z "$code_ranks" || "$code_ranks" != "$doc_ranks" ]]; then
  echo "check_locks: DESIGN.md §8.1 rank table and the LockRank enum in" \
       "src/common/lock_rank.h disagree:" >&2
  comm -3 <(echo "$code_ranks") <(echo "$doc_ranks") |
    sed -e 's/^\t/  table row with no LockRank: /' \
        -e 's/^\([0-9]\)/  LockRank with no table row: \1/' >&2
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "check_locks: $checked files, every latch goes through the ranked" \
     "wrappers (std::condition_variable_any excepted by design);" \
     "$(echo "$code_ranks" | wc -l) ranks match DESIGN.md §8.1"
