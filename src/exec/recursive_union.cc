#include "exec/recursive_union.h"

#include <algorithm>
#include <cmath>

#include "exec/hash_table.h"
#include "exec/spill.h"

namespace hdb::exec {

RecursiveUnion::Strategy RecursiveUnion::Choose(size_t candidates,
                                                size_t history) const {
  if (options_.force.has_value()) return *options_.force;
  // Hash probing costs ~1 unit per candidate; sort-merge pays the sort on
  // the batch but streams the history without hashing overhead. With a
  // cheap per-probe constant the hash wins unless the batch dwarfs the
  // accumulated history (early, explosive iterations).
  const double hash_cost = static_cast<double>(candidates) * 1.0;
  const double sort_cost =
      candidates == 0
          ? 0
          : static_cast<double>(candidates) *
                    std::log2(static_cast<double>(candidates) + 2) * 0.25 +
                static_cast<double>(history) * 0.05;
  return sort_cost < hash_cost ? Strategy::kSortMerge : Strategy::kHashProbe;
}

Result<std::vector<RecursiveUnion::Row>> RecursiveUnion::Run(
    const std::vector<Row>& seed, const StepFn& step) {
  iterations_.clear();
  std::vector<Row> result;
  KeyTable seen;                             // hash-probe shared work
  std::vector<std::string> sorted_history;   // sort-merge shared work
  bool sorted_dirty = false;
  // Adds `row` to `seen` unless present; true when it was new.
  auto remember = [&seen](const Row& row) {
    auto get = [&row](size_t i) -> const Value& { return row[i]; };
    const uint64_t h = KeyHash(row.size(), get);
    if (seen.size() == 0) seen.Reset(row.size());
    if (seen.Find(h, get) != FlatHashTable::kAbsent) return false;
    seen.Insert(h, get);
    return true;
  };

  std::vector<Row> delta;
  // Seed iteration deduplicates too (UNION semantics).
  std::vector<Row> candidates = seed;
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    IterationInfo info;
    info.candidates = candidates.size();
    info.used = Choose(candidates.size(), result.size());

    delta.clear();
    if (info.used == Strategy::kHashProbe) {
      for (Row& row : candidates) {
        if (remember(row)) {
          sorted_dirty = true;
          delta.push_back(std::move(row));
        }
      }
    } else {
      // Sort-merge: sort candidate keys, merge against sorted history.
      if (sorted_dirty) {
        sorted_history.resize(seen.size());
        for (uint32_t e = 0; e < seen.size(); ++e) {
          sorted_history[e].clear();
          AppendEncodedValues(seen.key(e), seen.arity(), &sorted_history[e]);
        }
        std::sort(sorted_history.begin(), sorted_history.end());
        sorted_dirty = false;
      }
      std::vector<std::pair<std::string, size_t>> keyed;
      keyed.reserve(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        keyed.emplace_back(EncodeValues(candidates[i]), i);
      }
      std::sort(keyed.begin(), keyed.end());
      std::string prev;
      bool has_prev = false;
      for (const auto& [key, idx] : keyed) {
        if (has_prev && key == prev) continue;
        prev = key;
        has_prev = true;
        const bool in_history = std::binary_search(
            sorted_history.begin(), sorted_history.end(), key);
        if (!in_history) {
          remember(candidates[idx]);
          sorted_dirty = true;
          delta.push_back(std::move(candidates[idx]));
        }
      }
    }

    info.new_rows = delta.size();
    iterations_.push_back(info);
    if (delta.empty()) break;
    for (const Row& r : delta) result.push_back(r);
    candidates = step(delta);
    if (candidates.empty()) {
      iterations_.push_back(IterationInfo{0, 0, info.used});
      break;
    }
  }
  return result;
}

}  // namespace hdb::exec
