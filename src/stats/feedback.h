#ifndef HDB_STATS_FEEDBACK_H_
#define HDB_STATS_FEEDBACK_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "stats/stats_registry.h"

namespace hdb::stats {

struct FeedbackOptions {
  /// Minimum rows observed before an aggregate is trusted.
  uint64_t min_rows = 16;
};

/// Gathers predicate outcomes during query execution and folds them into
/// the StatsRegistry at statement end (paper §3: "the server
/// automatically collects statistics as part of query execution").
///
/// Feedback comes from (almost) every predicate evaluation, so its cost is
/// kept off the per-row path — the paper's "overhead ... must be carefully
/// managed" constraint. The executor counts each conjunct's outcomes over
/// a whole batch and reports them with one Observe* call per conjunct per
/// batch: `seen` rows evaluated, `matched` of them true. Those calls only
/// add to counters in a small map; the histogram updates happen once per
/// (column, predicate) at Flush(). Totals are independent of the batch
/// size, so Flush() sees the same (seen, matched) at every batch cap.
class FeedbackCollector {
 public:
  using Options = FeedbackOptions;

  explicit FeedbackCollector(Options options = {}) : options_(options) {}

  // Per-batch observation hooks: `matched` of `seen` evaluations were
  // true (map upsert + two additions).
  void ObserveEquals(uint32_t table_oid, int col, const Value& operand,
                     uint64_t seen, uint64_t matched);
  void ObserveRange(uint32_t table_oid, int col,
                    const std::optional<Value>& lo,
                    const std::optional<Value>& hi, uint64_t seen,
                    uint64_t matched);
  void ObserveIsNull(uint32_t table_oid, int col, uint64_t seen,
                     uint64_t matched);
  void ObserveLike(uint32_t table_oid, int col, const std::string& pattern,
                   uint64_t seen, uint64_t matched);

  /// Observation totals of one (column, predicate) aggregate, for tests:
  /// {seen, matched} per pending aggregate, in the collector's key order.
  std::vector<std::pair<uint64_t, uint64_t>> PendingCounts() const;

  /// Applies every aggregate with >= min_rows observations to `registry`
  /// and clears the collector.
  void Flush(StatsRegistry* registry);

  size_t pending() const { return aggregates_.size(); }

 private:
  enum class Kind : uint8_t { kEquals, kRange, kIsNull, kLike };

  struct AggKey {
    uint32_t table_oid;
    int col;
    Kind kind;
    // Operand identity: hash codes for values, text for LIKE.
    double lo = 0, hi = 0;
    bool has_lo = false, has_hi = false;
    std::string text;

    bool operator<(const AggKey& o) const {
      if (table_oid != o.table_oid) return table_oid < o.table_oid;
      if (col != o.col) return col < o.col;
      if (kind != o.kind) return kind < o.kind;
      if (lo != o.lo) return lo < o.lo;
      if (hi != o.hi) return hi < o.hi;
      if (has_lo != o.has_lo) return has_lo < o.has_lo;
      if (has_hi != o.has_hi) return has_hi < o.has_hi;
      return text < o.text;
    }
  };

  struct Agg {
    uint64_t seen = 0;
    uint64_t matched = 0;
    // Retained typed operands for registry calls.
    std::optional<Value> lo_value;
    std::optional<Value> hi_value;
  };

  Options options_;
  std::map<AggKey, Agg> aggregates_;
};

}  // namespace hdb::stats

#endif  // HDB_STATS_FEEDBACK_H_
