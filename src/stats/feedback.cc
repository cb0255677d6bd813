#include "stats/feedback.h"

#include "common/ophash.h"

namespace hdb::stats {

void FeedbackCollector::ObserveEquals(uint32_t table_oid, int col,
                                      const Value& operand, uint64_t seen,
                                      uint64_t matched) {
  AggKey key;
  key.table_oid = table_oid;
  key.col = col;
  key.kind = Kind::kEquals;
  key.lo = OrderPreservingHash(operand);
  key.has_lo = true;
  if (operand.type() == TypeId::kVarchar && !operand.is_null()) {
    key.text = operand.AsString();
  }
  Agg& a = aggregates_[key];
  if (a.seen == 0) a.lo_value = operand;
  a.seen += seen;
  a.matched += matched;
}

void FeedbackCollector::ObserveRange(uint32_t table_oid, int col,
                                     const std::optional<Value>& lo,
                                     const std::optional<Value>& hi,
                                     uint64_t seen, uint64_t matched) {
  AggKey key;
  key.table_oid = table_oid;
  key.col = col;
  key.kind = Kind::kRange;
  if (lo.has_value()) {
    key.lo = OrderPreservingHash(*lo);
    key.has_lo = true;
  }
  if (hi.has_value()) {
    key.hi = OrderPreservingHash(*hi);
    key.has_hi = true;
  }
  Agg& a = aggregates_[key];
  if (a.seen == 0) {
    a.lo_value = lo;
    a.hi_value = hi;
  }
  a.seen += seen;
  a.matched += matched;
}

void FeedbackCollector::ObserveIsNull(uint32_t table_oid, int col,
                                      uint64_t seen, uint64_t matched) {
  AggKey key;
  key.table_oid = table_oid;
  key.col = col;
  key.kind = Kind::kIsNull;
  Agg& a = aggregates_[key];
  a.seen += seen;
  a.matched += matched;
}

void FeedbackCollector::ObserveLike(uint32_t table_oid, int col,
                                    const std::string& pattern,
                                    uint64_t seen, uint64_t matched) {
  AggKey key;
  key.table_oid = table_oid;
  key.col = col;
  key.kind = Kind::kLike;
  key.text = pattern;
  Agg& a = aggregates_[key];
  a.seen += seen;
  a.matched += matched;
}

std::vector<std::pair<uint64_t, uint64_t>> FeedbackCollector::PendingCounts()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const auto& [key, agg] : aggregates_) {
    out.emplace_back(agg.seen, agg.matched);
  }
  return out;
}

void FeedbackCollector::Flush(StatsRegistry* registry) {
  for (const auto& [key, agg] : aggregates_) {
    if (agg.seen < options_.min_rows) continue;
    const double observed =
        static_cast<double>(agg.matched) / static_cast<double>(agg.seen);
    switch (key.kind) {
      case Kind::kEquals:
        if (agg.lo_value.has_value()) {
          registry->FeedbackEquals(key.table_oid, key.col, *agg.lo_value,
                                   observed);
        }
        break;
      case Kind::kRange: {
        const Value* lo =
            agg.lo_value.has_value() ? &*agg.lo_value : nullptr;
        const Value* hi =
            agg.hi_value.has_value() ? &*agg.hi_value : nullptr;
        registry->FeedbackRange(key.table_oid, key.col, lo, hi, observed);
        break;
      }
      case Kind::kIsNull:
        registry->FeedbackIsNull(key.table_oid, key.col, observed);
        break;
      case Kind::kLike:
        registry->FeedbackString(key.table_oid, key.col,
                                 StringPredicate::kLike, key.text, observed);
        break;
    }
  }
  aggregates_.clear();
}

}  // namespace hdb::stats
