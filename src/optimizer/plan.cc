#include "optimizer/plan.h"

#include <cstdio>

namespace hdb::optimizer {

std::string_view PlanKindName(PlanKind k) {
  switch (k) {
    case PlanKind::kSeqScan: return "SeqScan";
    case PlanKind::kIndexScan: return "IndexScan";
    case PlanKind::kNLJoin: return "NestedLoopJoin";
    case PlanKind::kIndexNLJoin: return "IndexNLJoin";
    case PlanKind::kHashJoin: return "HashJoin";
    case PlanKind::kFilter: return "Filter";
    case PlanKind::kProject: return "Project";
    case PlanKind::kHashGroupBy: return "HashGroupBy";
    case PlanKind::kHashDistinct: return "HashDistinct";
    case PlanKind::kSort: return "Sort";
    case PlanKind::kLimit: return "Limit";
  }
  return "?";
}

std::string PlanNode::Fingerprint() const {
  std::string fp(PlanKindName(kind));
  if (table != nullptr) fp += ":" + table->name;
  if (index != nullptr) fp += ":" + index->name;
  if (index_is_virtual) fp += ":virtual";
  if (alt_index_nl) fp += ":alt";
  fp += "(";
  for (const auto& c : children) fp += c->Fingerprint() + ",";
  fp += ")";
  return fp;
}

std::string PlanNode::Explain(int indent, const OpActualsMap* actuals) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += PlanKindName(kind);
  if (kind == PlanKind::kSort && limit >= 0) {
    out += " top=" + std::to_string(limit);
  }
  if (table != nullptr) out += " " + table->name;
  if (index != nullptr) {
    out += " using " + index->name;
    if (index_is_virtual) out += " (virtual)";
  }
  if (kind == PlanKind::kHashJoin || kind == PlanKind::kIndexNLJoin) {
    if (outer_key != nullptr && inner_key != nullptr) {
      out += " on " + outer_key->ToString() + " = " + inner_key->ToString();
    }
  }
  if (residual != nullptr) out += " filter " + residual->ToString();
  if (memory_quota_pages > 0) {
    out += " mem=" + std::to_string(memory_quota_pages) + "p";
  }
  if (alt_index_nl) out += " [alt: index-NL]";
  if (parallel_workers > 1) {
    out += " parallel<=" + std::to_string(parallel_workers);
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  (rows=%.0f cost=%.0f)", est_rows,
                est_cost);
  out += buf;
  if (actuals != nullptr) {
    const auto it = actuals->find(this);
    if (it != actuals->end()) {
      const OpActuals& a = it->second;
      std::snprintf(buf, sizeof(buf),
                    "  (actual rows=%llu invocations=%llu time=%.3fms",
                    static_cast<unsigned long long>(a.rows),
                    static_cast<unsigned long long>(a.invocations),
                    static_cast<double>(a.wall_micros) / 1000.0);
      out += buf;
      if (a.batches > 0) {
        std::snprintf(buf, sizeof(buf), " batches=%llu",
                      static_cast<unsigned long long>(a.batches));
        out += buf;
      }
      if (a.hash_filtered > 0) {
        std::snprintf(buf, sizeof(buf), " hash_filter=%llu",
                      static_cast<unsigned long long>(a.hash_filtered));
        out += buf;
      }
      if (a.workers > 0) {
        std::snprintf(buf, sizeof(buf), " workers=%d", a.workers);
        out += buf;
      }
      if (a.peak_memory_bytes > 0) {
        std::snprintf(buf, sizeof(buf), " mem=%.1fKB",
                      static_cast<double>(a.peak_memory_bytes) / 1024.0);
        out += buf;
      }
      if (a.spilled_bytes > 0 || a.spilled_tuples > 0) {
        std::snprintf(buf, sizeof(buf), " spilled=%lluB/%llut",
                      static_cast<unsigned long long>(a.spilled_bytes),
                      static_cast<unsigned long long>(a.spilled_tuples));
        out += buf;
      }
      if (a.wait_lock_micros > 0 || a.wait_wal_micros > 0 ||
          a.wait_spill_micros > 0 || a.wait_pool_micros > 0) {
        out += " wait=";
        bool first = true;
        const auto append_wait = [&](const char* label, uint64_t micros) {
          if (micros == 0) return;
          if (!first) out += ",";
          first = false;
          std::snprintf(buf, sizeof(buf), "%s:%lluus", label,
                        static_cast<unsigned long long>(micros));
          out += buf;
        };
        append_wait("lock", a.wait_lock_micros);
        append_wait("wal", a.wait_wal_micros);
        append_wait("spill", a.wait_spill_micros);
        append_wait("pool", a.wait_pool_micros);
      }
      out += ")";
    }
  }
  out += "\n";
  for (const auto& c : children) out += c->Explain(indent + 1, actuals);
  return out;
}

}  // namespace hdb::optimizer
