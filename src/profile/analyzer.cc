#include "profile/analyzer.h"

#include <map>
#include <set>
#include <utility>

namespace hdb::profile {

std::vector<Finding> WorkloadAnalyzer::Analyze(
    const std::vector<TraceEvent>& events,
    engine::Database* db) const {
  std::vector<Finding> findings;

  // --- Client-side join detection (paper §5) ---
  struct ShapeStats {
    uint64_t count = 0;
    // Distinct (text, bound-values hash) pairs: prepared executions share
    // one text and differ only in their values.
    std::set<std::pair<std::string, uint64_t>> variants;
    double elapsed = 0;
    uint64_t scanned = 0;
    uint64_t returned = 0;
  };
  std::map<std::string, ShapeStats> shapes;
  for (const TraceEvent& ev : events) {
    if (ev.shape.rfind("SELECT", 0) != 0) continue;
    ShapeStats& s = shapes[ev.shape];
    s.count++;
    s.variants.emplace(ev.sql, ev.params_hash);
    s.elapsed += ev.elapsed_micros;
    s.scanned += ev.rows_scanned;
    s.returned += ev.rows_returned;
  }
  for (const auto& [shape, s] : shapes) {
    const uint64_t distinct = s.variants.size();
    if (s.count >= options_.client_join_threshold && distinct > s.count / 2 &&
        shape.find("?") != std::string::npos &&
        shape.find(" JOIN ") == std::string::npos &&
        shape.find(",") == std::string::npos) {
      Finding f;
      f.kind = FindingKind::kClientSideJoin;
      f.subject = shape;
      f.occurrences = s.count;
      f.total_elapsed_micros = s.elapsed;
      f.message =
          "statement executed " + std::to_string(s.count) +
          " times with " + std::to_string(distinct) +
          " distinct constants; this application-side loop would be more "
          "efficient as a single set-oriented statement (e.g. a join or an "
          "IN list)";
      findings.push_back(std::move(f));
    }
    if (s.count > 0 && s.returned > 0 &&
        s.scanned >= options_.expensive_scan_min_rows &&
        static_cast<double>(s.scanned) / static_cast<double>(s.returned) >=
            options_.expensive_scan_ratio) {
      Finding f;
      f.kind = FindingKind::kExpensiveScan;
      f.subject = shape;
      f.occurrences = s.count;
      f.total_elapsed_micros = s.elapsed;
      f.message = "statement scans " + std::to_string(s.scanned) +
                  " rows to return " + std::to_string(s.returned) +
                  "; consider an index (see the Index Consultant)";
      findings.push_back(std::move(f));
    }
  }

  // --- Known-flaw database for option settings (paper §5) ---
  if (db != nullptr) {
    const auto& cat = db->catalog();
    if (cat.GetOption("collect_statistics_on_dml", "on") == "off") {
      Finding f;
      f.kind = FindingKind::kSuspiciousOption;
      f.subject = "collect_statistics_on_dml";
      f.message =
          "automatic statistics collection is disabled; the optimizer will "
          "drift as data changes";
      findings.push_back(std::move(f));
    }
    if (cat.GetOption("max_query_tasks", "0") == "1") {
      Finding f;
      f.kind = FindingKind::kSuspiciousOption;
      f.subject = "max_query_tasks";
      f.message =
          "intra-query parallelism is limited to one task; the server "
          "cannot use multiple cores for a single request";
      findings.push_back(std::move(f));
    }
    const std::string goal = cat.GetOption("optimization_goal", "all-rows");
    if (goal != "all-rows" && goal != "first-row") {
      Finding f;
      f.kind = FindingKind::kSuspiciousOption;
      f.subject = "optimization_goal";
      f.message = "unknown optimization_goal value '" + goal + "'";
      findings.push_back(std::move(f));
    }
  }
  return findings;
}

}  // namespace hdb::profile
