#ifndef HDB_PROFILE_ANALYZER_H_
#define HDB_PROFILE_ANALYZER_H_

#include <string>
#include <vector>

#include "engine/database.h"
#include "profile/tracer.h"

namespace hdb::profile {

enum class FindingKind {
  /// Many identical statements differing only in a constant — the
  /// application is performing a join client-side, one probe at a time
  /// (paper §5); a single set-oriented statement would be cheaper.
  kClientSideJoin,
  /// A database option is set to a value from the known-flaws database.
  kSuspiciousOption,
  /// A statement repeatedly scans many rows to return few — an index or a
  /// rewritten predicate is probably missing.
  kExpensiveScan,
};

struct Finding {
  FindingKind kind;
  std::string subject;  // statement shape or option name
  std::string message;
  uint64_t occurrences = 0;
  double total_elapsed_micros = 0;
};

/// Application Profiling analysis over a captured trace (paper §5): a
/// database of commonly seen design flaws, applied to the trace and the
/// database's option settings.
class WorkloadAnalyzer {
 public:
  struct Options {
    /// A shape this frequent with distinct constants is a client-side
    /// join candidate.
    uint64_t client_join_threshold = 8;
    /// Scan-to-result ratio flagged as expensive.
    double expensive_scan_ratio = 100.0;
    uint64_t expensive_scan_min_rows = 1000;
  };

  explicit WorkloadAnalyzer(Options options) : options_(options) {}
  WorkloadAnalyzer() : WorkloadAnalyzer(Options{}) {}

  /// Analyzes trace events plus the database's options.
  std::vector<Finding> Analyze(const std::vector<TraceEvent>& events,
                               engine::Database* db) const;

 private:
  Options options_;
};

}  // namespace hdb::profile

#endif  // HDB_PROFILE_ANALYZER_H_
