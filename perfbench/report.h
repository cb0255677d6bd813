#ifndef HDB_PERFBENCH_REPORT_H_
#define HDB_PERFBENCH_REPORT_H_

// Shared plumbing of the benchmark: run options, the result report that
// becomes the last stdout line, clocks, percentiles and registry deltas.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "obs/metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Self-check: corrupt one expected result so the checkers must count a
  /// failure.
  bool inject_wrong_row = false;
  /// Where the span file and the per-run result file go.
  std::string out_dir;
  int nproc = 1;
};

/// Everything one run reports. `metrics` keeps insertion order.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Run configuration, as JSON members (`"key": value`).
  std::vector<std::pair<std::string, std::string>> config;

  void Metric(const std::string& name, double value, const std::string& unit);
  void Config(const std::string& key, const std::string& json_value);
  void ConfigNum(const std::string& key, double v);
  void Fail(const std::string& why);

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string ResultJson() const;
  std::string ConfigJson() const;

 private:
  int printed_failures_ = 0;
};

double NowSeconds();                  // steady clock
uint64_t NowNanos();                  // steady clock
double ProcessCpuSeconds();           // user + system, whole process
double PeakRssMb();

/// One completed statement: when it ended (steady clock, seconds — the
/// clock is shared by every process on the host), its latency, and
/// whether it was a read.
struct Completion {
  double end_s;
  float us;
  bool read;
};

/// End-to-end metrics of a timed phase, over every statement it
/// completed.
struct PhaseStats {
  double throughput = 0;  // statements / (last completion - phase start)
  double p50_us = 0, p95_us = 0, p99_us = 0, read_p50_us = 0;
  double cpu_us_per_stmt = 0;
  size_t statements = 0;
  size_t above_p99 = 0;  // samples beyond p99
  /// Throughput of each whole kSliceS slice in time order, for the config
  /// line: it shows how the rate moved during the run.
  std::vector<double> slice_throughput;
};
inline constexpr double kSliceS = 5.0;

/// `done` are the completions of a phase that began at `start_s`, during
/// which the database process spent `cpu_s` of CPU time.
PhaseStats Summarize(const std::vector<Completion>& done, double start_s,
                     double cpu_s);

/// Records the phase in the config and the end-to-end metrics, in
/// BENCHMARK.json order.
void ReportEndToEnd(const PhaseStats& m, double setup_s, double peak_rss_mb,
                    Report* report);

/// The pool must not change size during a timed phase, or the run is not
/// steady: counted as a failure.
void CheckFramesSteady(size_t frames0, size_t frames1, Report* report);

/// The analytic query shapes, named in the per-shape metrics.
inline constexpr const char* kShapeNames[] = {
    "scan_project", "filter",    "group_by",   "distinct",
    "hash_join",    "star_join", "sort_limit", "spill_join"};

/// Per-layer values of a traced run by metric name. A layer that does not
/// run on a workload is left out and reads 0.
using Layers = std::map<std::string, double>;

/// Counters both workloads read from Database::metrics() between two
/// snapshots; `statements` is the number run between them.
void AddRegistryLayers(const std::map<std::string, double>& before,
                       const std::map<std::string, double>& after,
                       double statements, Layers* out);
/// optimizer.qerror_max and optimizer.qerror_geomean over plan nodes.
void AddQErrors(const std::vector<double>& qerrors, Layers* out);
/// Emits every per-layer metric in BENCHMARK.json order, adding
/// failure_ratio from the report and trace.overhead_pct from the two
/// trace throughputs; dies on a name it does not know.
void ReportLayers(const Layers& values, Report* report);

/// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Registry snapshot as name -> value. Histograms contribute
/// `<name>.count` and `<name>.sum_us`.
std::map<std::string, double> Snap(const hdb::obs::MetricsRegistry& reg);
double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

/// Order-independent checksum of a result set: the sum of a per-row hash,
/// so serial and parallel plans that emit rows in another order agree.
uint64_t RowHash(const std::vector<hdb::Value>& row);
uint64_t ResultChecksum(const std::vector<std::vector<hdb::Value>>& rows);

/// splitmix64: the seeded function behind generated data.
uint64_t Mix(uint64_t x);

/// q-errors of every plan node in an EXPLAIN ANALYZE rendering:
/// max(est, actual) / min(est, actual), both clamped to >= 1. Actual rows
/// are the node's total output.
std::vector<double> PlanQErrors(const std::string& explain);

}  // namespace perfbench

#endif  // HDB_PERFBENCH_REPORT_H_
