// DESIGN.md §10: grace hash join and external-merge sort at ~1/10th of
// the memory the statement actually needs.
//
// The starved configuration pins the statement soft limit to roughly one
// tenth of the hash-join build size (pool 512 frames / mpl 5), so the
// build spills partitions, oversized spilled partitions re-partition
// recursively, and ORDER BY degrades to sorted runs plus a streaming
// k-way merge. Each workload is cross-checked against an unconstrained
// run — a spilling plan that loses rows is a failure, not a slow pass.
//
// With an output path argument the bench also emits JSON in the
// BENCH_spill.json format that scripts/bench_smoke.sh + bench_compare.py
// read: bench -> rows_per_sec (a trajectory, never gated) plus a "work"
// section with each workload's spill bytes written and read, spill
// decisions and sort runs spilled. Those counts are the gate: the data
// and the starved limits are fixed, so they repeat exactly on any host,
// and the bench fails when its three repetitions disagree.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "common/rng.h"
#include "workloads.h"

using namespace hdb;
using namespace hdb::bench;

namespace {

double NowMs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() /
         1000.0;
}

constexpr int kBuildRows = 20000;  // ~4.2 MB of build state at 208 B/row
constexpr int kProbeRows = 40000;
constexpr int kSortRows = 40000;

void LoadWorkload(BenchDb& db) {
  db.Exec("CREATE TABLE build (a INT NOT NULL, j INT NOT NULL, v DOUBLE)");
  db.Exec("CREATE TABLE probe (a INT NOT NULL, j INT NOT NULL, v DOUBLE)");
  Rng rng(42);
  std::vector<table::Row> rows;
  for (int i = 0; i < kBuildRows; ++i) {
    rows.push_back({Value::Int(i),
                    Value::Int(static_cast<int32_t>(rng.Uniform(4096))),
                    Value::Double(static_cast<double>(rng.Uniform(100000)))});
  }
  db.Load("build", rows);
  rows.clear();
  for (int i = 0; i < kProbeRows; ++i) {
    rows.push_back({Value::Int(i),
                    Value::Int(static_cast<int32_t>(rng.Uniform(4096))),
                    Value::Double(static_cast<double>(rng.Uniform(100000)))});
  }
  db.Load("probe", rows);
}

// The deterministic spill work of one statement (BENCH_spill.json "work").
struct SpillWork {
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  uint64_t spill_decisions = 0;
  uint64_t sort_runs_spilled = 0;
  bool operator==(const SpillWork&) const = default;
};

SpillWork WorkOf(const engine::QueryResult& r) {
  return {r.exec_stats.spill_bytes_written, r.exec_stats.spill_bytes_read,
          r.exec_stats.spill_decisions, r.exec_stats.sort_runs_spilled};
}

// Runs `sql` kReps times on `db`: best wall ms, the last result, and
// whether every repetition did the same spill work.
struct Timed {
  double ms = 1e30;
  engine::QueryResult got;
  bool work_repeats = true;
};

Timed RunBestOf(BenchDb& db, const char* sql) {
  // Best-of-3 keeps the printed rate clear of scheduler noise from
  // whatever ran just before.
  constexpr int kReps = 3;
  Timed t;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = NowMs();
    engine::QueryResult got = db.Exec(sql);
    t.ms = std::min(t.ms, NowMs() - t0);
    if (rep > 0 && !(WorkOf(got) == WorkOf(t.got))) t.work_repeats = false;
    t.got = std::move(got);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== §4.3/§10 spill scheduler at ~1/10th memory ===\n");

  // Unconstrained reference: soft limit far above every operator's need.
  engine::DatabaseOptions roomy_opts;
  roomy_opts.initial_pool_frames = 4096;
  roomy_opts.memory_governor.multiprogramming_level = 2;
  BenchDb roomy(roomy_opts);
  LoadWorkload(roomy);

  // Starved: soft = 512/5 = 102 pages ≈ 418 KB, ~1/10th of the build.
  engine::DatabaseOptions starved_opts;
  starved_opts.initial_pool_frames = 512;
  starved_opts.memory_governor.multiprogramming_level = 5;
  BenchDb starved(starved_opts);
  LoadWorkload(starved);

  const char* join_sql =
      "SELECT COUNT(*), SUM(build.v) FROM build "
      "JOIN probe ON build.j = probe.j";
  const char* sort_sql = "SELECT a, j, v FROM probe ORDER BY v, a";

  const auto want_join = roomy.Exec(join_sql);
  const auto want_sort = roomy.Exec(sort_sql);

  std::map<std::string, double> out;
  std::map<std::string, SpillWork> work;
  PrintHeader({"bench", "soft_pages", "spilled_mb", "decisions", "correct",
               "ms", "rows_per_s"});

  {
    const auto [ms, got, work_repeats] = RunBestOf(starved, join_sql);
    const bool correct =
        work_repeats && got.rows.size() == want_join.rows.size() &&
        got.rows[0][0].AsInt() == want_join.rows[0][0].AsInt() &&
        got.exec_stats.spill_bytes_written > 0 &&
        got.exec_stats.spill_decisions > 0;
    const double rps = (kBuildRows + kProbeRows) / (ms / 1000.0);
    out["spill_grace_join"] = rps;
    work["spill_grace_join"] = WorkOf(got);
    PrintRow({"grace_join",
              std::to_string(starved.db->memory_governor().SoftLimitPages()),
              Fmt(got.exec_stats.spill_bytes_written / (1024.0 * 1024.0)),
              std::to_string(got.exec_stats.spill_decisions),
              correct ? "yes" : "NO", Fmt(ms), Fmt(rps, 0)});
    if (!correct) return 1;
  }

  {
    const auto [ms, got, work_repeats] = RunBestOf(starved, sort_sql);
    bool correct = work_repeats && got.rows.size() == want_sort.rows.size() &&
                   got.exec_stats.sort_runs_spilled > 0;
    for (size_t i = 1; correct && i < got.rows.size(); ++i) {
      if (got.rows[i][2].AsDouble() < got.rows[i - 1][2].AsDouble()) {
        correct = false;
      }
    }
    const double rps = kSortRows / (ms / 1000.0);
    out["spill_external_sort"] = rps;
    work["spill_external_sort"] = WorkOf(got);
    PrintRow({"external_sort",
              std::to_string(starved.db->memory_governor().SoftLimitPages()),
              Fmt(got.exec_stats.spill_bytes_written / (1024.0 * 1024.0)),
              std::to_string(got.exec_stats.spill_decisions),
              correct ? "yes" : "NO", Fmt(ms), Fmt(rps, 0)});
    if (!correct) return 1;
  }

  if (argc > 1) {
    FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "spill_scan: cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n");
    size_t i = 0;
    for (const auto& [name, rps] : out) {
      std::fprintf(f, "  \"%s\": %.1f,\n", name.c_str(), rps);
    }
    std::fprintf(f, "  \"work\": {\n    \"queries\": {\n");
    for (const auto& [name, w] : work) {
      std::fprintf(f,
                   "      \"%s\": {\"spill_bytes_written\": %llu, "
                   "\"spill_bytes_read\": %llu, \"spill_decisions\": %llu, "
                   "\"sort_runs_spilled\": %llu}%s\n",
                   name.c_str(),
                   static_cast<unsigned long long>(w.spill_bytes_written),
                   static_cast<unsigned long long>(w.spill_bytes_read),
                   static_cast<unsigned long long>(w.spill_decisions),
                   static_cast<unsigned long long>(w.sort_runs_spilled),
                   ++i < work.size() ? "," : "");
    }
    std::fprintf(f, "    }\n  }\n}\n");
    std::fclose(f);
    std::printf("spill_scan: wrote %s\n", argv[1]);
  }
  return 0;
}
