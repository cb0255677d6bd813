#ifndef HDB_PERFBENCH_PERFBENCH_H_
#define HDB_PERFBENCH_PERFBENCH_H_

// Workload entry points and the helpers they share.

#include <memory>
#include <string>

#include "engine/database.h"
#include "report.h"

namespace perfbench {

/// Each returns normally with the report filled in; set-up errors (the
/// engine refusing a statement the benchmark needs) exit the process with
/// a non-zero code and no result line.
void RunOltpWire(const RunOptions& opts, Report* report);
void RunAnalytic(const RunOptions& opts, bool parallel, Report* report);

[[noreturn]] void Die(const std::string& what);
/// A child process Die() must stop and wait for before exiting; 0 = none.
void SetChildProcess(int pid);

std::unique_ptr<hdb::engine::Database> OpenOrDie(
    const hdb::engine::DatabaseOptions& options);
std::unique_ptr<hdb::engine::Connection> ConnectOrDie(
    hdb::engine::Database* db);
hdb::engine::QueryResult ExecOrDie(hdb::engine::Connection* conn,
                                   const std::string& sql);

/// Heap and index pages of every user table, for the fits-in-pool and
/// larger-than-pool assertions.
uint64_t DataPages(hdb::engine::Database* db, const char* const* tables,
                   size_t n);

/// Parse, bind, optimize and execute one SELECT through the engine's
/// public layer functions, each inside its own span, the way
/// Connection::Execute composes them. Returns the rows; `*exec_allocs`
/// gets the heap allocations made inside exec::ExecuteToRows.
struct LayerTimes {
  double parse_us = 0;
  double bind_us = 0;
  double optimize_us = 0;
  double exec_us = 0;
  uint64_t exec_allocs = 0;
  uint64_t rows = 0;
  bool ok = false;
};
LayerTimes RunSelectByLayer(hdb::engine::Database* db, const std::string& sql);

/// Writes the config line and the spans of a traced run under
/// opts.out_dir; returns the span-file path (empty when not traced).
std::string WriteRunFiles(const RunOptions& opts, const Report& report);

}  // namespace perfbench

#endif  // HDB_PERFBENCH_PERFBENCH_H_
