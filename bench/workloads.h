#ifndef HDB_BENCH_WORKLOADS_H_
#define HDB_BENCH_WORKLOADS_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"

namespace hdb::bench {

/// An opened database plus one connection, with EXPECT-free error handling
/// (benches abort loudly on failure).
struct BenchDb {
  explicit BenchDb(engine::DatabaseOptions opts = {});

  engine::QueryResult Exec(const std::string& sql);
  void Load(const std::string& table, const std::vector<table::Row>& rows);

  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::Connection> conn;
};

/// Loads a star schema: one `fact` table with `fact_rows` rows and
/// `dims` dimension tables `dim0..` of `dim_rows` rows each; fact column
/// `dK` joins dimK.id. Fact also has a `v` measure column. Declares FKs
/// and builds statistics.
void LoadStarSchema(BenchDb& db, int dims, int fact_rows, int dim_rows,
                    uint64_t seed = 42);

/// Loads `n` rows of a single-column Zipf-distributed INT table `name`.
void LoadZipfTable(BenchDb& db, const std::string& name, int n, int domain,
                   double theta, uint64_t seed = 7);

/// The executor benchmark data (DESIGN.md §9): a seeded `r` of
/// kExecRows rows (k, g, j, v, s) and a `d` of kExecDimRows rows (id, w)
/// that `r.j` joins. micro_operators times the kExecQueries over it and
/// exec_work counts their work, so both measure the same rows and SQL.
inline constexpr int kExecRows = 40000;
inline constexpr int kExecDimRows = 1024;
void LoadExecTables(BenchDb& db);

/// One executor benchmark statement, keyed by its BENCH_exec.json name.
struct ExecQuery {
  const char* key;
  const char* sql;
};
inline constexpr ExecQuery kExecSeqScan{"exec_seqscan", "SELECT k, v FROM r"};
/// ~20% selectivity on the leading conjunct, then a double compare.
inline constexpr ExecQuery kExecFilter{
    "exec_filter",
    "SELECT k FROM r WHERE k >= 10000 AND k < 20000 AND v < 0.9"};
inline constexpr ExecQuery kExecAggregate{
    "exec_aggregate", "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g"};
inline constexpr ExecQuery kExecHashJoin{
    "exec_hashjoin",
    "SELECT COUNT(*) FROM r JOIN d ON r.j = d.id WHERE d.w < 100"};
inline constexpr ExecQuery kExecQueries[] = {kExecSeqScan, kExecFilter,
                                             kExecAggregate, kExecHashJoin};

/// printf-style row helpers for aligned bench tables.
void PrintHeader(const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int precision = 1);

}  // namespace hdb::bench

#endif  // HDB_BENCH_WORKLOADS_H_
