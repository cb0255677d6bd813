#include "workloads.h"

#include <cstdlib>

#include "common/rng.h"

namespace hdb::bench {

BenchDb::BenchDb(engine::DatabaseOptions opts) {
  auto opened = engine::Database::Open(opts);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::abort();
  }
  db = std::move(*opened);
  auto c = db->Connect();
  if (!c.ok()) std::abort();
  conn = std::move(*c);
}

engine::QueryResult BenchDb::Exec(const std::string& sql) {
  auto r = conn->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "statement failed: %s\n  %s\n", sql.c_str(),
                 r.status().ToString().c_str());
    std::abort();
  }
  return *r;
}

void BenchDb::Load(const std::string& table,
                   const std::vector<table::Row>& rows) {
  const Status s = db->LoadTable(table, rows);
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
}

void LoadStarSchema(BenchDb& db, int dims, int fact_rows, int dim_rows,
                    uint64_t seed) {
  std::string fact_cols = "id INT NOT NULL, v DOUBLE";
  for (int d = 0; d < dims; ++d) {
    fact_cols += ", d" + std::to_string(d) + " INT";
  }
  db.Exec("CREATE TABLE fact (" + fact_cols + ")");
  for (int d = 0; d < dims; ++d) {
    const std::string t = "dim" + std::to_string(d);
    db.Exec("CREATE TABLE " + t + " (id INT NOT NULL, attr INT)");
    std::vector<table::Row> rows;
    for (int i = 0; i < dim_rows; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 10)});
    }
    db.Load(t, rows);
  }
  Rng rng(seed);
  std::vector<table::Row> fact;
  fact.reserve(fact_rows);
  for (int i = 0; i < fact_rows; ++i) {
    table::Row row = {Value::Int(i), Value::Double(rng.NextDouble() * 100)};
    for (int d = 0; d < dims; ++d) {
      row.push_back(
          Value::Int(static_cast<int32_t>(rng.Uniform(dim_rows))));
    }
    fact.push_back(std::move(row));
  }
  db.Load("fact", fact);
}

void LoadZipfTable(BenchDb& db, const std::string& name, int n, int domain,
                   double theta, uint64_t seed) {
  db.Exec("CREATE TABLE " + name + " (k INT, v INT)");
  ZipfGenerator zipf(domain, theta, seed);
  std::vector<table::Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int32_t>(zipf.Next())), Value::Int(i)});
  }
  db.Load(name, rows);
}

void LoadExecTables(BenchDb& db) {
  db.Exec(
      "CREATE TABLE r (k INT NOT NULL, g INT NOT NULL, j INT NOT NULL, "
      "v DOUBLE, s VARCHAR(24))");
  db.Exec("CREATE TABLE d (id INT NOT NULL, w INT NOT NULL)");
  Rng rng(11);
  std::vector<table::Row> rows;
  rows.reserve(kExecRows);
  static const char* kTags[] = {"alpha", "bravo", "carbon", "delta"};
  for (int i = 0; i < kExecRows; ++i) {
    rows.push_back({Value::Int(static_cast<int32_t>(rng.Uniform(50000))),
                    Value::Int(static_cast<int32_t>(rng.Uniform(64))),
                    Value::Int(static_cast<int32_t>(rng.Uniform(kExecDimRows))),
                    Value::Double(static_cast<double>(rng.Uniform(1000)) / 1000.0),
                    Value::String(std::string(kTags[rng.Uniform(4)]) + "-" +
                                  std::to_string(rng.Uniform(1000)))});
  }
  db.Load("r", rows);
  rows.clear();
  for (int i = 0; i < kExecDimRows; ++i) {
    rows.push_back({Value::Int(i),
                    Value::Int(static_cast<int32_t>(rng.Uniform(100)))});
  }
  db.Load("d", rows);
}

void PrintHeader(const std::vector<std::string>& columns) {
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%14s", "------");
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%14s", c.c_str());
  std::printf("\n");
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace hdb::bench
