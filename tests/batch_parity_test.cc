// Batch-execution parity: every query must return the same result set no
// matter the batch cap. Cap 1 degenerates the vectorized executor to
// row-at-a-time, 7 exercises partial batches and selection-vector
// compaction at awkward boundaries, 1024 is the production default. A
// divergence means some operator's NextBatch disagrees with its Next().
//
// Also covers the batch-adjacent observability contracts: EXPLAIN ANALYZE
// actual rows count *selected* rows (not batch pulls), and the memory
// governor shrinks the effective cap under a starved quota
// (stats.batch_cap_shrinks). The Concurrent case runs the corpus from
// several threads against one database so the sanitizer matrix (TSan)
// checks the shared scan path — heap latch, RowDecoder, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"

namespace hdb {
namespace {

/// The corpus leans on every operator the vectorized executor touches:
/// seq scan, index scan, filter (fast-path compare/BETWEEN and generic
/// OR/LIKE/IN/IS NULL), projection (pass-through and arithmetic), hash
/// join, nested-loop join, group by, distinct, order by, limit.
const char* kCorpus[] = {
    "SELECT a, b, v, s FROM t",
    "SELECT a FROM t WHERE a >= 100 AND a < 900",
    "SELECT a, v FROM t WHERE v < 0.25",
    "SELECT a FROM t WHERE a BETWEEN 200 AND 300",
    "SELECT a, b FROM t WHERE b IS NULL",
    "SELECT a, b FROM t WHERE b IS NOT NULL AND b > 10",
    "SELECT a, s FROM t WHERE s LIKE 'al%'",
    "SELECT a FROM t WHERE a IN (1, 2, 3, 500, 501)",
    "SELECT a FROM t WHERE a < 50 OR a > 950",
    "SELECT a + b, v * 2.0 FROM t WHERE b IS NOT NULL",
    "SELECT g, COUNT(*), SUM(v), MIN(a), MAX(a) FROM t GROUP BY g",
    "SELECT g, COUNT(*) FROM t WHERE a > 250 GROUP BY g",
    "SELECT g, SUM(v) FROM t GROUP BY g HAVING COUNT(*) > 5",
    "SELECT COUNT(*) FROM t",
    "SELECT DISTINCT g FROM t",
    "SELECT t.a, d.w FROM t JOIN d ON t.j = d.id WHERE d.w < 40",
    "SELECT COUNT(*) FROM t JOIN d ON t.j = d.id",
    "SELECT t.a, d.id FROM t JOIN d ON t.a < d.id WHERE t.a BETWEEN 40 AND 60",
    "SELECT a, v FROM t ORDER BY a, v LIMIT 20",
    "SELECT a FROM t WHERE a >= 400 ORDER BY a DESC LIMIT 10",
    // Top-N sorts: a non-unique key (ties decide which rows survive),
    // ORDER BY over GROUP BY, and DISTINCT (which keeps the full sort).
    "SELECT a, g, s FROM t ORDER BY g LIMIT 7",
    "SELECT a, g FROM t WHERE b IS NOT NULL ORDER BY g DESC, s LIMIT 100",
    "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g DESC LIMIT 5",
    "SELECT DISTINCT g FROM t ORDER BY g LIMIT 5",
    // Nested-loop joins whose outer side is itself a join (several outer
    // slots stamped per inner row), and a nested-loop join under GROUP BY.
    "SELECT t.a, d.id, e.x FROM t JOIN d ON t.j = d.id "
    "JOIN e ON d.w < e.y WHERE t.a < 40",
    "SELECT t.g, COUNT(*), MAX(d.w) FROM t JOIN d ON t.a < d.id "
    "WHERE t.a BETWEEN 10 AND 40 GROUP BY t.g",
    // Hash-join key filters on the probe scan (DESIGN.md §9): NULL probe
    // keys, an INT probe key against integral DOUBLE build keys, and a
    // hash join above a nested-loop join whose inner side re-opens (no
    // filter crosses the nested loop).
    "SELECT t.a, d.w FROM t JOIN d ON t.b = d.id",
    "SELECT t.a, f.y FROM t JOIN f ON t.j = f.x",
    "SELECT t.a, e.x, d.w FROM t JOIN e ON t.a < e.y JOIN d ON t.j = d.id "
    "WHERE t.a < 60",
};

std::unique_ptr<engine::Database> MakeDb(size_t batch_cap,
                                         size_t pool_frames = 512,
                                         int mpl = 8) {
  engine::DatabaseOptions opts;
  opts.exec_batch_cap = batch_cap;
  opts.initial_pool_frames = pool_frames;
  opts.memory_governor.multiprogramming_level = mpl;
  auto db = engine::Database::Open(opts);
  EXPECT_TRUE(db.ok());

  auto conn = (*db)->Connect();
  EXPECT_TRUE(conn.ok());
  auto st = (*conn)->Execute(
      "CREATE TABLE t (a INT NOT NULL, g INT NOT NULL, j INT NOT NULL, "
      "b INT, v DOUBLE, s VARCHAR(24))");
  EXPECT_TRUE(st.ok());
  st = (*conn)->Execute("CREATE TABLE d (id INT NOT NULL, w INT NOT NULL)");
  EXPECT_TRUE(st.ok());

  // Fixed seed: every database instance loads byte-identical data.
  Rng rng(1234);
  static const char* kTags[] = {"alpha", "bravo", "carbon", "delta"};
  std::vector<table::Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(
        {Value::Int(static_cast<int32_t>(rng.Uniform(1000))),
         Value::Int(static_cast<int32_t>(rng.Uniform(16))),
         Value::Int(static_cast<int32_t>(rng.Uniform(64))),
         rng.Bernoulli(0.2) ? Value::Null(TypeId::kInt)
                            : Value::Int(static_cast<int32_t>(rng.Uniform(20))),
         Value::Double(static_cast<double>(rng.Uniform(1000)) / 1000.0),
         Value::String(std::string(kTags[rng.Uniform(4)]) + "-" +
                       std::to_string(rng.Uniform(100)))});
  }
  EXPECT_TRUE((*db)->LoadTable("t", rows).ok());
  rows.clear();
  for (int i = 0; i < 64; ++i) {
    rows.push_back({Value::Int(i),
                    Value::Int(static_cast<int32_t>(rng.Uniform(100)))});
  }
  EXPECT_TRUE((*db)->LoadTable("d", rows).ok());
  // Loaded after d, so t and d stay byte-identical to earlier corpora.
  st = (*conn)->Execute("CREATE TABLE e (x INT NOT NULL, y INT NOT NULL)");
  EXPECT_TRUE(st.ok());
  rows.clear();
  for (int i = 0; i < 24; ++i) {
    rows.push_back({Value::Int(i),
                    Value::Int(static_cast<int32_t>(rng.Uniform(100)))});
  }
  EXPECT_TRUE((*db)->LoadTable("e", rows).ok());
  // f.x: integral DOUBLEs that t.j (INT) joins by value, and halves that
  // join nothing.
  st = (*conn)->Execute("CREATE TABLE f (x DOUBLE NOT NULL, y INT NOT NULL)");
  EXPECT_TRUE(st.ok());
  rows.clear();
  for (int i = 0; i < 32; ++i) {
    rows.push_back({Value::Double(i % 4 == 3 ? i + 0.5 : i * 2.0),
                    Value::Int(i)});
  }
  EXPECT_TRUE((*db)->LoadTable("f", rows).ok());
  st = (*conn)->Execute("CREATE INDEX t_a ON t (a)");
  EXPECT_TRUE(st.ok());
  return std::move(*db);
}

/// Canonical order-independent form of a result set. ORDER BY queries are
/// still checked row-for-row by including the sorted form; a wrong sort
/// that permutes equal keys is out of scope here (covered by exec_test).
std::vector<std::string> Canon(const engine::QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const auto& row : r.rows) {
    std::string line;
    for (const auto& v : row) {
      line += v.is_null() ? "<null>" : v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(BatchParity, CapSweepMatchesRowAtATime) {
  auto base = MakeDb(1);  // cap 1: row-at-a-time semantics
  auto mid = MakeDb(7);   // prime cap: partial final batches everywhere
  auto full = MakeDb(1024);
  auto cbr = base->Connect();
  auto cb = std::move(*cbr);
  auto cmr = mid->Connect();
  auto cm = std::move(*cmr);
  auto cfr = full->Connect();
  auto cf = std::move(*cfr);

  for (const char* sql : kCorpus) {
    auto rb = cb->Execute(sql);
    auto rm = cm->Execute(sql);
    auto rf = cf->Execute(sql);
    ASSERT_TRUE(rb.ok()) << sql << ": " << rb.status().ToString();
    ASSERT_TRUE(rm.ok()) << sql << ": " << rm.status().ToString();
    ASSERT_TRUE(rf.ok()) << sql << ": " << rf.status().ToString();
    const auto want = Canon(*rb);
    EXPECT_EQ(want, Canon(*rm)) << "cap 7 diverged: " << sql;
    EXPECT_EQ(want, Canon(*rf)) << "cap 1024 diverged: " << sql;
    EXPECT_FALSE(want.empty()) << "degenerate corpus entry: " << sql;
  }
}

TEST(BatchParity, OrderedQueriesMatchRowForRow) {
  auto base = MakeDb(1);
  auto full = MakeDb(1024);
  auto cbr = base->Connect();
  auto cb = std::move(*cbr);
  auto cfr = full->Connect();
  auto cf = std::move(*cfr);
  const char* ordered[] = {
      "SELECT a, v FROM t ORDER BY a, v LIMIT 50",
      "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g",
  };
  for (const char* sql : ordered) {
    auto rb = cb->Execute(sql);
    auto rf = cf->Execute(sql);
    ASSERT_TRUE(rb.ok() && rf.ok()) << sql;
    ASSERT_EQ(rb->rows.size(), rf->rows.size()) << sql;
    for (size_t i = 0; i < rb->rows.size(); ++i) {
      for (size_t c = 0; c < rb->rows[i].size(); ++c) {
        EXPECT_EQ(rb->rows[i][c].ToString(), rf->rows[i][c].ToString())
            << sql << " row " << i << " col " << c;
      }
    }
  }
}

// Top-N sort: ORDER BY a non-unique key with LIMIT k returns exactly the
// first k rows of the full (stable) sort, ties included, at every batch
// cap and for k from 0 past the row count.
TEST(BatchParity, TopNEqualsTruncatedFullSort) {
  struct Case {
    const char* full;  // the ORDER BY without a LIMIT
    size_t rows;       // its row count
  };
  const Case cases[] = {
      {"SELECT a, g, s FROM t ORDER BY g", 1000},
      {"SELECT a, j FROM t ORDER BY j DESC", 1000},
      {"SELECT g, COUNT(*), MIN(a) FROM t GROUP BY g ORDER BY g DESC", 16},
  };
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    auto db = MakeDb(cap);
    auto connr = db->Connect();
    auto conn = std::move(*connr);
    for (const Case& c : cases) {
      auto full = conn->Execute(c.full);
      ASSERT_TRUE(full.ok()) << c.full << ": " << full.status().ToString();
      ASSERT_EQ(full->rows.size(), c.rows) << c.full;
      for (const size_t k : {size_t{0}, size_t{1}, size_t{7}, c.rows - 1,
                             c.rows, c.rows + 5}) {
        const std::string sql =
            std::string(c.full) + " LIMIT " + std::to_string(k);
        auto top = conn->Execute(sql);
        ASSERT_TRUE(top.ok()) << sql << ": " << top.status().ToString();
        ASSERT_EQ(top->rows.size(), std::min(k, c.rows)) << sql;
        for (size_t i = 0; i < top->rows.size(); ++i) {
          ASSERT_EQ(top->rows[i].size(), full->rows[i].size()) << sql;
          for (size_t col = 0; col < top->rows[i].size(); ++col) {
            EXPECT_EQ(top->rows[i][col].ToString(),
                      full->rows[i][col].ToString())
                << sql << " (cap " << cap << ") row " << i << " col " << col;
          }
        }
      }
    }
  }
}

// EXPLAIN marks a LIMIT directly above an ORDER BY as a top-N sort, and
// EXPLAIN ANALYZE counts the rows it emitted. DISTINCT between the two
// keeps the full sort: the limit counts distinct rows, not sorted ones.
TEST(BatchParity, ExplainShowsTopNSort) {
  auto db = MakeDb(1024);
  auto connr = db->Connect();
  auto conn = std::move(*connr);
  auto r = conn->Execute("EXPLAIN ANALYZE SELECT a FROM t ORDER BY g LIMIT 100");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const size_t sort_at = r->explain.find("Sort top=100");
  ASSERT_NE(sort_at, std::string::npos) << r->explain;
  const std::string sort_line =
      r->explain.substr(sort_at, r->explain.find('\n', sort_at) - sort_at);
  EXPECT_NE(sort_line.find("(rows=100 "), std::string::npos) << sort_line;
  EXPECT_NE(sort_line.find("actual rows=100 "), std::string::npos)
      << sort_line;

  auto d = conn->Execute("EXPLAIN SELECT DISTINCT g FROM t ORDER BY g LIMIT 5");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_NE(d->explain.find("Sort"), std::string::npos) << d->explain;
  EXPECT_EQ(d->explain.find("top="), std::string::npos) << d->explain;

  auto u = conn->Execute("EXPLAIN SELECT a FROM t ORDER BY g");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->explain.find("top="), std::string::npos) << u->explain;
}

// Shared-database case for the sanitizer matrix: several threads sweep the
// corpus through their own connections. Batches, the table heap's shared
// latch, prepared RowDecoders, and the metrics registry are all exercised
// concurrently; TSan must stay quiet.
TEST(BatchParity, ConcurrentScansAgree) {
  auto db = MakeDb(1024);
  auto refr = db->Connect();
  auto ref_conn = std::move(*refr);
  std::vector<std::vector<std::string>> want;
  for (const char* sql : kCorpus) {
    auto r = ref_conn->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql;
    want.push_back(Canon(*r));
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto connr = db->Connect();
      auto conn = std::move(*connr);
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < std::size(kCorpus); ++q) {
          auto r = conn->Execute(kCorpus[q]);
          if (!r.ok() || Canon(*r) != want[q]) mismatches[t]++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// DESIGN.md §6: EXPLAIN ANALYZE "actual rows" are selected rows, not
// NextBatch() pulls. A filtered scan over 1000 rows with ~100 survivors
// must report ~100 — under batching a naive count of batch returns would
// report the pull count (1 per 1024-batch) or the pre-filter size.
TEST(BatchParity, ExplainAnalyzeActualRowsAreSelectedRows) {
  auto db = MakeDb(1024);
  auto connr = db->Connect();
  auto conn = std::move(*connr);
  auto counted = conn->Execute("SELECT COUNT(*) FROM t WHERE a < 100");
  ASSERT_TRUE(counted.ok());
  const int64_t selected = counted->rows[0][0].AsInt();
  ASSERT_GT(selected, 0);
  ASSERT_LT(selected, 1000);

  auto r = conn->Execute("EXPLAIN ANALYZE SELECT a FROM t WHERE a < 100");
  ASSERT_TRUE(r.ok());
  const std::string needle =
      "actual rows=" + std::to_string(selected);
  EXPECT_NE(r->explain.find(needle), std::string::npos) << r->explain;
  // The scan ran batch-driven, and says so.
  EXPECT_NE(r->explain.find("batches="), std::string::npos) << r->explain;
}

// A hash join's key filter drops probe rows before decode; the probe
// scan's actual rows still count every row its own predicates passed, and
// the filter's drops print beside them as hash_filter=.
TEST(BatchParity, ExplainAnalyzeCountsKeyFilteredRowsSeparately) {
  auto db = MakeDb(1024);
  auto connr = db->Connect();
  auto conn = std::move(*connr);
  auto r = conn->Execute(
      "EXPLAIN ANALYZE SELECT t.a, d.w FROM t JOIN d ON t.j = d.id "
      "WHERE d.w < 10 AND t.v < 0.75");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto counted = conn->Execute("SELECT COUNT(*) FROM t WHERE v < 0.75");
  ASSERT_TRUE(counted.ok());
  const size_t scan_at = r->explain.find("SeqScan t ");
  ASSERT_NE(scan_at, std::string::npos) << r->explain;
  const std::string scan_line =
      r->explain.substr(scan_at, r->explain.find('\n', scan_at) - scan_at);
  EXPECT_NE(scan_line.find("actual rows=" +
                           counted->rows[0][0].ToString() + " "),
            std::string::npos)
      << scan_line;
  EXPECT_NE(scan_line.find(" hash_filter="), std::string::npos) << scan_line;
}

// A starved memory quota (tiny pool, high multiprogramming level) must
// shrink the effective batch cap instead of blowing the statement budget
// on row pools — and the query must still be correct.
TEST(BatchParity, LowMemoryShrinksBatchCap) {
  // Roomy: soft quota comfortably above a full 1024-row pool (4096 frames
  // / mpl 4 ≈ 8 MB soft). Starved: 64 frames / mpl 64 pins the quota to a
  // single page, forcing the cap toward row-at-a-time.
  auto roomy = MakeDb(1024, /*pool_frames=*/4096, /*mpl=*/4);
  auto starved = MakeDb(1024, /*pool_frames=*/64, /*mpl=*/64);
  auto crr = roomy->Connect();
  auto cr = std::move(*crr);
  auto csr = starved->Connect();
  auto cs = std::move(*csr);

  const char* sql = "SELECT a, b, v, s FROM t WHERE a < 500";
  auto rr = cr->Execute(sql);
  auto rs = cs->Execute(sql);
  ASSERT_TRUE(rr.ok() && rs.ok());
  EXPECT_EQ(rr->exec_stats.batch_cap_shrinks, 0u);
  EXPECT_GT(rs->exec_stats.batch_cap_shrinks, 0u);
  EXPECT_EQ(Canon(*rr), Canon(*rs));
}

}  // namespace
}  // namespace hdb
