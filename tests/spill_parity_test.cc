// Spill-scheduler parity: every query must return the same result set no
// matter how starved the statement's memory quota is. The starved
// database pins the soft limit to a single page (64 frames / mpl 64), so
// every blocking operator — hash join build, hash aggregate, hash
// distinct, sort — is forced through the statement-scoped spill
// scheduler: victim selection, partition eviction, external-merge runs,
// and grace-hash re-partitioning of oversized spilled partitions
// (DESIGN.md §10). A divergence means a spill path lost, duplicated, or
// reordered rows.
//
// Also pins the observability contracts riding on the scheduler: EXPLAIN
// ANALYZE renders `spilled=<B>B/<N>t` actuals, sys.governors carries one
// row per victim choice, and the exec.spill.* statement counters move.
// The Concurrent case runs spill-heavy statements from several threads
// against one starved database so the sanitizer matrix (TSan) checks the
// task-memory latch, the DecisionLog, and the shared temp-page path.
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

/// The batch-parity corpus's first 20 queries, then the hash-join
/// key-filter inputs: every operator with a spill path plus the
/// scan/filter/projection plumbing around them.
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
    // Hash-join key filters (DESIGN.md §9), with build partitions that
    // spill on the starved database: NULL probe keys, an INT probe key
    // against integral DOUBLE build keys, a hash join above a re-opening
    // nested-loop inner, and a selective build over a wide probe.
    "SELECT t.a, d.w FROM t JOIN d ON t.b = d.id",
    "SELECT t.a, f.y FROM t JOIN f ON t.j = f.x",
    "SELECT t.a, e.x, d.w FROM t JOIN e ON t.a < e.y JOIN d ON t.j = d.id "
    "WHERE t.a < 60",
    "SELECT big1.a, big2.v FROM big1 JOIN big2 ON big1.a = big2.a "
    "WHERE big1.j < 64",
};

/// `big1`/`big2` give the acceptance-criteria workload: a hash-join build
/// side and a sort input each tens of pages wide while the starved soft
/// limit is one page — comfortably past the required 10x.
std::unique_ptr<engine::Database> MakeDb(size_t pool_frames, int mpl) {
  engine::DatabaseOptions opts;
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
  st = (*conn)->Execute(
      "CREATE TABLE big1 (a INT NOT NULL, j INT NOT NULL, v DOUBLE)");
  EXPECT_TRUE(st.ok());
  st = (*conn)->Execute(
      "CREATE TABLE big2 (a INT NOT NULL, j INT NOT NULL, v DOUBLE)");
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
  for (const char* big : {"big1", "big2"}) {
    rows.clear();
    for (int i = 0; i < 2000; ++i) {
      rows.push_back(
          {Value::Int(i),
           Value::Int(static_cast<int32_t>(rng.Uniform(512))),
           Value::Double(static_cast<double>(rng.Uniform(100000)) / 100.0)});
    }
    EXPECT_TRUE((*db)->LoadTable(big, rows).ok());
  }
  // Loaded last, so the tables above stay byte-identical to earlier
  // corpora. e.y drives a nested-loop join; f.x holds integral DOUBLEs
  // that t.j (INT) joins by value, and halves that join nothing.
  st = (*conn)->Execute("CREATE TABLE e (x INT NOT NULL, y INT NOT NULL)");
  EXPECT_TRUE(st.ok());
  rows.clear();
  for (int i = 0; i < 24; ++i) {
    rows.push_back({Value::Int(i),
                    Value::Int(static_cast<int32_t>(rng.Uniform(100)))});
  }
  EXPECT_TRUE((*db)->LoadTable("e", rows).ok());
  st = (*conn)->Execute("CREATE TABLE f (x DOUBLE NOT NULL, y INT NOT NULL)");
  EXPECT_TRUE(st.ok());
  rows.clear();
  for (int i = 0; i < 32; ++i) {
    rows.push_back({Value::Double(i % 4 == 3 ? i + 0.5 : i * 2.0),
                    Value::Int(i)});
  }
  EXPECT_TRUE((*db)->LoadTable("f", rows).ok());
  return std::move(*db);
}

std::unique_ptr<engine::Database> RoomyDb() {
  return MakeDb(/*pool_frames=*/4096, /*mpl=*/4);
}
std::unique_ptr<engine::Database> StarvedDb() {
  return MakeDb(/*pool_frames=*/64, /*mpl=*/64);  // soft limit: one page
}

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

TEST(SpillParity, CorpusMatchesUnconstrainedRun) {
  auto roomy = RoomyDb();
  auto starved = StarvedDb();
  auto crr = roomy->Connect();
  auto cr = std::move(*crr);
  auto csr = starved->Connect();
  auto cs = std::move(*csr);

  for (const char* sql : kCorpus) {
    auto rr = cr->Execute(sql);
    auto rs = cs->Execute(sql);
    ASSERT_TRUE(rr.ok()) << sql << ": " << rr.status().ToString();
    ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    const auto want = Canon(*rr);
    EXPECT_EQ(want, Canon(*rs)) << "starved quota diverged: " << sql;
    EXPECT_FALSE(want.empty()) << "degenerate corpus entry: " << sql;
  }
}

// Acceptance criteria: hash join and ORDER BY whose inputs are ≥10x the
// statement soft limit (one page starved vs ~25+ pages of build/sort
// state) complete with results identical to the unconstrained run, and
// the statement counters prove the scheduler actually ran.
TEST(SpillParity, JoinAndSortTenTimesOverSoftLimit) {
  auto roomy = RoomyDb();
  auto starved = StarvedDb();
  auto crr = roomy->Connect();
  auto cr = std::move(*crr);
  auto csr = starved->Connect();
  auto cs = std::move(*csr);

  const char* join_sql =
      "SELECT big1.a, big2.v FROM big1 JOIN big2 ON big1.j = big2.j "
      "WHERE big2.a < 1500";
  auto rr = cr->Execute(join_sql);
  auto rs = cs->Execute(join_sql);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(rr->rows.size(), 1000u);  // the workload is genuinely large
  EXPECT_EQ(Canon(*rr), Canon(*rs));
  EXPECT_EQ(rr->exec_stats.spill_bytes_written, 0u);
  EXPECT_GT(rs->exec_stats.spill_bytes_written, 0u);
  EXPECT_GT(rs->exec_stats.spill_bytes_read, 0u);
  EXPECT_GT(rs->exec_stats.spill_decisions, 0u);

  const char* sort_sql = "SELECT a, j, v FROM big1 ORDER BY v, a";
  rr = cr->Execute(sort_sql);
  rs = cs->Execute(sort_sql);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rr->rows.size(), rs->rows.size());
  // Ordered: compare row for row, not canonicalized.
  for (size_t i = 0; i < rr->rows.size(); ++i) {
    for (size_t c = 0; c < rr->rows[i].size(); ++c) {
      ASSERT_EQ(rr->rows[i][c].ToString(), rs->rows[i][c].ToString())
          << "row " << i << " col " << c;
    }
  }
  EXPECT_GT(rs->exec_stats.sort_runs_spilled, 0u);
}

// HashDistinct's deferred/drain path: a distinct key set far past the
// starved one-page limit makes the operator dump its emitted keys, defer
// later rows to a candidate file and drain them at end of input. The
// result matches the roomy run; above an ORDER BY the drain's arrival
// order keeps the sorted order row for row.
TEST(SpillParity, DistinctDrainMatchesUnconstrainedRun) {
  auto roomy = RoomyDb();
  auto starved = StarvedDb();
  auto crr = roomy->Connect();
  auto cr = std::move(*crr);
  auto csr = starved->Connect();
  auto cs = std::move(*csr);

  const char* sql = "SELECT DISTINCT j, a / 4 FROM big1";
  auto rr = cr->Execute(sql);
  auto rs = cs->Execute(sql);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(rr->rows.size(), 1000u);
  EXPECT_LT(rr->rows.size(), 2000u);  // duplicates to drop while deferred
  EXPECT_EQ(Canon(*rr), Canon(*rs));
  EXPECT_EQ(rr->exec_stats.spill_bytes_written, 0u);
  EXPECT_GT(rs->exec_stats.spill_bytes_written, 0u);
  EXPECT_GT(rs->exec_stats.spill_bytes_read, 0u);

  const char* ordered = "SELECT DISTINCT j, a / 4 FROM big1 ORDER BY j DESC";
  rr = cr->Execute(ordered);
  rs = cs->Execute(ordered);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rr->rows.size(), rs->rows.size());
  for (size_t i = 0; i < rr->rows.size(); ++i) {
    for (size_t c = 0; c < rr->rows[i].size(); ++c) {
      ASSERT_EQ(rr->rows[i][c].ToString(), rs->rows[i][c].ToString())
          << "row " << i << " col " << c;
    }
  }
  EXPECT_GT(rs->exec_stats.spill_bytes_written, 0u);
}

// The scheduler's victim choices are observable: one sys.governors row
// per spill decision, governor='memory', action='spill', with the victim
// operator named in the reason.
TEST(SpillParity, SpillDecisionsVisibleInSysGovernors) {
  auto db = StarvedDb();
  auto connr = db->Connect();
  auto conn = std::move(*connr);
  auto big = conn->Execute(
      "SELECT big1.a, big2.v FROM big1 JOIN big2 ON big1.j = big2.j");
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  ASSERT_GT(big->exec_stats.spill_decisions, 0u);

  auto gov = conn->Execute("SELECT governor, action, reason FROM sys.governors");
  ASSERT_TRUE(gov.ok()) << gov.status().ToString();
  size_t spill_rows = 0;
  bool victim_named = false;
  for (const auto& row : gov->rows) {
    if (row[0].AsString() == "memory" && row[1].AsString() == "spill") {
      ++spill_rows;
      if (row[2].AsString().find("victim=") != std::string::npos) {
        victim_named = true;
      }
    }
  }
  EXPECT_GT(spill_rows, 0u);
  EXPECT_TRUE(victim_named);
}

// EXPLAIN ANALYZE regression pin: operators that spilled render
// `spilled=<bytes>B/<tuples>t` in their actuals block; an unconstrained
// run renders no spilled= at all.
TEST(SpillParity, ExplainAnalyzeRendersSpilledActuals) {
  auto starved = StarvedDb();
  auto csr = starved->Connect();
  auto cs = std::move(*csr);
  auto r = cs->Execute(
      "EXPLAIN ANALYZE SELECT big1.a, big2.v FROM big1 "
      "JOIN big2 ON big1.j = big2.j");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const size_t at = r->explain.find(" spilled=");
  ASSERT_NE(at, std::string::npos) << r->explain;
  // Shape: spilled=<digits>B/<digits>t
  const std::string tail = r->explain.substr(at + 9, 40);
  const size_t slash = tail.find("B/");
  ASSERT_NE(slash, std::string::npos) << tail;
  EXPECT_GT(std::stoull(tail.substr(0, slash)), 0u);
  EXPECT_GT(std::stoull(tail.substr(slash + 2)), 0u);

  auto roomy = RoomyDb();
  auto crr = roomy->Connect();
  auto cr = std::move(*crr);
  r = cr->Execute(
      "EXPLAIN ANALYZE SELECT big1.a, big2.v FROM big1 "
      "JOIN big2 ON big1.j = big2.j");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->explain.find("spilled="), std::string::npos) << r->explain;
}

// Shared-database case for the sanitizer matrix: several threads push
// spill-heavy statements through one starved database. Each statement has
// its own TaskMemoryContext, but the DecisionLog, metrics registry, and
// temp-page allocation are shared; TSan must stay quiet.
TEST(SpillParity, ConcurrentSpillingStatementsAgree) {
  auto db = StarvedDb();
  auto refr = db->Connect();
  auto ref_conn = std::move(*refr);
  const char* kSpillCorpus[] = {
      "SELECT big1.a, big2.v FROM big1 JOIN big2 ON big1.j = big2.j "
      "WHERE big2.a < 500",
      "SELECT j, COUNT(*), SUM(v) FROM big1 GROUP BY j",
      "SELECT a, v FROM big2 ORDER BY v LIMIT 100",
      // Without a LIMIT the sort is not top-N: it spills runs and merges.
      "SELECT a, v FROM big2 ORDER BY v",
  };
  std::vector<std::vector<std::string>> want;
  for (const char* sql : kSpillCorpus) {
    auto r = ref_conn->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    want.push_back(Canon(*r));
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto connr = db->Connect();
      auto conn = std::move(*connr);
      for (int round = 0; round < 2; ++round) {
        for (size_t q = 0; q < std::size(kSpillCorpus); ++q) {
          auto r = conn->Execute(kSpillCorpus[q]);
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

}  // namespace
}  // namespace hdb
