// Tests for the cross-cutting adaptive mechanisms added on top of the
// base build: parameterized cached plans, governor ablation modes,
// min-score victim selection, and the DTT model across devices.
#include <gtest/gtest.h>

#include "engine/database.h"
#include "optimizer/governor.h"
#include "os/virtual_disk.h"
#include "storage/clock_replacer.h"

namespace hdb {
namespace {

struct Db {
  explicit Db(engine::DatabaseOptions opts = {}) {
    auto opened = engine::Database::Open(opts);
    EXPECT_TRUE(opened.ok());
    database = std::move(*opened);
    auto c = database->Connect();
    EXPECT_TRUE(c.ok());
    conn = std::move(*c);
  }
  engine::QueryResult Exec(const std::string& sql) {
    auto r = conn->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : engine::QueryResult{};
  }
  std::unique_ptr<engine::Database> database;
  std::unique_ptr<engine::Connection> conn;
};

// --- Parameterized plans through the cache (§4.1) ---

TEST(ParamPlanTest, CachedPlanUsesIndexWithRuntimeBounds) {
  Db db;
  db.Exec("CREATE TABLE t (k INT NOT NULL, v INT)");
  std::vector<table::Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int(i % 100), Value::Int(i)});
  }
  ASSERT_TRUE(db.database->LoadTable("t", rows).ok());
  db.Exec("CREATE INDEX tk ON t (k)");
  db.Exec("CREATE PROCEDURE pk (:k) AS SELECT v FROM t WHERE k = :k");

  // Train, then verify the cached plan scans dramatically fewer rows than
  // a sequential scan would (index bound evaluated from the parameter).
  for (int i = 0; i < 6; ++i) db.Exec("CALL pk(3)");
  auto r = db.Exec("CALL pk(7)");
  EXPECT_EQ(r.rows.size(), 50u);
  EXPECT_LT(r.exec_stats.rows_scanned, 200u)
      << "cached plan should probe the index, not scan 5000 rows";
  for (const auto& row : r.rows) {
    EXPECT_EQ(row[0].AsInt() % 100, 7);
  }
  EXPECT_GT(db.conn->plan_cache().stats().cached_uses, 0u);
}

TEST(ParamPlanTest, ParamRangePredicates) {
  Db db;
  db.Exec("CREATE TABLE t (k INT NOT NULL)");
  for (int i = 0; i < 100; ++i) {
    db.Exec("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  db.Exec("CREATE INDEX tk ON t (k)");
  db.Exec("CREATE PROCEDURE below (:x) AS "
          "SELECT COUNT(*) FROM t WHERE k < :x");
  EXPECT_EQ(db.Exec("CALL below(10)").rows[0][0].AsInt(), 10);
  EXPECT_EQ(db.Exec("CALL below(90)").rows[0][0].AsInt(), 90);
  EXPECT_EQ(db.Exec("CALL below(0)").rows[0][0].AsInt(), 0);
}

TEST(ParamPlanTest, FingerprintIndependentOfParamValues) {
  Db db;
  db.Exec("CREATE TABLE t (k INT NOT NULL)");
  db.Exec("INSERT INTO t VALUES (1), (2), (3)");
  db.Exec("CREATE PROCEDURE g (:k) AS SELECT k FROM t WHERE k = :k");
  // Different argument values during training must still converge (the
  // plan shape is identical; only bound values differ).
  for (int i = 0; i < 6; ++i) {
    db.Exec("CALL g(" + std::to_string(i % 3 + 1) + ")");
  }
  EXPECT_GT(db.conn->plan_cache().stats().trainings_completed, 0u);
}

// --- Governor ablation modes ---

TEST(GovernorModesTest, NonDistributingModeIsGlobalCountdown) {
  optimizer::GovernorOptions opts;
  opts.initial_quota = 10;
  opts.distribute = false;
  optimizer::OptimizerGovernor gov(opts);
  gov.EnterChild();
  gov.EnterChild();
  int visits = 0;
  while (gov.TryVisit()) ++visits;
  EXPECT_EQ(visits, 10);  // the whole budget flowed down undivided
  gov.LeaveChild();
  gov.LeaveChild();
  EXPECT_TRUE(gov.Exhausted());
}

TEST(GovernorModesTest, DistributingModeSplitsAcrossChildren) {
  optimizer::GovernorOptions opts;
  opts.initial_quota = 16;
  optimizer::OptimizerGovernor gov(opts);
  gov.EnterChild();  // 8
  int c1 = 0;
  while (gov.TryVisit()) ++c1;
  gov.LeaveChild();
  gov.EnterChild();  // (8 remaining)/2 = 4
  int c2 = 0;
  while (gov.TryVisit()) ++c2;
  gov.LeaveChild();
  EXPECT_EQ(c1, 8);
  EXPECT_EQ(c2, 4);
}

// --- Victim selection properties (§2.2) ---

TEST(ClockVictimTest, MinScoreFrameEvictedNotFirstUnpinned) {
  storage::ClockReplacer clock(4);
  // Frame 0: very hot (referenced across many segments). Frames 1-3: cold.
  for (int round = 0; round < 40; ++round) {
    clock.RecordReference(0);
    for (uint32_t f = 1; f < 4; ++f) clock.RecordReference(f);
  }
  // Extra cross-segment refs for frame 0 only.
  for (int round = 0; round < 40; ++round) {
    clock.RecordReference(0);
    clock.RecordReference(1);
  }
  for (uint32_t f = 0; f < 4; ++f) clock.SetEvictable(f, true);
  const auto victim = clock.Victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, 0u);  // the hot frame survives
}

TEST(ClockVictimTest, EvictionBurstPreservesHotSet) {
  // Repeated evictions without intervening references must not erode the
  // hot frames' protection (the failure mode of decrement-to-zero GCLOCK).
  storage::ClockReplacer clock(16);
  // Cold frames: touched once (a scan's single pass).
  for (uint32_t f = 4; f < 16; ++f) clock.RecordReference(f);
  // Hot frames: re-referenced across many segments.
  for (int round = 0; round < 50; ++round) {
    for (uint32_t f = 0; f < 4; ++f) clock.RecordReference(f);
    for (uint32_t f = 4; f < 16; ++f) clock.RecordReference(f % 4);
  }
  for (uint32_t f = 0; f < 16; ++f) clock.SetEvictable(f, true);
  // Evict half the pool in one burst.
  for (int i = 0; i < 8; ++i) {
    const auto victim = clock.Victim();
    ASSERT_TRUE(victim.has_value());
    EXPECT_GE(*victim, 4u) << "hot frame evicted during burst " << i;
  }
}

// --- DTT model across devices (parameterized sweep) ---

struct DttCase {
  const char* name;
  bool rotational;
  uint32_t page_bytes;
};

// Without this, gtest prints the case as raw bytes: the name pointer's
// address plus padding, which changes from run to run and would make the
// ctest test names (built from --gtest_list_tests) unstable.
void PrintTo(const DttCase& c, std::ostream* os) {
  *os << (c.rotational ? "rotational " : "flash ") << c.page_bytes;
}

class DttDeviceSweep : public ::testing::TestWithParam<DttCase> {};

TEST_P(DttDeviceSweep, CalibratedModelMatchesDeviceShape) {
  const DttCase& c = GetParam();
  std::unique_ptr<os::VirtualDisk> disk;
  if (c.rotational) {
    os::RotationalDiskOptions opts;
    opts.page_bytes = c.page_bytes;
    disk = std::make_unique<os::RotationalDisk>(opts);
  } else {
    os::FlashDiskOptions opts;
    opts.page_bytes = c.page_bytes;
    disk = std::make_unique<os::FlashDisk>(opts);
  }
  const os::DttModel model = os::CalibrateDisk(*disk, {});
  const double seq = model.MicrosPerPage(os::DttOp::kRead, c.page_bytes, 1);
  const double rnd =
      model.MicrosPerPage(os::DttOp::kRead, c.page_bytes, 1 << 18);
  if (c.rotational) {
    EXPECT_GT(rnd, seq * 5) << "rotational devices pay for seeks";
  } else {
    EXPECT_NEAR(rnd, seq, seq * 0.3) << "flash is position-independent";
    EXPECT_GT(model.MicrosPerPage(os::DttOp::kWrite, c.page_bytes, 64),
              rnd * 2)
        << "flash writes are much slower than reads";
  }
  // Round-trip through the catalog text form.
  auto parsed = os::DttModel::Parse(model.Serialize());
  ASSERT_TRUE(parsed.ok());
  const double want =
      model.MicrosPerPage(os::DttOp::kRead, c.page_bytes, 1000);
  EXPECT_NEAR(parsed->MicrosPerPage(os::DttOp::kRead, c.page_bytes, 1000),
              want, want * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, DttDeviceSweep,
    ::testing::Values(DttCase{"hdd4k", true, 4096},
                      DttCase{"hdd8k", true, 8192},
                      DttCase{"sd4k", false, 4096},
                      DttCase{"sd2k", false, 2048}),
    [](const auto& info) { return std::string(info.param.name); });

// --- Index probing (§3) ---

TEST(IndexProbingTest, LongStringEqualityProbedThroughIndex) {
  Db db;
  db.Exec("CREATE TABLE docs (body VARCHAR(300))");
  std::vector<table::Row> rows;
  const std::string filler(120, 'z');
  for (int i = 0; i < 2000; ++i) {
    // 10% of rows share one long value; the rest are unique.
    const std::string v =
        (i % 10 == 0) ? "needle-" + filler
                      : "hay-" + std::to_string(i) + "-" + filler;
    rows.push_back({Value::String(v)});
  }
  ASSERT_TRUE(db.database->LoadTable("docs", rows).ok());
  db.Exec("CREATE INDEX docs_body ON docs (body)");

  const uint32_t oid = db.database->catalog().GetTable("docs").value()->oid;
  // Long-string column: the histogram infrastructure is out; no feedback
  // bucket exists yet. The registry alone can only guess the default...
  EXPECT_DOUBLE_EQ(db.database->stats().SelEquals(
                       oid, 0, Value::String("needle-" + filler)),
                   stats::DefaultSelectivity::kEquals);
  // ...but the estimator probes the index and lands near the truth (10%).
  optimizer::SelectivityEstimator est(&db.database->stats(),
                                      &db.database->catalog(),
                                      db.database->IndexProber());
  optimizer::Query q;
  q.quantifiers.push_back(
      {*db.database->catalog().GetTable("docs"), "docs"});
  const auto pred = optimizer::Expr::Compare(
      optimizer::CompareOp::kEq,
      optimizer::Expr::Column(0, 0, TypeId::kVarchar, "body"),
      optimizer::Expr::Literal(Value::String("needle-" + filler)));
  // Note: the op-hash truncates to 7 bytes, so "needle-…" probes may also
  // count colliding prefixes; all needles share the prefix, hay rows do
  // not (they start "hay-"), so the probe is exact here.
  EXPECT_NEAR(est.LocalSelectivity(q, 0, pred), 0.10, 0.02);
}

TEST(IndexProbingTest, NoProbeWithoutIndexFallsBackToDefault) {
  Db db;
  db.Exec("CREATE TABLE docs (body VARCHAR(300))");
  std::vector<table::Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value::String(std::string(100, 'q'))});
  }
  ASSERT_TRUE(db.database->LoadTable("docs", rows).ok());
  optimizer::SelectivityEstimator est(&db.database->stats(),
                                      &db.database->catalog(),
                                      db.database->IndexProber());
  optimizer::Query q;
  q.quantifiers.push_back(
      {*db.database->catalog().GetTable("docs"), "docs"});
  const auto pred = optimizer::Expr::Compare(
      optimizer::CompareOp::kEq,
      optimizer::Expr::Column(0, 0, TypeId::kVarchar, "body"),
      optimizer::Expr::Literal(Value::String("nope")));
  EXPECT_DOUBLE_EQ(est.LocalSelectivity(q, 0, pred),
                   stats::DefaultSelectivity::kEquals);
}

// --- EXPLAIN renders adaptive annotations ---

TEST(ExplainTest, HashJoinShowsMemoryQuotaAndAltStrategy) {
  Db db;
  db.Exec("CREATE TABLE big (k INT NOT NULL, v INT)");
  db.Exec("CREATE TABLE small (k INT NOT NULL)");
  std::vector<table::Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i)});
  }
  ASSERT_TRUE(db.database->LoadTable("big", rows).ok());
  db.Exec("CREATE INDEX big_k ON big (k)");
  std::vector<table::Row> srows;
  for (int i = 0; i < 500; ++i) srows.push_back({Value::Int(i)});
  ASSERT_TRUE(db.database->LoadTable("small", srows).ok());

  auto explain = db.conn->Explain(
      "SELECT COUNT(*) FROM big JOIN small ON big.k = small.k");
  ASSERT_TRUE(explain.ok());
  // Some join strategy rendered with row/cost estimates.
  EXPECT_NE(explain->find("rows="), std::string::npos);
  EXPECT_NE(explain->find("Join"), std::string::npos);
}

// --- Windows CE database profile end to end ---

TEST(CeProfileTest, FlashDeviceAndCeGovernorWorkTogether) {
  engine::DatabaseOptions opts;
  opts.device = engine::DeviceKind::kFlash;
  opts.pool_governor.ce_mode = true;
  opts.physical_memory_bytes = 32ull << 20;
  opts.initial_pool_frames = 768;
  Db db(opts);
  ASSERT_TRUE(db.conn->Execute("CALIBRATE DATABASE").ok());
  db.Exec("CREATE TABLE t (a INT)");
  db.Exec("INSERT INTO t VALUES (1), (2)");
  EXPECT_EQ(db.Exec("SELECT COUNT(*) FROM t").rows[0][0].AsInt(), 2);
  EXPECT_FALSE(db.database->catalog().dtt_model().is_default());
}

}  // namespace
}  // namespace hdb
