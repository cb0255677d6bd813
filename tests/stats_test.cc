#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/ophash.h"
#include "common/rng.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "optimizer/plan.h"
#include "stats/feedback.h"
#include "stats/greenwald.h"
#include "stats/histogram.h"
#include "stats/join_histogram.h"
#include "stats/proc_stats.h"
#include "stats/stats_registry.h"
#include "stats/string_stats.h"

namespace hdb::stats {
namespace {

// --- Greenwald sketch ---

TEST(GreenwaldTest, QuantilesAccurateOnUniformStream) {
  GreenwaldSketch sketch(0.01);
  Rng rng(1);
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    sketch.Insert(static_cast<double>(rng.Uniform(100000)));
  }
  for (const double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double q = sketch.Quantile(phi);
    EXPECT_NEAR(q / 100000.0, phi, 0.05) << phi;
  }
}

TEST(GreenwaldTest, SketchMuchSmallerThanInput) {
  GreenwaldSketch sketch(0.01);
  for (int i = 0; i < 100000; ++i) sketch.Insert(i * 0.5);
  EXPECT_LT(sketch.tuple_count(), 4000u);
  EXPECT_EQ(sketch.count(), 100000u);
}

TEST(GreenwaldTest, EquiDepthBoundariesMonotone) {
  GreenwaldSketch sketch;
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    sketch.Insert(rng.NextDouble() * 1000);
  }
  const auto bounds = sketch.EquiDepthBoundaries(20);
  ASSERT_GE(bounds.size(), 10u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

// --- Histogram ---

std::vector<double> UniformValues(int n, int domain, uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (int i = 0; i < n; ++i) {
    v.push_back(static_cast<double>(rng.Uniform(domain)));
  }
  return v;
}

TEST(HistogramTest, UniformEqualityNearTruth) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(50000, 1000));
  // True selectivity ~ 1/1000.
  EXPECT_NEAR(h.EstimateEquals(500), 0.001, 0.0015);
}

TEST(HistogramTest, UniformRangeNearTruth) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(50000, 1000));
  const double est = h.EstimateRange(100, true, 299, true);
  EXPECT_NEAR(est, 0.2, 0.04);
}

TEST(HistogramTest, OpenRangesCoverDomain) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(10000, 1000));
  EXPECT_NEAR(h.EstimateRange(h.min_value(), true, h.max_value(), true), 1.0,
              0.05);
  EXPECT_EQ(h.EstimateRange(5000, true, 6000, true), 0.0);  // outside
}

TEST(HistogramTest, SkewedValueBecomesSingleton) {
  // 30% of rows share one value: must be captured as a singleton bucket.
  std::vector<double> values = UniformValues(7000, 1000);
  for (int i = 0; i < 3000; ++i) values.push_back(777777.0);
  auto h = Histogram::Build(TypeId::kInt, std::move(values));
  EXPECT_GE(h.singleton_count(), 1u);
  EXPECT_NEAR(h.EstimateEquals(777777.0), 0.3, 0.02);
  // Non-frequent values estimated via density, not dragged up by the spike.
  EXPECT_LT(h.EstimateEquals(500), 0.01);
}

TEST(HistogramTest, ZipfCapturesTopSingletons) {
  ZipfGenerator zipf(5000, 1.1, 5);
  std::vector<double> values;
  for (int i = 0; i < 40000; ++i) {
    values.push_back(static_cast<double>(zipf.Next()));
  }
  auto h = Histogram::Build(TypeId::kInt, std::move(values));
  EXPECT_GE(h.singleton_count(), 5u);
  EXPECT_LE(h.singleton_count(), 100u);  // the paper's cap
  // Rank-0 value dominates and is estimated accurately.
  EXPECT_GT(h.EstimateEquals(0.0), 0.05);
}

TEST(HistogramTest, AllSingletonsCompressedForm) {
  // A 3-valued column: every value is frequent.
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back(i % 3);
  auto h = Histogram::Build(TypeId::kInt, std::move(values));
  EXPECT_TRUE(h.all_singletons());
  EXPECT_NEAR(h.EstimateEquals(1.0), 1.0 / 3, 0.01);
}

TEST(HistogramTest, NullsTracked) {
  auto h =
      Histogram::Build(TypeId::kInt, UniformValues(9000, 100), /*nulls=*/1000);
  EXPECT_NEAR(h.EstimateIsNull(), 0.1, 0.001);
  // Null rows dilute equality estimates (fraction of all rows).
  EXPECT_NEAR(h.EstimateEquals(50), 0.9 / 100, 0.004);
}

TEST(HistogramTest, DmlMaintenanceShiftsEstimates) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(10000, 100));
  const double before = h.EstimateRange(0, true, 9, true);
  // Insert a burst of rows in [0, 9].
  for (int i = 0; i < 5000; ++i) h.OnInsert(i % 10, false);
  const double after = h.EstimateRange(0, true, 9, true);
  EXPECT_GT(after, before * 1.5);
  EXPECT_NEAR(h.total_rows(), 15000, 1);
}

TEST(HistogramTest, DeleteMaintenance) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(10000, 100));
  for (int i = 0; i < 4000; ++i) h.OnDelete(i % 100, false);
  EXPECT_NEAR(h.total_rows(), 6000, 1);
}

TEST(HistogramTest, EqualityFeedbackCreatesSingleton) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(10000, 1000));
  // Execution reveals that value 42 actually matches 5% of rows.
  h.FeedbackEquals(42.0, 0.05);
  EXPECT_NEAR(h.EstimateEquals(42.0), 0.05, 0.02);
  EXPECT_GE(h.singleton_count(), 1u);
}

TEST(HistogramTest, RangeFeedbackConvergesToObservation) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(10000, 1000));
  // The data drifted: [0, 99] now holds 60% of rows, not ~10%.
  for (int i = 0; i < 12; ++i) h.FeedbackRange(0, 99, 0.6);
  EXPECT_NEAR(h.EstimateRange(0, true, 99, true), 0.6, 0.12);
}

TEST(HistogramTest, BucketsSplitUnderConcentration) {
  Histogram::Options opts;
  opts.restructure_period = 8;
  auto h =
      Histogram::Build(TypeId::kInt, UniformValues(10000, 1000), 0, opts);
  const size_t before = h.bucket_count();
  // Concentrate mass into one bucket via feedback, repeatedly.
  for (int i = 0; i < 40; ++i) h.FeedbackRange(0, 50, 0.7);
  EXPECT_GT(h.bucket_count(), before);
}

TEST(HistogramTest, DistinctEstimateReasonable) {
  auto h = Histogram::Build(TypeId::kInt, UniformValues(50000, 750));
  EXPECT_NEAR(h.EstimateDistinct(), 750, 40);
}

// --- String statistics ---

TEST(StringStatsTest, PredicateBucketsRemembered) {
  StringStats s;
  s.RecordPredicate(StringPredicate::kEquals, "widget", 0.02);
  bool found = false;
  EXPECT_NEAR(s.Estimate(StringPredicate::kEquals, "widget", &found), 0.02,
              1e-9);
  EXPECT_TRUE(found);
  s.Estimate(StringPredicate::kEquals, "unknown", &found);
  EXPECT_FALSE(found);
}

TEST(StringStatsTest, PredicateKindsDisambiguated) {
  StringStats s;
  s.RecordPredicate(StringPredicate::kEquals, "x", 0.5);
  s.RecordPredicate(StringPredicate::kLike, "x", 0.1);
  bool found = false;
  EXPECT_NEAR(s.Estimate(StringPredicate::kLike, "x", &found), 0.1, 1e-9);
}

TEST(StringStatsTest, WordFrequenciesDriveLikeEstimates) {
  StringStats s;
  s.RecordValue("the quick brown fox");
  s.RecordValue("the lazy dog");
  s.RecordValue("a quick test");
  s.RecordValue("nothing here");
  bool found = false;
  EXPECT_NEAR(s.EstimateLikeWord("quick", &found), 0.5, 1e-9);
  EXPECT_TRUE(found);
  EXPECT_NEAR(s.EstimateLikeWord("the", &found), 0.5, 1e-9);
  s.EstimateLikeWord("zebra", &found);
  EXPECT_FALSE(found);
}

TEST(StringStatsTest, DeleteMaintainsWordCounts) {
  StringStats s;
  s.RecordValue("alpha beta");
  s.RecordValue("alpha");
  s.RecordDelete("alpha");
  bool found = false;
  EXPECT_NEAR(s.EstimateLikeWord("alpha", &found), 1.0, 1e-9);
}

TEST(StringStatsTest, LruBoundsBucketCount) {
  StringStats s(/*max_buckets=*/16);
  for (int i = 0; i < 100; ++i) {
    s.RecordPredicate(StringPredicate::kEquals, "v" + std::to_string(i),
                      0.01);
  }
  EXPECT_LE(s.bucket_count(), 16u);
  // Most recent still present.
  bool found = false;
  s.Estimate(StringPredicate::kEquals, "v99", &found);
  EXPECT_TRUE(found);
}

// --- Join histograms ---

TEST(JoinHistogramTest, ForeignKeyShapedJoin) {
  // Parent: 1000 distinct ids. Child: 20000 rows uniform over those ids.
  std::vector<double> parent;
  for (int i = 0; i < 1000; ++i) parent.push_back(i);
  auto hp = Histogram::Build(TypeId::kInt, parent);
  auto hc = Histogram::Build(TypeId::kInt, UniformValues(20000, 1000));
  const JoinHistogram jh(hc, hp);
  // True selectivity = 1/1000 of the cross product.
  EXPECT_NEAR(jh.selectivity(), 0.001, 0.0005);
}

TEST(JoinHistogramTest, DisjointDomainsDoNotJoin) {
  std::vector<double> a, b;
  for (int i = 0; i < 1000; ++i) a.push_back(i);
  for (int i = 5000; i < 6000; ++i) b.push_back(i);
  const JoinHistogram jh(Histogram::Build(TypeId::kInt, a),
                         Histogram::Build(TypeId::kInt, b));
  EXPECT_LT(jh.selectivity(), 1e-4);
}

TEST(JoinHistogramTest, SkewHandledThroughSingletons) {
  // Both sides share a heavy value: naive 1/distinct underestimates badly.
  std::vector<double> a = UniformValues(5000, 1000, 7);
  std::vector<double> b = UniformValues(5000, 1000, 8);
  for (int i = 0; i < 5000; ++i) {
    a.push_back(42.0);
    b.push_back(42.0);
  }
  const auto ha = Histogram::Build(TypeId::kInt, a);
  const auto hb = Histogram::Build(TypeId::kInt, b);
  const JoinHistogram jh(ha, hb);
  // True: the 42x42 pairs alone contribute (5000*5000)/(10^8) = 0.25.
  EXPECT_GT(jh.selectivity(), 0.15);
  EXPECT_GT(jh.singleton_singleton_pairs(), 0.0);
}

// --- Procedure statistics ---

TEST(ProcStatsTest, MovingAverageAndVariants) {
  ProcStatsRegistry reg;
  for (int i = 0; i < 10; ++i) reg.Record("p", 1, 100.0, 10.0);
  bool found = false;
  auto est = reg.Estimate("p", 1, &found);
  ASSERT_TRUE(found);
  EXPECT_NEAR(est.avg_cpu_micros, 100.0, 1.0);

  // A parameter value that behaves very differently gets its own entry.
  for (int i = 0; i < 5; ++i) reg.Record("p", 99, 5000.0, 800.0);
  est = reg.Estimate("p", 99, &found);
  ASSERT_TRUE(found);
  EXPECT_GT(est.avg_cpu_micros, 1000.0);
  // The default estimate is still near the typical case.
  est = reg.Estimate("p", 1234, &found);
  EXPECT_LT(est.avg_cpu_micros, 3000.0);
  EXPECT_EQ(reg.variant_count("p"), 1u);
}

TEST(ProcStatsTest, UnknownProcedureNotFound) {
  ProcStatsRegistry reg;
  bool found = true;
  reg.Estimate("nope", 0, &found);
  EXPECT_FALSE(found);
}

// --- Registry + feedback collector ---

catalog::TableDef RegistrySchema() {
  catalog::TableDef def;
  def.oid = 5;
  def.name = "r";
  def.columns = {{"k", TypeId::kInt, true}, {"s", TypeId::kVarchar, true}};
  return def;
}

TEST(StatsRegistryTest, BuildAndEstimate) {
  StatsRegistry reg;
  const auto def = RegistrySchema();
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) values.push_back(Value::Int(i % 100));
  reg.BuildColumn(def, 0, values);
  EXPECT_TRUE(reg.HasStats(5, 0));
  EXPECT_NEAR(reg.SelEquals(5, 0, Value::Int(5)), 0.01, 0.005);
  EXPECT_NEAR(reg.SelRange(5, 0, nullptr, true, nullptr, true), 1.0, 0.05);
}

TEST(StatsRegistryTest, DefaultsWithoutStats) {
  StatsRegistry reg;
  EXPECT_DOUBLE_EQ(reg.SelEquals(9, 0, Value::Int(1)),
                   DefaultSelectivity::kEquals);
  EXPECT_DOUBLE_EQ(reg.SelRange(9, 0, nullptr, true, nullptr, true),
                   DefaultSelectivity::kRange);
}

TEST(StatsRegistryTest, GreenwaldPathForLargeColumns) {
  StatsRegistry reg;
  const auto def = RegistrySchema();
  std::vector<Value> values;
  Rng rng(9);
  for (int i = 0; i < 60000; ++i) {
    values.push_back(Value::Int(static_cast<int32_t>(rng.Uniform(1000))));
  }
  reg.BuildColumn(def, 0, values, /*sketch_threshold=*/50000);
  EXPECT_NEAR(reg.SelRange(5, 0, &values[0], true, nullptr, true), 0.5, 0.45);
  const double sel =
      reg.SelRange(5, 0, nullptr, true, nullptr, true);
  EXPECT_GT(sel, 0.8);
}

TEST(StatsRegistryTest, LikePatternForms) {
  StatsRegistry reg;
  const auto def = RegistrySchema();
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(Value::String(i < 25 ? "alpha item" : "other thing"));
  }
  reg.BuildColumn(def, 1, values);
  // %word% via word statistics.
  EXPECT_NEAR(reg.SelLike(5, 1, "%alpha%"), 0.25, 0.02);
  // prefix% via histogram range over the hash domain.
  const double prefix_sel = reg.SelLike(5, 1, "alpha%");
  EXPECT_GT(prefix_sel, 0.1);
  EXPECT_LT(prefix_sel, 0.5);
}

TEST(StatsRegistryTest, LongStringsSwitchInfrastructure) {
  StatsRegistry reg;
  const auto def = RegistrySchema();
  std::vector<Value> values;
  const std::string long_str(200, 'z');
  for (int i = 0; i < 100; ++i) {
    values.push_back(Value::String(long_str + std::to_string(i)));
  }
  reg.BuildColumn(def, 1, values);
  const ColumnStats* cs = reg.Get(5, 1);
  ASSERT_NE(cs, nullptr);
  EXPECT_TRUE(cs->long_string);
  // Equality on long strings: observed-predicate buckets after feedback.
  reg.FeedbackEquals(5, 1, Value::String(long_str + "1"), 0.01);
  EXPECT_NEAR(reg.SelEquals(5, 1, Value::String(long_str + "1")), 0.01, 1e-6);
}

TEST(FeedbackCollectorTest, AggregatesAndFlushes) {
  StatsRegistry reg;
  const auto def = RegistrySchema();
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(Value::Int(i % 10));
  reg.BuildColumn(def, 0, values);

  FeedbackCollector fc;
  // Execution observes: k=3 matches 60% of rows now (data drifted),
  // reported per batch of 100 rows.
  for (int i = 0; i < 10; ++i) {
    fc.ObserveEquals(5, 0, Value::Int(3), /*seen=*/100, /*matched=*/60);
  }
  EXPECT_EQ(fc.pending(), 1u);
  fc.Flush(&reg);
  EXPECT_EQ(fc.pending(), 0u);
  EXPECT_GT(reg.SelEquals(5, 0, Value::Int(3)), 0.2);
}

TEST(FeedbackCollectorTest, MinRowsGuard) {
  StatsRegistry reg;
  const auto def = RegistrySchema();
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(Value::Int(i % 10));
  reg.BuildColumn(def, 0, values);
  const double before = reg.SelEquals(5, 0, Value::Int(3));

  FeedbackCollector fc(FeedbackOptions{.min_rows = 64});
  fc.ObserveEquals(5, 0, Value::Int(3), /*seen=*/10, /*matched=*/10);
  fc.Flush(&reg);
  // Too few observations: estimate unchanged.
  EXPECT_DOUBLE_EQ(reg.SelEquals(5, 0, Value::Int(3)), before);
}

// The executor reports each conjunct's outcomes once per batch; because
// conjuncts compact the batch in turn, every conjunct sees the same rows
// at any batch cap, so the collector's totals cannot depend on it.
TEST(FeedbackCollectorTest, BatchCapDoesNotChangeCounts) {
  auto db = engine::Database::Open();
  ASSERT_TRUE(db.ok());
  auto conn = (*db)->Connect();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(
      (*conn)->Execute("CREATE TABLE f (k INT, v INT, s VARCHAR(8))").ok());
  std::vector<table::Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int(i % 10), Value::Int(i),
                    i % 13 == 0 ? Value::Null(TypeId::kVarchar)
                                : Value::String(i % 3 == 0 ? "ab" : "ba")});
  }
  ASSERT_TRUE((*db)->LoadTable("f", rows).ok());

  using optimizer::CompareOp;
  using optimizer::Expr;
  auto scan = std::make_unique<optimizer::PlanNode>();
  scan->kind = optimizer::PlanKind::kSeqScan;
  scan->quantifier = 0;
  scan->table = *(*db)->catalog().GetTable("f");
  // Range, then equality, then LIKE: each on the survivors of the last.
  scan->residual = Expr::And(
      Expr::And(Expr::Between(Expr::Column(0, 1, TypeId::kInt, "v"),
                              Expr::Literal(Value::Int(100)),
                              Expr::Literal(Value::Int(3999))),
                Expr::Compare(CompareOp::kEq,
                              Expr::Column(0, 0, TypeId::kInt, "k"),
                              Expr::Literal(Value::Int(3)))),
      Expr::Like(Expr::Column(0, 2, TypeId::kVarchar, "s"), "a%"));

  auto counts_at = [&](size_t cap) {
    FeedbackCollector fc;
    exec::ExecContext ec;
    ec.pool = &(*db)->pool();
    ec.table_heap = [&](uint32_t oid) { return (*db)->heap(oid); };
    ec.num_quantifiers = 1;
    ec.batch_cap = cap;
    ec.feedback = &fc;
    auto out = exec::ExecuteToRows(scan.get(), &ec);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return fc.PendingCounts();
  };
  // Row-at-a-time reference: each conjunct sees the survivors of the one
  // before it. Pending aggregates are ordered by column: k, v, s.
  std::pair<uint64_t, uint64_t> k_eq, v_range, s_like;
  for (const table::Row& r : rows) {
    const int64_t v = r[1].AsInt();
    ++v_range.first;
    if (v < 100 || v > 3999) continue;
    ++v_range.second;
    ++k_eq.first;
    if (r[0].AsInt() != 3) continue;
    ++k_eq.second;
    ++s_like.first;
    if (!r[2].is_null() && r[2].AsString()[0] == 'a') ++s_like.second;
  }
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {k_eq, v_range,
                                                               s_like};
  EXPECT_EQ(counts_at(1024), expected);
  EXPECT_EQ(counts_at(1), expected);
  EXPECT_EQ(counts_at(7), expected);
}

// The heap scan evaluates the leading run of compiled conjuncts on the
// encoded row and counts their outcomes itself (DESIGN.md §9). A scan
// whose first conjunct cannot be compiled (nothing is pushed) and one
// whose every conjunct is pushed must both flush exactly what
// row-at-a-time evaluation sees, at any batch cap, NULL rows included.
TEST(FeedbackCollectorTest, PushedConjunctsCountLikeBatchOnes) {
  auto db = engine::Database::Open();
  ASSERT_TRUE(db.ok());
  auto conn = (*db)->Connect();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(
      (*conn)->Execute("CREATE TABLE f (k INT, v DOUBLE, s VARCHAR(8))").ok());
  std::vector<table::Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({i % 17 == 0 ? Value::Null(TypeId::kInt) : Value::Int(i % 10),
                    Value::Double(i * 0.5),
                    i % 13 == 0 ? Value::Null(TypeId::kVarchar)
                                : Value::String(i % 3 == 0 ? "ab" : "ba")});
  }
  ASSERT_TRUE((*db)->LoadTable("f", rows).ok());

  using optimizer::CompareOp;
  using optimizer::Expr;
  using optimizer::ExprPtr;
  const auto v_range = [] {
    return Expr::Between(Expr::Column(0, 1, TypeId::kDouble, "v"),
                         Expr::Literal(Value::Int(50)),
                         Expr::Literal(Value::Double(1999.5)));
  };
  const auto k_eq = [] {
    return Expr::Compare(CompareOp::kEq, Expr::Column(0, 0, TypeId::kInt, "k"),
                         Expr::Literal(Value::Int(3)));
  };
  const auto s_like = [] {
    return Expr::Like(Expr::Column(0, 2, TypeId::kVarchar, "s"), "a%");
  };
  const auto counts_at = [&](const ExprPtr& residual, size_t cap) {
    auto scan = std::make_unique<optimizer::PlanNode>();
    scan->kind = optimizer::PlanKind::kSeqScan;
    scan->quantifier = 0;
    scan->table = *(*db)->catalog().GetTable("f");
    scan->residual = residual;
    FeedbackCollector fc;
    exec::ExecContext ec;
    ec.pool = &(*db)->pool();
    ec.table_heap = [&](uint32_t oid) { return (*db)->heap(oid); };
    ec.num_quantifiers = 1;
    ec.batch_cap = cap;
    ec.feedback = &fc;
    auto out = exec::ExecuteToRows(scan.get(), &ec);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return fc.PendingCounts();
  };
  const auto k_matches = [](const table::Row& r) {
    return !r[0].is_null() && r[0].AsInt() == 3;
  };
  const auto v_matches = [](const table::Row& r) {
    return r[1].AsDouble() >= 50 && r[1].AsDouble() <= 1999.5;
  };
  const auto s_matches = [](const table::Row& r) {
    return !r[2].is_null() && r[2].AsString()[0] == 'a';
  };
  // Pending aggregates are ordered by column: k, v, s.
  {
    // LIKE first: nothing is pushed.
    std::pair<uint64_t, uint64_t> k, v, like;
    for (const table::Row& r : rows) {
      ++like.first;
      if (!s_matches(r)) continue;
      ++like.second;
      ++v.first;
      if (!v_matches(r)) continue;
      ++v.second;
      ++k.first;
      if (k_matches(r)) ++k.second;
    }
    const std::vector<std::pair<uint64_t, uint64_t>> expected = {k, v, like};
    const ExprPtr residual = Expr::And(Expr::And(s_like(), v_range()), k_eq());
    for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
      EXPECT_EQ(counts_at(residual, cap), expected) << "cap " << cap;
    }
  }
  {
    // Every conjunct pushed.
    std::pair<uint64_t, uint64_t> k, v;
    for (const table::Row& r : rows) {
      ++v.first;
      if (!v_matches(r)) continue;
      ++v.second;
      ++k.first;
      if (k_matches(r)) ++k.second;
    }
    const std::vector<std::pair<uint64_t, uint64_t>> expected = {k, v};
    const ExprPtr residual = Expr::And(v_range(), k_eq());
    for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
      EXPECT_EQ(counts_at(residual, cap), expected) << "cap " << cap;
    }
  }
}

}  // namespace
}  // namespace hdb::stats
