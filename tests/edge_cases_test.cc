// Edge cases and failure injection across the stack: parser rejection
// sweep, binder diagnostics, empty/degenerate inputs, boundary sizes, and
// multi-statement procedures.
#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/parser.h"
#include "exec/spill.h"
#include "stats/histogram.h"

namespace hdb {
namespace {

struct Db {
  Db() {
    auto opened = engine::Database::Open();
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

// --- Parser rejection sweep ---

class ParserRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRejects, SyntaxErrorReported) {
  const auto r = engine::Parse(GetParam());
  ASSERT_FALSE(r.ok()) << GetParam();
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
}

INSTANTIATE_TEST_SUITE_P(
    BadSql, ParserRejects,
    ::testing::Values(
        "", "SELECT", "SELECT a", "SELECT a FROM", "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP", "SELECT a FROM t ORDER a",
        "SELECT a FROM t LIMIT many", "INSERT t VALUES (1)",
        "INSERT INTO t (a VALUES (1)", "UPDATE t a = 1",
        "DELETE t WHERE a = 1", "CREATE TABLE t", "CREATE TABLE t (a)",
        "CREATE TABLE t (a BLOB)", "CREATE INDEX ON t (a)",
        "CREATE PROCEDURE p (x) AS SELECT 1 FROM t",
        "DROP t", "SET OPTION x", "SELECT a FROM t WHERE s LIKE pattern",
        "CALIBRATE", "SELECT a FROM t;; SELECT b FROM t",
        // Placeholders: never mixed, never '?' in a procedure body, and
        // LIMIT / SET OPTION / LIKE take literals only.
        "SELECT a FROM t WHERE a = ? AND b = :b",
        "CREATE PROCEDURE p (:a) AS SELECT a FROM t WHERE a = ?",
        "CREATE PROCEDURE p (?) AS SELECT a FROM t",
        "SELECT a FROM t LIMIT ?", "SET OPTION x = ?",
        "SELECT a FROM t WHERE s LIKE ?", "CALL p(-?)"));

// --- Binder diagnostics ---

TEST(BinderErrors, UnknownTableAndColumn) {
  Db db;
  db.Exec("CREATE TABLE t (a INT)");
  EXPECT_EQ(db.conn->Execute("SELECT a FROM missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.conn->Execute("SELECT nope FROM t").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.conn->Execute("SELECT t2.a FROM t").status().code(),
            StatusCode::kNotFound);
}

TEST(BinderErrors, AmbiguousColumnAcrossQuantifiers) {
  Db db;
  db.Exec("CREATE TABLE x (a INT)");
  db.Exec("CREATE TABLE y (a INT)");
  const auto s = db.conn->Execute("SELECT a FROM x, y WHERE x.a = y.a");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("ambiguous"), std::string::npos);
}

TEST(BinderErrors, AggregateInWhereRejected) {
  Db db;
  db.Exec("CREATE TABLE t (a INT)");
  EXPECT_FALSE(db.conn->Execute("SELECT a FROM t WHERE COUNT(*) > 1").ok());
}

TEST(BinderErrors, AliasResolution) {
  Db db;
  db.Exec("CREATE TABLE t (a INT)");
  db.Exec("INSERT INTO t VALUES (1)");
  // Alias hides the table name for qualification purposes... both resolve.
  EXPECT_EQ(db.Exec("SELECT x.a FROM t x").rows.size(), 1u);
  EXPECT_EQ(db.Exec("SELECT t.a FROM t t").rows.size(), 1u);
}

// --- Degenerate shapes ---

TEST(EdgeCases, EmptyTableEverything) {
  Db db;
  db.Exec("CREATE TABLE t (a INT, s VARCHAR(8))");
  EXPECT_EQ(db.Exec("SELECT * FROM t").rows.size(), 0u);
  EXPECT_EQ(db.Exec("SELECT a FROM t WHERE a = 1").rows.size(), 0u);
  EXPECT_EQ(db.Exec("SELECT DISTINCT a FROM t ORDER BY a").rows.size(), 0u);
  EXPECT_EQ(db.Exec("SELECT a, COUNT(*) FROM t GROUP BY a").rows.size(), 0u);
  EXPECT_EQ(db.Exec("UPDATE t SET a = 1").rows_affected, 0u);
  EXPECT_EQ(db.Exec("DELETE FROM t").rows_affected, 0u);
  // Joins against empty tables.
  db.Exec("CREATE TABLE u (a INT)");
  db.Exec("INSERT INTO u VALUES (1)");
  EXPECT_EQ(db.Exec("SELECT COUNT(*) FROM t JOIN u ON t.a = u.a")
                .rows[0][0]
                .AsInt(),
            0);
}

TEST(EdgeCases, CrossJoinWithoutPredicate) {
  Db db;
  db.Exec("CREATE TABLE a (x INT)");
  db.Exec("CREATE TABLE b (y INT)");
  db.Exec("INSERT INTO a VALUES (1), (2), (3)");
  db.Exec("INSERT INTO b VALUES (10), (20)");
  // Cartesian product must still work (deferral is a heuristic, not a ban).
  EXPECT_EQ(db.Exec("SELECT COUNT(*) FROM a, b").rows[0][0].AsInt(), 6);
}

TEST(EdgeCases, LimitZeroAndOverLimit) {
  Db db;
  db.Exec("CREATE TABLE t (a INT)");
  db.Exec("INSERT INTO t VALUES (1), (2)");
  EXPECT_EQ(db.Exec("SELECT a FROM t LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(db.Exec("SELECT a FROM t LIMIT 99").rows.size(), 2u);
}

TEST(EdgeCases, WidePredicateExpressions) {
  Db db;
  db.Exec("CREATE TABLE t (a INT, b INT, c INT)");
  db.Exec("INSERT INTO t VALUES (1, 2, 3), (4, 5, 6), (7, 8, 9)");
  EXPECT_EQ(db.Exec("SELECT a FROM t WHERE (a + b) * 2 = c * 2 AND "
                    "NOT (c BETWEEN 7 AND 9)")
                .rows.size(),
            1u);
  EXPECT_EQ(db.Exec("SELECT a FROM t WHERE a IN (1, 4) AND b IN (5)")
                .rows.size(),
            1u);
}

TEST(EdgeCases, StringsWithQuotesAndUnicodeBytes) {
  Db db;
  db.Exec("CREATE TABLE t (s VARCHAR(40))");
  db.Exec("INSERT INTO t VALUES ('it''s'), ('naïve')");
  EXPECT_EQ(db.Exec("SELECT s FROM t WHERE s = 'it''s'").rows.size(), 1u);
  EXPECT_EQ(db.Exec("SELECT s FROM t WHERE s = 'naïve'").rows.size(), 1u);
}

TEST(EdgeCases, BooleanAndDateColumns) {
  Db db;
  db.Exec("CREATE TABLE t (ok BOOLEAN, d DATE)");
  db.Exec("INSERT INTO t VALUES (TRUE, 19000), (FALSE, 19100), (NULL, NULL)");
  EXPECT_EQ(db.Exec("SELECT COUNT(*) FROM t WHERE ok = TRUE")
                .rows[0][0]
                .AsInt(),
            1);
  EXPECT_EQ(db.Exec("SELECT COUNT(*) FROM t WHERE d > 19050")
                .rows[0][0]
                .AsInt(),
            1);
}

TEST(EdgeCases, LikeUnderscoreWildcard) {
  Db db;
  db.Exec("CREATE TABLE t (s VARCHAR(10))");
  db.Exec("INSERT INTO t VALUES ('cat'), ('cut'), ('cart')");
  EXPECT_EQ(db.Exec("SELECT s FROM t WHERE s LIKE 'c_t'").rows.size(), 2u);
  EXPECT_EQ(db.Exec("SELECT s FROM t WHERE s NOT LIKE 'c_t'").rows.size(),
            1u);
}

TEST(EdgeCases, RowNearPageSizeBoundary) {
  Db db;
  db.Exec("CREATE TABLE t (s VARCHAR(4000))");
  // A row just under the page capacity round-trips; an impossible one errors.
  const std::string big(3900, 'x');
  EXPECT_TRUE(db.conn->Execute("INSERT INTO t VALUES ('" + big + "')").ok());
  auto r = db.Exec("SELECT s FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString().size(), big.size());
  const std::string too_big(5000, 'y');
  EXPECT_FALSE(
      db.conn->Execute("INSERT INTO t VALUES ('" + too_big + "')").ok());
}

TEST(EdgeCases, DivisionByZeroSurfacesError) {
  Db db;
  db.Exec("CREATE TABLE t (a INT)");
  db.Exec("INSERT INTO t VALUES (0)");
  EXPECT_FALSE(db.conn->Execute("SELECT 1 / a FROM t").ok());
}

// --- Multi-statement procedures ---

TEST(ProcedureTest, MultiStatementBodyRunsInOrder) {
  Db db;
  db.Exec("CREATE TABLE log (v INT)");
  db.Exec("CREATE PROCEDURE twice (:v) AS "
          "INSERT INTO log VALUES (:v); "
          "INSERT INTO log VALUES (:v + 1); "
          "SELECT COUNT(*) FROM log");
  auto r = db.Exec("CALL twice(10)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  r = db.Exec("CALL twice(20)");
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_EQ(db.Exec("SELECT COUNT(*) FROM log WHERE v = 21")
                .rows[0][0]
                .AsInt(),
            1);
}

TEST(ProcedureTest, StringParameterSubstitutionEscapes) {
  Db db;
  db.Exec("CREATE TABLE t (s VARCHAR(20))");
  db.Exec("CREATE PROCEDURE add_s (:s) AS INSERT INTO t VALUES (:s)");
  auto r = db.conn->Execute("CALL add_s('o''neil')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(db.Exec("SELECT s FROM t").rows[0][0].AsString(), "o'neil");
}

TEST(ProcedureTest, WrongArityRejected) {
  Db db;
  db.Exec("CREATE TABLE t (a INT)");
  db.Exec("CREATE PROCEDURE p (:a) AS SELECT a FROM t WHERE a = :a");
  EXPECT_FALSE(db.conn->Execute("CALL p()").ok());
  EXPECT_FALSE(db.conn->Execute("CALL p(1, 2)").ok());
  EXPECT_EQ(db.conn->Execute("CALL missing(1)").status().code(),
            StatusCode::kNotFound);
}

TEST(ProcedureTest, RowMovingUpdateKeepsIndexCorrect) {
  // A growing UPDATE relocates the row (delete + insert); every index must
  // follow the rid even when the key did not change.
  Db db;
  db.Exec("CREATE TABLE t (k INT NOT NULL, s VARCHAR(600))");
  db.Exec("CREATE INDEX tk ON t (k)");
  for (int i = 0; i < 50; ++i) {
    db.Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 'tiny')");
  }
  const std::string big(500, 'B');
  EXPECT_EQ(db.Exec("UPDATE t SET s = '" + big + "' WHERE k = 5")
                .rows_affected,
            1u);
  auto r = db.Exec("SELECT s FROM t WHERE k = 5");
  ASSERT_EQ(r.rows.size(), 1u);  // found via the index, post-move
  EXPECT_EQ(r.rows[0][0].AsString().size(), big.size());
  // And a rollback of a moving update restores everything.
  db.Exec("BEGIN");
  db.Exec("UPDATE t SET s = '" + big + big + big + "' WHERE k = 6");
  db.Exec("ROLLBACK");
  r = db.Exec("SELECT s FROM t WHERE k = 6");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "tiny");
}

// --- Histogram boundary conditions ---

TEST(HistogramEdge, EmptyAndSingleValue) {
  auto empty = stats::Histogram::Build(TypeId::kInt, {});
  EXPECT_EQ(empty.EstimateEquals(5), 0.0);
  EXPECT_EQ(empty.EstimateRange(0, true, 10, true), 0.0);

  auto one = stats::Histogram::Build(TypeId::kInt, {42.0});
  EXPECT_NEAR(one.EstimateEquals(42.0), 1.0, 0.01);
  EXPECT_EQ(one.EstimateEquals(41.0), 0.0);
}

TEST(HistogramEdge, AllNulls) {
  auto h = stats::Histogram::Build(TypeId::kInt, {}, /*nulls=*/100);
  EXPECT_DOUBLE_EQ(h.EstimateIsNull(), 1.0);
  EXPECT_EQ(h.EstimateEquals(1), 0.0);
}

TEST(HistogramEdge, InvertedRangeIsEmpty) {
  auto h = stats::Histogram::Build(TypeId::kInt, {1, 2, 3, 4, 5});
  EXPECT_EQ(h.EstimateRange(10, true, 5, true), 0.0);
}

TEST(HistogramEdge, DomainExtensionOnOutOfRangeInsert) {
  auto h = stats::Histogram::Build(TypeId::kInt, {10, 11, 12});
  h.OnInsert(1000, false);
  EXPECT_GT(h.EstimateRange(500, true, 1500, true), 0.0);
  EXPECT_GE(h.max_value(), 1000.0);
}

// --- Parser robustness fuzzing ---

TEST(ParserFuzz, RandomTokenSoupNeverCrashes) {
  static const char* kFragments[] = {
      "SELECT", "FROM", "WHERE",  "GROUP",  "BY",    "ORDER", "LIMIT",
      "INSERT", "INTO", "VALUES", "UPDATE", "SET",   "JOIN",  "ON",
      "AND",    "OR",   "NOT",    "(",      ")",     ",",     "=",
      "<",      ">",    "*",      "t",      "a",     "b",     "42",
      "3.14",   "'s'",  ":p",     "NULL",   "COUNT", "IN",    "BETWEEN",
      "LIKE",   "IS",   ";",      "--x",    "<=",    "<>"};
  Rng rng(2024);
  for (int i = 0; i < 3000; ++i) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.Uniform(24));
    for (int j = 0; j < len; ++j) {
      sql += kFragments[rng.Uniform(std::size(kFragments))];
      sql += " ";
    }
    // Must return a Status or a statement — never crash or hang.
    const auto r = engine::Parse(sql);
    (void)r;
  }
}

TEST(ParserFuzz, MutatedValidStatementsNeverCrash) {
  const std::string base =
      "SELECT a, COUNT(*) FROM t JOIN u ON t.a = u.b WHERE a BETWEEN 1 AND "
      "5 AND s LIKE '%x%' GROUP BY a HAVING COUNT(*) > 2 ORDER BY a LIMIT 3";
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    std::string sql = base;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(sql.size());
      switch (rng.Uniform(3)) {
        case 0: sql.erase(pos, 1 + rng.Uniform(5)); break;
        case 1: sql.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95))); break;
        default: if (pos < sql.size()) sql[pos] = static_cast<char>(32 + rng.Uniform(95)); break;
      }
    }
    const auto r = engine::Parse(sql);
    (void)r;
  }
}

// --- Spill codec resilience ---

TEST(SpillEdge, TruncatedBytesRejected) {
  const std::string bytes =
      exec::EncodeValues({Value::Int(1), Value::String("abc")});
  size_t consumed = 0;
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 3) {
    auto r = exec::DecodeValues(bytes.data(), cut, &consumed);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

TEST(SpillEdge, EmptyTuple) {
  const std::string bytes = exec::EncodeValues({});
  size_t consumed = 0;
  auto r = exec::DecodeValues(bytes.data(), bytes.size(), &consumed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

}  // namespace
}  // namespace hdb
