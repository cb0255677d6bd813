// Randomized differential testing: every query runs both through the full
// engine (parser -> binder -> optimizer -> executor, with statistics
// feedback enabled) and through a reference evaluator written directly
// against the in-test row vectors. Any divergence is a bug in some layer
// of the stack.
//
// The predicate and DML suites also run each statement down all three
// ways a value reaches the engine — inline literals, positional '?' bound
// through Connection::Execute(sql, params), and a CALL of a procedure that
// names its parameters — and hold every path to the same reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "engine/database.h"

namespace hdb {
namespace {

struct RefRow {
  int32_t a;
  int32_t b;
  bool b_null;
  std::string s;
};

/// How a statement's values reach the engine.
enum class ValuePath { kInline, kPositional, kProcedure };

const char* PathName(ValuePath path) {
  switch (path) {
    case ValuePath::kInline:
      return "inline";
    case ValuePath::kPositional:
      return "positional";
    case ValuePath::kProcedure:
      return "procedure";
  }
  return "?";
}

/// One statement spelled three ways over the same integer values: inline
/// literals, positional '?', and :p0, :p1, ... for a procedure body.
struct Spelled {
  std::string inline_sql, positional, named;
  std::vector<int> values;

  Spelled& Text(const std::string& text) {
    inline_sql += text;
    positional += text;
    named += text;
    return *this;
  }
  Spelled& Param(int v) {
    // Parenthesized so a negative value after '-' never reads as "--".
    inline_sql += v < 0 ? "(" + std::to_string(v) + ")" : std::to_string(v);
    positional += "?";
    named += ":p" + std::to_string(values.size());
    values.push_back(v);
    return *this;
  }
};

struct DiffFixture {
  DiffFixture(uint64_t seed, bool with_index) : rng(seed) {
    auto opened = engine::Database::Open();
    EXPECT_TRUE(opened.ok());
    db = std::move(*opened);
    auto c = db->Connect();
    EXPECT_TRUE(c.ok());
    conn = std::move(*c);

    Exec("CREATE TABLE t (a INT NOT NULL, b INT, s VARCHAR(16))");
    const int n = 200 + static_cast<int>(rng.Uniform(300));
    std::vector<table::Row> rows;
    static const char* kWords[] = {"alpha", "beta", "gamma", "delta",
                                   "epsilon"};
    for (int i = 0; i < n; ++i) {
      RefRow r;
      r.a = static_cast<int32_t>(rng.Uniform(50));
      r.b_null = rng.Bernoulli(0.15);
      r.b = static_cast<int32_t>(rng.Uniform(20));
      r.s = std::string(kWords[rng.Uniform(5)]) + " " +
            std::to_string(rng.Uniform(4));
      ref.push_back(r);
      rows.push_back({Value::Int(r.a),
                      r.b_null ? Value::Null(TypeId::kInt) : Value::Int(r.b),
                      Value::String(r.s)});
    }
    EXPECT_TRUE(db->LoadTable("t", rows).ok());
    if (with_index) {
      Exec("CREATE INDEX ta ON t (a)");
    }
  }

  engine::QueryResult Exec(const std::string& sql) {
    auto r = conn->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : engine::QueryResult{};
  }

  /// Runs `stmt` down `path`. Procedures are created on first use, one
  /// per statement shape, so repeated shapes reuse (and cache) one plan.
  engine::QueryResult Exec(ValuePath path, const Spelled& stmt) {
    switch (path) {
      case ValuePath::kInline:
        return Exec(stmt.inline_sql);
      case ValuePath::kPositional: {
        std::vector<Value> params;
        for (const int v : stmt.values) params.push_back(Value::Int(v));
        auto r = conn->Execute(stmt.positional, params);
        EXPECT_TRUE(r.ok()) << stmt.positional << ": "
                            << r.status().ToString();
        return r.ok() ? *r : engine::QueryResult{};
      }
      case ValuePath::kProcedure: {
        auto [it, created] = procedures.try_emplace(
            stmt.named, "diff_p" + std::to_string(procedures.size()));
        if (created) {
          std::string names;
          for (size_t i = 0; i < stmt.values.size(); ++i) {
            names += (i > 0 ? ", :p" : ":p") + std::to_string(i);
          }
          Exec("CREATE PROCEDURE " + it->second + " (" + names + ") AS " +
               stmt.named);
        }
        std::string args;
        for (size_t i = 0; i < stmt.values.size(); ++i) {
          args += (i > 0 ? ", " : "") + std::to_string(stmt.values[i]);
        }
        return Exec("CALL " + it->second + "(" + args + ")");
      }
    }
    return {};
  }

  Rng rng;
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::Connection> conn;
  std::vector<RefRow> ref;
  std::map<std::string, std::string> procedures;  // named body -> name
};

constexpr ValuePath kAllPaths[] = {ValuePath::kInline, ValuePath::kPositional,
                                   ValuePath::kProcedure};

class SqlDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SqlDifferential, PointAndRangeQueries) {
  const auto [seed, with_index] = GetParam();
  DiffFixture f(seed, with_index);
  Rng qrng(seed * 31 + 7);

  for (int q = 0; q < 25; ++q) {
    const int lo = static_cast<int>(qrng.Uniform(50));
    const int hi = lo + static_cast<int>(qrng.Uniform(20));
    const int bval = static_cast<int>(qrng.Uniform(20));
    const int mode = static_cast<int>(qrng.Uniform(5));
    Spelled stmt;
    stmt.Text("SELECT COUNT(*) FROM t WHERE ");
    std::function<bool(const RefRow&)> pred;
    switch (mode) {
      case 0:
        stmt.Text("a = ").Param(lo);
        pred = [lo](const RefRow& r) { return r.a == lo; };
        break;
      case 1:
        stmt.Text("a BETWEEN ").Param(lo).Text(" AND ").Param(hi);
        pred = [lo, hi](const RefRow& r) { return r.a >= lo && r.a <= hi; };
        break;
      case 2:
        stmt.Text("a >= ").Param(lo).Text(" AND b = ").Param(bval);
        pred = [lo, bval](const RefRow& r) {
          return r.a >= lo && !r.b_null && r.b == bval;
        };
        break;
      case 3:
        // a < (lo - 7) - (-7): a negative value right after '-'.
        stmt.Text("b IS NULL OR a < " + std::to_string(lo - 7) + " -")
            .Param(-7);
        pred = [lo](const RefRow& r) { return r.b_null || r.a < lo; };
        break;
      default:
        stmt.Text("s LIKE '%alpha%' AND a <> ").Param(lo);
        pred = [lo](const RefRow& r) {
          return r.s.find("alpha") != std::string::npos && r.a != lo;
        };
        break;
    }
    int64_t expected = 0;
    for (const RefRow& r : f.ref) {
      if (pred(r)) ++expected;
    }
    for (const ValuePath path : kAllPaths) {
      const auto result = f.Exec(path, stmt);
      ASSERT_EQ(result.rows.size(), 1u)
          << PathName(path) << ": " << stmt.inline_sql;
      EXPECT_EQ(result.rows[0][0].AsInt(), expected)
          << PathName(path) << ": " << stmt.inline_sql;
    }
  }
}

TEST_P(SqlDifferential, GroupByAggregates) {
  const auto [seed, with_index] = GetParam();
  DiffFixture f(seed, with_index);

  const auto result = f.Exec(
      "SELECT a, COUNT(*), SUM(b), MIN(b), MAX(b) FROM t GROUP BY a "
      "ORDER BY a");
  struct Agg {
    int64_t count = 0;
    int64_t sum = 0;
    bool has_b = false;
    int32_t min_b = 0, max_b = 0;
  };
  std::map<int32_t, Agg> expected;
  for (const RefRow& r : f.ref) {
    Agg& a = expected[r.a];
    a.count++;
    if (!r.b_null) {
      a.sum += r.b;
      if (!a.has_b || r.b < a.min_b) a.min_b = r.b;
      if (!a.has_b || r.b > a.max_b) a.max_b = r.b;
      a.has_b = true;
    }
  }
  ASSERT_EQ(result.rows.size(), expected.size());
  size_t i = 0;
  for (const auto& [key, agg] : expected) {
    const auto& row = result.rows[i++];
    EXPECT_EQ(row[0].AsInt(), key);
    EXPECT_EQ(row[1].AsInt(), agg.count);
    if (agg.has_b) {
      EXPECT_EQ(row[2].AsInt(), agg.sum) << key;
      EXPECT_EQ(row[3].AsInt(), agg.min_b) << key;
      EXPECT_EQ(row[4].AsInt(), agg.max_b) << key;
    } else {
      EXPECT_TRUE(row[2].is_null());
    }
  }
}

TEST_P(SqlDifferential, OrderByDistinctLimit) {
  const auto [seed, with_index] = GetParam();
  DiffFixture f(seed, with_index);

  const auto result =
      f.Exec("SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 10");
  std::set<int32_t> distinct;
  for (const RefRow& r : f.ref) distinct.insert(r.a);
  std::vector<int32_t> expected(distinct.rbegin(), distinct.rend());
  if (expected.size() > 10) expected.resize(10);
  ASSERT_EQ(result.rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.rows[i][0].AsInt(), expected[i]);
  }
}

TEST_P(SqlDifferential, SelfJoinViaTwoTables) {
  const auto [seed, with_index] = GetParam();
  DiffFixture f(seed, with_index);
  // Second table u(a, w): join t.a = u.a.
  f.Exec("CREATE TABLE u (a INT NOT NULL, w INT)");
  Rng urng(seed + 99);
  std::vector<std::pair<int32_t, int32_t>> uref;
  std::vector<table::Row> urows;
  for (int i = 0; i < 80; ++i) {
    const auto a = static_cast<int32_t>(urng.Uniform(50));
    const auto w = static_cast<int32_t>(urng.Uniform(5));
    uref.emplace_back(a, w);
    urows.push_back({Value::Int(a), Value::Int(w)});
  }
  ASSERT_TRUE(f.db->LoadTable("u", urows).ok());

  const auto result = f.Exec(
      "SELECT COUNT(*) FROM t JOIN u ON t.a = u.a WHERE u.w < 3");
  int64_t expected = 0;
  for (const RefRow& r : f.ref) {
    for (const auto& [ua, uw] : uref) {
      if (r.a == ua && uw < 3) ++expected;
    }
  }
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt(), expected);
}

TEST_P(SqlDifferential, DmlThenQueryConsistency) {
  const auto [seed, with_index] = GetParam();
  // Each path mutates its own copy of the same data.
  for (const ValuePath path : kAllPaths) {
    SCOPED_TRACE(PathName(path));
    DiffFixture f(seed, with_index);
    Rng drng(seed * 17 + 3);

    // Random DML mixed with verification queries.
    for (int step = 0; step < 10; ++step) {
      const int pivot = static_cast<int>(drng.Uniform(50));
      Spelled dml;
      if (drng.Bernoulli(0.5)) {
        dml.Text("DELETE FROM t WHERE a = ").Param(pivot);
        f.Exec(path, dml);
        std::erase_if(f.ref,
                      [pivot](const RefRow& r) { return r.a == pivot; });
      } else {
        // SET b = 98 - (-1): a negative value right after '-'.
        dml.Text("UPDATE t SET b = 98 -").Param(-1).Text(" WHERE a = ")
            .Param(pivot);
        f.Exec(path, dml);
        for (RefRow& r : f.ref) {
          if (r.a == pivot) {
            r.b = 99;
            r.b_null = false;
          }
        }
      }
      Spelled count;
      count.Text("SELECT COUNT(*) FROM t WHERE b = ").Param(99);
      const auto result = f.Exec(path, count);
      int64_t expected = 0;
      for (const RefRow& r : f.ref) {
        if (!r.b_null && r.b == 99) ++expected;
      }
      ASSERT_EQ(result.rows.size(), 1u) << "step " << step;
      EXPECT_EQ(result.rows[0][0].AsInt(), expected) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SqlDifferential,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_indexed" : "_heap");
    });

}  // namespace
}  // namespace hdb
