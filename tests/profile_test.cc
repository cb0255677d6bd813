#include <gtest/gtest.h>

#include <map>
#include <string>

#include "engine/database.h"
#include "net/client.h"
#include "net/server.h"
#include "profile/analyzer.h"
#include "profile/index_consultant.h"
#include "profile/tracer.h"

namespace hdb::profile {
namespace {

struct Db {
  Db() {
    auto db = engine::Database::Open();
    EXPECT_TRUE(db.ok());
    database = std::move(*db);
    auto conn = database->Connect();
    EXPECT_TRUE(conn.ok());
    c = std::move(*conn);
  }
  void Exec(const std::string& sql) {
    auto r = c->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  std::unique_ptr<engine::Database> database;
  std::unique_ptr<engine::Connection> c;
};

TEST(NormalizeTest, LiteralsBecomePlaceholders) {
  EXPECT_EQ(engine::NormalizeStatement("SELECT a FROM t WHERE b = 42"),
            engine::NormalizeStatement("select A from T where B = 977"));
  EXPECT_EQ(engine::NormalizeStatement("SELECT a FROM t WHERE s = 'x'"),
            "SELECT A FROM T WHERE S = ?");
  EXPECT_NE(engine::NormalizeStatement("SELECT a FROM t"),
            engine::NormalizeStatement("SELECT b FROM t"));
}

TEST(TracerTest, CapturesEvents) {
  Db db;
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  db.Exec("CREATE TABLE t (a INT)");
  db.Exec("INSERT INTO t VALUES (1)");
  db.Exec("SELECT a FROM t");
  tracer.Detach();
  db.Exec("SELECT a FROM t");  // not captured
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[2].rows_returned, 1u);
}

TEST(TracerTest, UploadsIntoSinkDatabase) {
  // The paper's architecture: trace rows stream into another database for
  // analysis (substitution: in-process instead of TCP/IP).
  Db monitored;
  auto sink = engine::Database::Open();
  ASSERT_TRUE(sink.ok());
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(monitored.database.get(), sink->get()).ok());
  monitored.Exec("CREATE TABLE t (a INT)");
  monitored.Exec("INSERT INTO t VALUES (7)");
  monitored.Exec("SELECT a FROM t WHERE a = 7");
  tracer.Detach();

  auto conn = (*sink)->Connect();
  ASSERT_TRUE(conn.ok());
  auto rows = (*conn)->Execute("SELECT sql, rows_returned FROM profile_trace");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);
  EXPECT_EQ(tracer.dropped_sink_writes(), 0u);
}

TEST(TracerTest, SelfTracingDoesNotRecurse) {
  // "Convenience" mode: the trace is stored in the same database.
  Db db;
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), db.database.get()).ok());
  db.Exec("CREATE TABLE t (a INT)");
  db.Exec("SELECT a FROM t");
  tracer.Detach();
  EXPECT_EQ(tracer.events().size(), 2u);  // not an event per insert
}

// A CALL is one request whatever its body runs: the body's statements
// are not traced as client statements of their own.
TEST(TracerTest, EveryCallIsOneProcedureEvent) {
  Db db;
  db.Exec("CREATE TABLE t (k INT, x DOUBLE)");
  db.Exec("INSERT INTO t VALUES (1, 0)");
  db.Exec("CREATE PROCEDURE get_x (:k) AS SELECT x FROM t WHERE k = :k");
  db.Exec("CREATE PROCEDURE set_x (:k, :x) AS UPDATE t SET x = :x "
          "WHERE k = :k");
  db.Exec("CREATE PROCEDURE add_get (:k) AS INSERT INTO t VALUES (:k, 0); "
          "SELECT COUNT(*) FROM t");
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  db.Exec("CALL get_x(1)");
  db.Exec("CALL set_x(1, 2.5)");
  db.Exec("CALL add_get(2)");
  tracer.Detach();

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  for (const TraceEvent& ev : events) {
    EXPECT_TRUE(ev.from_procedure) << ev.sql;
    EXPECT_EQ(ev.sql.rfind("CALL", 0), 0u) << ev.sql;
  }
}

// sys.statements and the tracer read one completion record: per shape
// they hold the same statements, the same Begin→End time and the same
// returned rows.
TEST(TracerTest, SysStatementsAndTracerShareEveryCompletion) {
  Db db;
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  db.Exec("CREATE TABLE t (k INT, x DOUBLE)");
  for (int i = 0; i < 6; ++i) {
    db.Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 1.5)");
  }
  ASSERT_TRUE(
      db.c->Execute("SELECT x FROM t WHERE k = ?", {Value::Int(2)}).ok());
  db.Exec("SELECT x FROM t WHERE k = 3");
  db.Exec("SELECT k, x FROM t");
  db.Exec("UPDATE t SET x = 2.5 WHERE k = 1");
  db.Exec("CREATE PROCEDURE get_x (:k) AS SELECT x FROM t WHERE k = :k");
  db.Exec("CALL get_x(4)");
  db.Exec("CALL get_x(5)");
  db.Exec("DELETE FROM t WHERE k = 0");
  tracer.Detach();

  struct Totals {
    int64_t count = 0;
    double micros = 0;
    int64_t rows = 0;
  };
  std::map<std::string, Totals> traced;
  for (const TraceEvent& ev : tracer.events()) {
    EXPECT_EQ(ev.shape, engine::NormalizeStatement(ev.sql));
    Totals& t = traced[ev.shape];
    t.count++;
    t.micros += ev.elapsed_micros;
    t.rows += static_cast<int64_t>(ev.rows_returned);
  }
  using engine::NormalizeStatement;
  EXPECT_EQ(traced[NormalizeStatement("INSERT INTO t VALUES (9, 9)")].count,
            6);
  EXPECT_EQ(traced[NormalizeStatement("SELECT x FROM t WHERE k = 9")].count,
            2);
  EXPECT_EQ(traced[NormalizeStatement("SELECT k, x FROM t")].rows, 6);
  EXPECT_EQ(traced[NormalizeStatement("CALL get_x(9)")].count, 2);

  auto r = db.c->Execute(
      "SELECT shape, count, total_micros, rows_returned FROM sys.statements");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), traced.size());
  for (const auto& row : r->rows) {
    const std::string& shape = row[0].AsString();
    ASSERT_EQ(traced.count(shape), 1u) << shape;
    EXPECT_EQ(row[1].AsInt(), traced[shape].count) << shape;
    EXPECT_DOUBLE_EQ(row[2].AsDouble(), traced[shape].micros) << shape;
    EXPECT_EQ(row[3].AsInt(), traced[shape].rows) << shape;
  }
}

// A statement that fails, at parse or while executing, is no tracer event
// and no sys.statements count, but it still leaves the active set.
TEST(TracerTest, FailedStatementsAreNeitherTracedNorCounted) {
  Db db;
  db.Exec("CREATE TABLE t (a INT)");
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  EXPECT_FALSE(db.c->Execute("SELEC a FROM t").ok());
  EXPECT_FALSE(db.c->Execute("SELECT a FROM missing").ok());
  EXPECT_FALSE(db.c->Execute("SELECT b FROM t WHERE a = 1").ok());
  tracer.Detach();

  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(db.database->statement_registry().active_count(), 0u);
  auto r = db.c->Execute("SELECT shape FROM sys.statements");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(),
            engine::NormalizeStatement("CREATE TABLE t (a INT)"));
  auto active = db.c->Execute("SELECT sql FROM sys.active_statements");
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  ASSERT_EQ(active->rows.size(), 1u);  // the scan itself
  EXPECT_EQ(active->rows[0][0].AsString(),
            engine::NormalizeStatement("SELECT sql FROM sys.active_statements"));
}

TEST(AnalyzerTest, DetectsClientSideJoin) {
  Db db;
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  db.Exec("CREATE TABLE item (id INT NOT NULL, price DOUBLE)");
  for (int i = 0; i < 50; ++i) {
    db.Exec("INSERT INTO item VALUES (" + std::to_string(i) + ", 1.0)");
  }
  // The application-side loop: one probe per id (the client-side join).
  for (int i = 0; i < 30; ++i) {
    db.Exec("SELECT price FROM item WHERE id = " + std::to_string(i));
  }
  tracer.Detach();

  WorkloadAnalyzer analyzer;
  const auto findings = analyzer.Analyze(tracer.events(), db.database.get());
  bool saw = false;
  for (const auto& f : findings) {
    if (f.kind == FindingKind::kClientSideJoin) {
      saw = true;
      EXPECT_GE(f.occurrences, 30u);
    }
  }
  EXPECT_TRUE(saw);
}

// Prepared executions all carry one SQL text; the bound values' hash is
// what still tells the probes of a client-side join apart.
TEST(AnalyzerTest, DetectsClientSideJoinThroughPreparedStatements) {
  Db db;
  db.Exec("CREATE TABLE item (id INT NOT NULL, price DOUBLE)");
  for (int i = 0; i < 50; ++i) {
    db.Exec("INSERT INTO item VALUES (" + std::to_string(i) + ", 1.0)");
  }
  auto server = net::Server::Start(db.database.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = net::Client::Connect("127.0.0.1", (*server)->port(), {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto probe = (*client)->Prepare("SELECT price FROM item WHERE id = ?");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  auto repeat = (*client)->Prepare("SELECT id FROM item WHERE price = ?");
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();

  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  for (int i = 0; i < 30; ++i) {
    // One probe per id, and one identical statement run again and again.
    ASSERT_TRUE((*client)->Bind(probe->stmt_id, {Value::Int(i)}).ok());
    ASSERT_TRUE((*client)->ExecutePrepared(probe->stmt_id).ok());
    ASSERT_TRUE(
        (*client)->Bind(repeat->stmt_id, {Value::Double(2.0)}).ok());
    ASSERT_TRUE((*client)->ExecutePrepared(repeat->stmt_id).ok());
  }
  tracer.Detach();
  EXPECT_TRUE((*client)->Close().ok());
  server->reset();

  WorkloadAnalyzer analyzer;
  int joins = 0;
  for (const auto& f : analyzer.Analyze(tracer.events(), db.database.get())) {
    if (f.kind != FindingKind::kClientSideJoin) continue;
    ++joins;
    EXPECT_EQ(f.subject, "SELECT PRICE FROM ITEM WHERE ID = ?");
    EXPECT_GE(f.occurrences, 30u);
  }
  EXPECT_EQ(joins, 1);
}

TEST(AnalyzerTest, NoFalsePositiveOnRepeatedIdenticalStatement) {
  Db db;
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  db.Exec("CREATE TABLE t (a INT)");
  for (int i = 0; i < 30; ++i) db.Exec("SELECT a FROM t WHERE a = 5");
  tracer.Detach();
  WorkloadAnalyzer analyzer;
  for (const auto& f :
       analyzer.Analyze(tracer.events(), db.database.get())) {
    EXPECT_NE(f.kind, FindingKind::kClientSideJoin) << f.message;
  }
}

TEST(AnalyzerTest, FlagsSuspiciousOptions) {
  Db db;
  db.Exec("SET OPTION collect_statistics_on_dml = 'off'");
  db.Exec("SET OPTION max_query_tasks = '1'");
  WorkloadAnalyzer analyzer;
  const auto findings = analyzer.Analyze({}, db.database.get());
  int option_findings = 0;
  for (const auto& f : findings) {
    if (f.kind == FindingKind::kSuspiciousOption) ++option_findings;
  }
  EXPECT_EQ(option_findings, 2);
}

TEST(AnalyzerTest, FlagsExpensiveScans) {
  Db db;
  db.Exec("CREATE TABLE big (k INT, v INT)");
  std::vector<table::Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i)});
  }
  ASSERT_TRUE(db.database->LoadTable("big", rows).ok());
  RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(db.database.get(), nullptr).ok());
  db.Exec("SELECT v FROM big WHERE k = 17");
  tracer.Detach();
  WorkloadAnalyzer analyzer;
  bool saw = false;
  for (const auto& f :
       analyzer.Analyze(tracer.events(), db.database.get())) {
    if (f.kind == FindingKind::kExpensiveScan) saw = true;
  }
  EXPECT_TRUE(saw);
}

// --- Index consultant (§5) ---

TEST(ConsultantTest, RecommendsIndexForFilteredWorkload) {
  Db db;
  db.Exec("CREATE TABLE orders (id INT NOT NULL, customer INT, total DOUBLE)");
  std::vector<table::Row> rows;
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int(i),
                    Value::Int(static_cast<int32_t>(rng.Uniform(500))),
                    Value::Double(rng.NextDouble() * 100)});
  }
  ASSERT_TRUE(db.database->LoadTable("orders", rows).ok());

  std::vector<std::string> workload;
  for (int i = 0; i < 10; ++i) {
    workload.push_back("SELECT total FROM orders WHERE customer = " +
                       std::to_string(i * 7));
  }
  IndexConsultant consultant(db.database.get());
  auto analysis = consultant.Analyze(workload);
  ASSERT_TRUE(analysis.ok());
  ASSERT_GE(analysis->recommendations.size(), 1u);
  const auto& rec = analysis->recommendations[0];
  EXPECT_EQ(rec.kind, Recommendation::Kind::kCreateIndex);
  EXPECT_EQ(rec.table, "orders");
  ASSERT_FALSE(rec.columns.empty());
  EXPECT_EQ(rec.columns[0], "customer");
  EXPECT_GT(rec.benefit_micros, 0.0);
  // What-if costing shows the workload getting cheaper.
  EXPECT_LT(analysis->workload_cost_after, analysis->workload_cost_before);

  // The recommendation's DDL actually runs.
  db.Exec(rec.ddl);
}

TEST(ConsultantTest, RecommendsDroppingUnusedIndex) {
  Db db;
  db.Exec("CREATE TABLE t (a INT, b INT)");
  for (int i = 0; i < 100; ++i) {
    db.Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
  }
  db.Exec("CREATE INDEX unused_ix ON t (b)");
  // Workload never touches b.
  IndexConsultant consultant(db.database.get());
  auto analysis = consultant.Analyze({"SELECT a FROM t WHERE a = 1"});
  ASSERT_TRUE(analysis.ok());
  bool drop_seen = false;
  for (const auto& rec : analysis->recommendations) {
    if (rec.kind == Recommendation::Kind::kDropIndex &&
        rec.index_name == "unused_ix") {
      drop_seen = true;
    }
  }
  EXPECT_TRUE(drop_seen);
}

TEST(ConsultantTest, JoinColumnsRequestedAndTightened) {
  Db db;
  db.Exec("CREATE TABLE f (a INT, j INT)");
  db.Exec("CREATE TABLE d (j INT, v INT)");
  std::vector<table::Row> fr, dr;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    fr.push_back({Value::Int(static_cast<int32_t>(rng.Uniform(100))),
                  Value::Int(static_cast<int32_t>(rng.Uniform(200)))});
  }
  for (int i = 0; i < 200; ++i) {
    dr.push_back({Value::Int(i), Value::Int(i)});
  }
  ASSERT_TRUE(db.database->LoadTable("f", fr).ok());
  ASSERT_TRUE(db.database->LoadTable("d", dr).ok());
  IndexConsultant consultant(db.database.get());
  auto analysis = consultant.Analyze(
      {"SELECT d.v FROM f JOIN d ON f.j = d.j WHERE f.a = 5"});
  ASSERT_TRUE(analysis.ok());
  // The optimizer should have wished for indexes on join/predicate columns.
  EXPECT_GE(analysis->raw_specs.size(), 2u);
}

}  // namespace
}  // namespace hdb::profile
