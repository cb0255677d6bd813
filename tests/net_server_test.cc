// End-to-end tests for the network front end (DESIGN.md §12): real
// sockets against the epoll server, the blocking Client, overload
// shedding through the admission gate, idle shedding, drain, and the
// sys.connections view. Everything binds 127.0.0.1:0 (ephemeral).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/value.h"
#include "engine/database.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metric_names.h"
#include "profile/tracer.h"

namespace hdb {
namespace {

#ifdef HDB_NO_TELEMETRY
#define SKIP_WITHOUT_TELEMETRY() \
  GTEST_SKIP() << "telemetry compiled out (-DHDB_TELEMETRY=OFF)"
#else
#define SKIP_WITHOUT_TELEMETRY() \
  do {                           \
  } while (false)
#endif

using net::Client;
using net::NetResult;
using net::Server;

/// Database + running server, torn down in the right order (server
/// first: its metrics callback and sys.connections provider reach into
/// the database).
struct NetFixture {
  explicit NetFixture(engine::DatabaseOptions db_opts = {},
                      net::ServerOptions server_opts = {}) {
    auto db_or = engine::Database::Open(db_opts);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    db = std::move(*db_or);
    auto conn_or = db->Connect();
    EXPECT_TRUE(conn_or.ok());
    embedded = std::move(*conn_or);
    auto server_or = Server::Start(db.get(), server_opts);
    EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
    server = std::move(*server_or);
  }

  ~NetFixture() {
    server.reset();  // joins the event loop + workers
    embedded.reset();
    db.reset();
  }

  engine::QueryResult Exec(const std::string& sql) {
    auto r = embedded->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : engine::QueryResult{};
  }

  std::unique_ptr<Client> Connect(net::ClientOptions options = {}) {
    auto c = Client::Connect("127.0.0.1", server->port(), std::move(options));
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.ok() ? std::move(*c) : nullptr;
  }

  /// Counter value via SQL — the same path an operator would use.
  int64_t Counter(const std::string& name) {
    auto r = embedded->Execute(
        "SELECT value FROM sys.counters WHERE name = '" + name + "'");
    if (!r.ok() || r->rows.empty()) return 0;
    return r->rows[0][0].AsInt();
  }

  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::Connection> embedded;
  std::unique_ptr<Server> server;
};

// ---------------------------------------------------------------------------
// Basic protocol round trips
// ---------------------------------------------------------------------------

TEST(NetServerTest, HandshakeQueryAndTypedResults) {
  NetFixture fx;
  fx.Exec("CREATE TABLE t (a INT, b DOUBLE, c VARCHAR, d BOOLEAN)");
  fx.Exec("INSERT INTO t VALUES (7, 2.5, 'it''s', TRUE)");
  fx.Exec("INSERT INTO t VALUES (8, NULL, NULL, FALSE)");

  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_GT(client->conn_id(), 0u);
  EXPECT_TRUE(client->Ping().ok());

  auto r = client->Query("SELECT a, b, c, d FROM t ORDER BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns.size(), 4u);
  EXPECT_EQ(r->columns[0], "a");
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->row_count, 2u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 7);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 2.5);
  EXPECT_EQ(r->rows[0][2].AsString(), "it's");
  EXPECT_TRUE(r->rows[0][3].AsBool());
  EXPECT_EQ(r->rows[1][0].AsInt(), 8);
  EXPECT_TRUE(r->rows[1][1].is_null());
  EXPECT_TRUE(r->rows[1][2].is_null());

  // DML reports rows_affected with no result set.
  auto ins = client->Query("INSERT INTO t VALUES (9, 1.0, 'x', TRUE)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->rows_affected, 1u);
  EXPECT_TRUE(ins->columns.empty());

  // EXPLAIN streams as a one-column result set.
  auto ex = client->Query("EXPLAIN SELECT a FROM t");
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  ASSERT_EQ(ex->columns.size(), 1u);
  EXPECT_GT(ex->rows.size(), 0u);

  EXPECT_TRUE(client->Close().ok());
}

TEST(NetServerTest, PreparedStatementLifecycle) {
  NetFixture fx;
  fx.Exec("CREATE TABLE kv (k INT, v VARCHAR)");

  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);

  auto ins = client->Prepare("INSERT INTO kv VALUES (?, ?)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->param_count, 2u);

  // Execute twice with different bindings — including a value whose
  // literal needs quoting.
  ASSERT_TRUE(client->Bind(ins->stmt_id,
                           {Value::Int(1), Value::String("o'brien")})
                  .ok());
  auto r1 = client->ExecutePrepared(ins->stmt_id);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->rows_affected, 1u);
  ASSERT_TRUE(
      client->Bind(ins->stmt_id, {Value::Int(2), Value::Null(TypeId::kVarchar)})
          .ok());
  ASSERT_TRUE(client->ExecutePrepared(ins->stmt_id).ok());

  auto sel = client->Prepare("SELECT v FROM kv WHERE k = ?");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->param_count, 1u);
  ASSERT_TRUE(client->Bind(sel->stmt_id, {Value::Int(1)}).ok());
  auto rows = client->ExecutePrepared(sel->stmt_id);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsString(), "o'brien");

  // Binding the wrong arity is an error; the statement stays usable.
  EXPECT_FALSE(client->Bind(sel->stmt_id, {}).ok());
  ASSERT_TRUE(client->Bind(sel->stmt_id, {Value::Int(2)}).ok());
  auto null_row = client->ExecutePrepared(sel->stmt_id);
  ASSERT_TRUE(null_row.ok());
  ASSERT_EQ(null_row->rows.size(), 1u);
  EXPECT_TRUE(null_row->rows[0][0].is_null());

  // Close; further execution of that id is kNotFound.
  EXPECT_TRUE(client->ClosePrepared(sel->stmt_id).ok());
  auto gone = client->ExecutePrepared(sel->stmt_id);
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(client->Close().ok());
}

// A negative value bound right after '-' stays a value. Spliced into the
// text it would make "--", the start of a line comment, and silently cut
// the statement short.
TEST(NetServerTest, NegativeValueBoundAfterMinusIsNotAComment) {
  NetFixture fx;
  fx.Exec("CREATE TABLE acct (id INT, bal INT)");
  fx.Exec("INSERT INTO acct VALUES (1, 100), (2, 100), (3, 100)");
  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);

  auto upd = client->Prepare("UPDATE acct SET bal = bal -? WHERE id = ?");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->param_count, 2u);
  ASSERT_TRUE(
      client->Bind(upd->stmt_id, {Value::Int(-5), Value::Int(2)}).ok());
  auto r = client->ExecutePrepared(upd->stmt_id);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_affected, 1u);
  auto bal = fx.Exec("SELECT bal FROM acct ORDER BY id");
  ASSERT_EQ(bal.rows.size(), 3u);
  EXPECT_EQ(bal.rows[0][0].AsInt(), 100);
  EXPECT_EQ(bal.rows[1][0].AsInt(), 105);
  EXPECT_EQ(bal.rows[2][0].AsInt(), 100);

  auto sel = client->Prepare("SELECT id FROM acct WHERE id = 3 -?");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_TRUE(client->Bind(sel->stmt_id, {Value::Int(-1)}).ok());
  auto none = client->ExecutePrepared(sel->stmt_id);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->rows.empty());  // 3 - (-1) = 4: no such id
  ASSERT_TRUE(client->Bind(sel->stmt_id, {Value::Int(1)}).ok());
  auto two = client->ExecutePrepared(sel->stmt_id);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  ASSERT_EQ(two->rows.size(), 1u);
  EXPECT_EQ(two->rows[0][0].AsInt(), 2);

  EXPECT_TRUE(client->Close().ok());
}

// A prepared execution and the same SELECT with inline constants share
// one statement shape, so sys.statements counts them on one row.
TEST(NetServerTest, PreparedAndInlineShareOneStatementShape) {
  NetFixture fx;
  fx.Exec("CREATE TABLE kv (k INT, v INT)");
  fx.Exec("INSERT INTO kv VALUES (1, 10), (2, 20)");
  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);

  auto sel = client->Prepare("SELECT v FROM kv WHERE k = ?");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  for (int k = 1; k <= 2; ++k) {
    ASSERT_TRUE(client->Bind(sel->stmt_id, {Value::Int(k)}).ok());
    auto r = client->ExecutePrepared(sel->stmt_id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsInt(), 10 * k);
  }
  fx.Exec("SELECT v FROM kv WHERE k = 2");

  auto rows = fx.Exec(
      "SELECT count FROM sys.statements "
      "WHERE shape = 'SELECT V FROM KV WHERE K = ?'");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 3);
  EXPECT_TRUE(client->Close().ok());
}

// Over the wire the worker opens the statement's registry entry and
// Execute, finding that trace current, opens none: one prepared
// execution is one tracer event and one sys.statements count.
TEST(NetServerTest, PreparedExecutionIsOneCompletion) {
  NetFixture fx;
  fx.Exec("CREATE TABLE kv (k INT, v INT)");
  fx.Exec("INSERT INTO kv VALUES (1, 10), (2, 20)");
  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);
  auto sel = client->Prepare("SELECT v FROM kv WHERE k = ?");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();

  profile::RequestTracer tracer;
  ASSERT_TRUE(tracer.Attach(fx.db.get(), nullptr).ok());
  ASSERT_TRUE(client->Bind(sel->stmt_id, {Value::Int(2)}).ok());
  auto r = client->ExecutePrepared(sel->stmt_id);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(client->Close().ok());
  tracer.Detach();

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].sql, "SELECT v FROM kv WHERE k = ?");
  EXPECT_EQ(events[0].shape, "SELECT V FROM KV WHERE K = ?");
  EXPECT_EQ(events[0].rows_returned, 1u);
  EXPECT_NE(events[0].params_hash, 0u);
  auto rows = fx.Exec(
      "SELECT count FROM sys.statements "
      "WHERE shape = 'SELECT V FROM KV WHERE K = ?'");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].AsInt(), 1);
}

// A tracer whose sink is the monitored database, attached while wire
// clients run: each statement's End runs the sink INSERTs on the net
// worker that finished it, under the lock-rank checker. Every client
// statement is one event and one sink row; the sink's own INSERTs are
// neither.
TEST(NetServerTest, SelfSinkingTracerRunsSinkSqlOnNetWorkers) {
  net::ServerOptions so;
  so.workers = 3;
  NetFixture fx({}, so);
  fx.Exec("CREATE TABLE acc (id INT, bal INT)");
  fx.Exec("INSERT INTO acc VALUES (1, 100)");

  profile::RequestTracer tracer(/*batch_size=*/4);
  ASSERT_TRUE(tracer.Attach(fx.db.get(), fx.db.get()).ok());
  constexpr int kThreads = 4;
  constexpr int kQueriesEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  const uint16_t port = fx.server->port();
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([port, &failures] {
      auto c = Client::Connect("127.0.0.1", port);
      if (!c.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kQueriesEach; ++i) {
        auto r = (*c)->Query("SELECT bal FROM acc WHERE id = 1");
        if (!r.ok() || r->rows.size() != 1) failures.fetch_add(1);
      }
      (void)(*c)->Close();
    });
  }
  for (auto& t : threads) t.join();
  tracer.Detach();
  ASSERT_EQ(failures.load(), 0);

  constexpr int kStatements = kThreads * kQueriesEach;
  EXPECT_EQ(tracer.events().size(), static_cast<size_t>(kStatements));
  EXPECT_EQ(tracer.dropped_sink_writes(), 0u);
  auto sunk = fx.Exec("SELECT COUNT(*) FROM profile_trace");
  ASSERT_EQ(sunk.rows.size(), 1u);
  EXPECT_EQ(sunk.rows[0][0].AsInt(), kStatements);
  auto counted = fx.Exec(
      "SELECT count FROM sys.statements "
      "WHERE shape = 'SELECT BAL FROM ACC WHERE ID = ?'");
  ASSERT_EQ(counted.rows.size(), 1u);
  EXPECT_EQ(counted.rows[0][0].AsInt(), kStatements);
}

TEST(NetServerTest, ErrorFramesKeepTheConnectionUsable) {
  NetFixture fx;
  fx.Exec("CREATE TABLE t (a INT)");
  fx.Exec("INSERT INTO t VALUES (1)");

  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);

  auto bad = client->Query("SELECT FROM WHERE");
  EXPECT_FALSE(bad.ok());
  auto missing = client->Query("SELECT a FROM no_such_table");
  EXPECT_FALSE(missing.ok());

  // The connection survived both errors.
  auto good = client->Query("SELECT a FROM t");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->rows.size(), 1u);
  EXPECT_EQ(good->rows[0][0].AsInt(), 1);
  EXPECT_TRUE(client->Close().ok());
}

// ---------------------------------------------------------------------------
// sys.connections + transactions over the wire
// ---------------------------------------------------------------------------

TEST(NetServerTest, SysConnectionsTracksWireSessions) {
  NetFixture fx;
  fx.Exec("CREATE TABLE t (a INT)");

  std::unique_ptr<Client> a = fx.Connect();
  std::unique_ptr<Client> b = fx.Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(a->Query("BEGIN").ok());
  ASSERT_TRUE(a->Query("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(a->Prepare("SELECT a FROM t WHERE a = ?").ok());

  // The embedded connection is not a wire session; exactly the two
  // clients appear.
  auto rows = fx.Exec(
      "SELECT conn_id, state, in_txn, prepared, statements "
      "FROM sys.connections ORDER BY conn_id");
  ASSERT_EQ(rows.rows.size(), 2u);

  bool saw_a = false;
  for (const auto& row : rows.rows) {
    if (static_cast<uint64_t>(row[0].AsInt()) != a->conn_id()) continue;
    saw_a = true;
    // The reply frame is written before the worker clears its executing
    // flag, so the state may transiently still read "executing".
    EXPECT_TRUE(row[1].AsString() == "ready" ||
                row[1].AsString() == "executing")
        << row[1].AsString();
    EXPECT_TRUE(row[2].AsBool());          // BEGIN left a open
    EXPECT_EQ(row[3].AsInt(), 1);          // one prepared statement
    EXPECT_GE(row[4].AsInt(), 2);          // BEGIN + INSERT at least
  }
  EXPECT_TRUE(saw_a);

  ASSERT_TRUE(a->Query("COMMIT").ok());
  auto after = fx.Exec("SELECT in_txn FROM sys.connections WHERE conn_id = " +
                       std::to_string(a->conn_id()));
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_FALSE(after.rows[0][0].AsBool());

  // The transaction's insert committed — visible through the engine.
  auto committed = fx.Exec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(committed.rows[0][0].AsInt(), 1);

  ASSERT_TRUE(a->Close().ok());
  ASSERT_TRUE(b->Close().ok());
  // The event loop reaps closed connections asynchronously.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.server->stats().active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fx.server->stats().active, 0u);
  auto none = fx.Exec("SELECT COUNT(*) FROM sys.connections");
  EXPECT_EQ(none.rows[0][0].AsInt(), 0);
}

// ---------------------------------------------------------------------------
// Multiplexing: connections ≫ workers
// ---------------------------------------------------------------------------

TEST(NetServerTest, ManyConnectionsMultiplexOntoTwoWorkers) {
  net::ServerOptions so;
  so.workers = 2;
  NetFixture fx({}, so);
  fx.Exec("CREATE TABLE t (a INT)");
  fx.Exec("INSERT INTO t VALUES (41)");

  constexpr int kClients = 64;
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(fx.Connect());
    ASSERT_NE(clients.back(), nullptr) << "client " << i;
  }
  EXPECT_EQ(fx.server->stats().active, static_cast<size_t>(kClients));

  // Every connection executes; two workers serve all 64 sockets.
  for (int i = 0; i < kClients; ++i) {
    auto r = clients[i]->Query("SELECT a FROM t");
    ASSERT_TRUE(r.ok()) << "client " << i << ": " << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsInt(), 41);
  }

  auto count = fx.Exec("SELECT COUNT(*) FROM sys.connections");
  EXPECT_EQ(count.rows[0][0].AsInt(), kClients);

  for (auto& c : clients) EXPECT_TRUE(c->Close().ok());
}

TEST(NetServerTest, ConcurrentClientsSeeConsistentResults) {
  net::ServerOptions so;
  so.workers = 3;
  NetFixture fx({}, so);
  fx.Exec("CREATE TABLE acc (id INT, bal INT)");
  fx.Exec("INSERT INTO acc VALUES (1, 100)");
  fx.Exec("INSERT INTO acc VALUES (2, 200)");

  constexpr int kThreads = 6;
  constexpr int kQueriesEach = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  const uint16_t port = fx.server->port();
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([port, &failures] {
      auto c = Client::Connect("127.0.0.1", port);
      if (!c.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kQueriesEach; ++i) {
        auto r = (*c)->Query("SELECT SUM(bal) FROM acc");
        if (!r.ok() || r->rows.size() != 1 || r->rows[0][0].AsInt() != 300) {
          failures.fetch_add(1);
          return;
        }
      }
      (void)(*c)->Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Overload: the MPL gate answers with structured frames, never a hang
// ---------------------------------------------------------------------------

TEST(NetServerTest, OverloadShedsWithRetryHintInsteadOfHanging) {
  engine::DatabaseOptions dbo;
  // Pin the multiprogramming level to 1 so a single slow statement
  // saturates the gate deterministically, and keep the queue timeout
  // short so queued statements shed fast.
  dbo.memory_governor.multiprogramming_level = 1;
  dbo.mpl_controller.min_mpl = 1;
  dbo.mpl_controller.max_mpl = 1;
  dbo.admission_gate.queue_timeout_micros = 100'000;  // 100 ms

  net::ServerOptions so;
  so.workers = 4;
  // Shed as soon as anyone is queued — with MPL 1, one hog executing and
  // one hog queued means every further statement gets kOverloaded
  // without ever parking a worker.
  so.session.overload_waiting_limit = 1;
  so.session.overload_retry_ms = 50;
  NetFixture fx(dbo, so);

  // A join big enough to hold the only MPL slot for a while on one core:
  // every row shares b, so the self-join produces rows² pairs.
  fx.Exec("CREATE TABLE hog (a INT, b INT)");
  fx.Exec("BEGIN");
  for (int i = 0; i < 1200; ++i) {
    fx.Exec("INSERT INTO hog VALUES (" + std::to_string(i) + ", 1)");
  }
  fx.Exec("COMMIT");
  fx.Exec("CREATE TABLE tiny (a INT)");
  fx.Exec("INSERT INTO tiny VALUES (1)");

  const std::string slow =
      "SELECT COUNT(*) FROM hog x JOIN hog y ON x.b = y.b";

  std::atomic<bool> stop{false};
  std::atomic<int> hog_overloads{0};
  std::atomic<int> hog_errors{0};
  const uint16_t port = fx.server->port();
  auto hog_loop = [&] {
    auto c = Client::Connect("127.0.0.1", port);
    if (!c.ok()) {
      hog_errors.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      auto r = (*c)->Query(slow);
      if (!r.ok()) {
        if (r.status().code() == StatusCode::kOverloaded) {
          hog_overloads.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        } else {
          hog_errors.fetch_add(1);
          return;
        }
      }
    }
    (void)(*c)->Close();
  };
  std::thread hog_a(hog_loop);
  std::thread hog_b(hog_loop);

  // Probe until we observe shedding: a cheap query answered kOverloaded
  // with the retry hint, while the hogs keep the one MPL slot busy.
  std::unique_ptr<Client> probe = fx.Connect();
  ASSERT_NE(probe, nullptr);
  int overloads_seen = 0;
  int ok_seen = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (overloads_seen == 0 && std::chrono::steady_clock::now() < deadline) {
    auto r = probe->Query("SELECT a FROM tiny");
    if (!r.ok()) {
      ASSERT_EQ(r.status().code(), StatusCode::kOverloaded)
          << r.status().ToString();
      ++overloads_seen;
      EXPECT_GT(probe->retry_after_ms(), 0u);
    } else {
      ++ok_seen;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  hog_a.join();
  hog_b.join();

  EXPECT_GT(overloads_seen, 0) << "gate never saturated (ok=" << ok_seen
                               << ", hog overloads=" << hog_overloads.load()
                               << ")";
  EXPECT_EQ(hog_errors.load(), 0);

  // Overload is a structured answer, not a dropped connection: the same
  // probe connection works once the hogs stop.
  auto after = probe->Query("SELECT a FROM tiny");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows[0][0].AsInt(), 1);
  EXPECT_TRUE(probe->Close().ok());

#ifndef HDB_NO_TELEMETRY
  EXPECT_GT(fx.Counter(obs::kNetOverloadsSent), 0);
#endif
}

TEST(NetServerTest, AcceptBeyondMaxConnectionsIsRefusedWithOverloadFrame) {
  net::ServerOptions so;
  so.max_connections = 2;
  NetFixture fx({}, so);

  std::unique_ptr<Client> a = fx.Connect();
  std::unique_ptr<Client> b = fx.Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  auto c = Client::Connect("127.0.0.1", fx.server->port());
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kOverloaded)
      << c.status().ToString();
  EXPECT_GE(fx.server->stats().rejected, 1u);

  // Freeing a slot lets the next connect through.
  ASSERT_TRUE(a->Close().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::unique_ptr<Client> d;
  while (std::chrono::steady_clock::now() < deadline) {
    auto retry = Client::Connect("127.0.0.1", fx.server->port());
    if (retry.ok()) {
      d = std::move(*retry);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(d, nullptr) << "slot never freed after close";
  EXPECT_TRUE(d->Ping().ok());
}

// ---------------------------------------------------------------------------
// Idle shedding + drain
// ---------------------------------------------------------------------------

TEST(NetServerTest, IdleConnectionsAreShedWithGoodbye) {
  net::ServerOptions so;
  so.idle_timeout_ms = 100;
  NetFixture fx({}, so);

  std::unique_ptr<Client> idle = fx.Connect();
  ASSERT_NE(idle, nullptr);
  EXPECT_TRUE(idle->Ping().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->stats().shed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(fx.server->stats().shed, 1u);

  // The client's next request fails — the server said goodbye and closed.
  net::ClientOptions timeout;
  EXPECT_FALSE(idle->Ping().ok());
}

TEST(NetServerTest, RequestShutdownDrainsIdleConnections) {
  NetFixture fx;
  std::unique_ptr<Client> a = fx.Connect();
  std::unique_ptr<Client> b = fx.Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  fx.server->RequestShutdown();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!fx.server->finished() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fx.server->finished());
  EXPECT_EQ(fx.server->stats().active, 0u);

  // Clients observe the goodbye (or the close) — either way no hang.
  EXPECT_FALSE(a->Ping().ok());
  EXPECT_FALSE(b->Ping().ok());

  // New connections are refused during/after drain.
  auto late = Client::Connect("127.0.0.1", fx.server->port());
  EXPECT_FALSE(late.ok());

  fx.server->Stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Malformed input over a raw socket
// ---------------------------------------------------------------------------

/// Hand-rolled socket speaking raw bytes — for tests the Client cannot
/// express (protocol violations).
struct RawConn {
  int fd = -1;
  net::FrameAssembler assembler;

  bool Connect(uint16_t port) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      fd = -1;
      return false;
    }
    timeval tv{};
    tv.tv_sec = 10;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  ~RawConn() {
    if (fd >= 0) close(fd);
  }

  bool SendAll(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next frame, or nullopt on EOF/poison. `storage` owns the payload.
  std::optional<net::Frame> ReadFrame(std::string* storage) {
    while (true) {
      auto next = assembler.Next();
      if (!next.ok()) return std::nullopt;
      if (next->has_value()) {
        storage->assign((**next).payload);
        return net::Frame{(**next).opcode, *storage};
      }
      char buf[4096];
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      assembler.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  bool SendHello() {
    std::string payload;
    net::PutU32(&payload, net::kProtocolVersion);
    net::PutString(&payload, "raw-test");
    std::string frame;
    net::AppendFrame(&frame, net::Opcode::kHello, payload);
    if (!SendAll(frame)) return false;
    std::string storage;
    auto reply = ReadFrame(&storage);
    return reply.has_value() &&
           reply->opcode == static_cast<uint8_t>(net::Opcode::kHelloOk);
  }
};

TEST(NetServerTest, UnknownOpcodeGetsErrorFrameAndConnectionSurvives) {
  NetFixture fx;
  RawConn raw;
  ASSERT_TRUE(raw.Connect(fx.server->port()));
  ASSERT_TRUE(raw.SendHello());

  // Valid framing, nonsense opcode: recoverable.
  std::string frame;
  net::PutU32(&frame, 1);  // length: opcode only
  frame.push_back(static_cast<char>(0x55));
  ASSERT_TRUE(raw.SendAll(frame));
  std::string storage;
  auto reply = raw.ReadFrame(&storage);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->opcode, static_cast<uint8_t>(net::Opcode::kError));

  // Still alive: ping answers.
  std::string ping;
  net::AppendFrame(&ping, net::Opcode::kPing, {});
  ASSERT_TRUE(raw.SendAll(ping));
  auto pong = raw.ReadFrame(&storage);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->opcode, static_cast<uint8_t>(net::Opcode::kPong));
}

TEST(NetServerTest, FramingViolationClosesTheConnection) {
  NetFixture fx;
  RawConn raw;
  ASSERT_TRUE(raw.Connect(fx.server->port()));
  ASSERT_TRUE(raw.SendHello());

  // Zero-length frame: framing is unrecoverable — the server answers
  // with error + goodbye and closes.
  std::string zeros(4, '\0');
  ASSERT_TRUE(raw.SendAll(zeros));

  bool saw_goodbye = false;
  std::string storage;
  while (auto f = raw.ReadFrame(&storage)) {
    if (f->opcode == static_cast<uint8_t>(net::Opcode::kGoodbye)) {
      saw_goodbye = true;
    }
  }
  EXPECT_TRUE(saw_goodbye);

  // recv hits EOF after the goodbye: the fd really closed.
  char byte;
  ssize_t n = recv(raw.fd, &byte, 1, 0);
  EXPECT_LE(n, 0);

  // The server itself is unharmed.
  std::unique_ptr<Client> ok = fx.Connect();
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->Ping().ok());
}

TEST(NetServerTest, StatementsBeforeHandshakeAreRejected) {
  NetFixture fx;
  RawConn raw;
  ASSERT_TRUE(raw.Connect(fx.server->port()));

  std::string payload;
  net::PutString(&payload, "SELECT 1");
  std::string frame;
  net::AppendFrame(&frame, net::Opcode::kQuery, payload);
  ASSERT_TRUE(raw.SendAll(frame));

  std::string storage;
  auto reply = raw.ReadFrame(&storage);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->opcode, static_cast<uint8_t>(net::Opcode::kError));
  // Pre-handshake violations close the connection after the error frame.
  auto next = raw.ReadFrame(&storage);
  EXPECT_FALSE(next.has_value());
}

// ---------------------------------------------------------------------------
// Telemetry surface
// ---------------------------------------------------------------------------

TEST(NetServerTest, NetMetricsShowUpInSysCounters) {
  SKIP_WITHOUT_TELEMETRY();
  NetFixture fx;
  fx.Exec("CREATE TABLE t (a INT)");

  std::unique_ptr<Client> client = fx.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Query("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(client->Query("SELECT a FROM t").ok());

  EXPECT_GE(fx.Counter(obs::kNetConnectionsAccepted), 1);
  EXPECT_EQ(fx.Counter(obs::kNetConnectionsActive), 1);
  EXPECT_GE(fx.Counter(obs::kNetFramesIn), 3);   // hello + 2 queries
  EXPECT_GE(fx.Counter(obs::kNetFramesOut), 3);  // hello_ok + replies
  EXPECT_GT(fx.Counter(obs::kNetBytesIn), 0);
  EXPECT_GT(fx.Counter(obs::kNetBytesOut), 0);
  EXPECT_GE(fx.Counter(obs::kNetStatements), 2);

  ASSERT_TRUE(client->Close().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.Counter(obs::kNetConnectionsClosed) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(fx.Counter(obs::kNetConnectionsClosed), 1);
  EXPECT_EQ(fx.Counter(obs::kNetConnectionsActive), 0);
}

}  // namespace
}  // namespace hdb
