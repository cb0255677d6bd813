// `oltp_wire`: short reads and autocommit writes from a separate client
// process through net::Client -> net::Server, on a durable database that
// was crashed and recovered during set-up.
//
// The client process is forked before the database process starts any
// thread; it runs one closed-loop thread per connection and ships its
// latency samples back over a pipe, so the CPU time measured here is the
// database process's alone.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "common/rng.h"
#include "engine/parser.h"
#include "net/client.h"
#include "net/server.h"
#include "os/stable_storage.h"
#include "perfbench.h"
#include "spans.h"

namespace perfbench {

namespace {

using hdb::Value;
using hdb::engine::Connection;
using hdb::engine::Database;

constexpr int kRows = 50'000;
constexpr size_t kPoolFrames = 2048;
constexpr int kRangeLen = 20;
/// Durable UPDATEs run embedded before the crash, each advancing the
/// virtual clock by a fixed step so checkpoints land the same way on
/// every run.
constexpr int kHistory = 10'000;
constexpr int64_t kHistoryTickMicros = 2'000;
constexpr int kWarmupStatements = 2'000;
constexpr int kSetups = 3;
constexpr int kInitialBal = 100;
/// Client connections and server workers, each capped at the core count.
/// Two of each leave the host's other cores to the event loop, the ticker
/// and the client process, so the run does not oversubscribe the host.
constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
/// Probe statements in the traced run, and how often each layer probe is
/// repeated (its median is used).
constexpr int kProbes = 500;
constexpr int kLayerReps = 5;
/// Statements of the fixed-count wire phase that counts allocations.
constexpr int kCountedStatements = 2'000;

const char* const kTables[] = {"acct"};

enum Kind : uint8_t {
  kPoint,        // SELECT by key, as text
  kPrepared,     // the same SELECT through a wire prepared statement
  kCallRead,     // CALL of a procedure SELECT
  kRange,        // 20 consecutive keys on the indexed column
  kUpdate,       // UPDATE by key
  kCallUpdate,   // CALL of a procedure UPDATE
  kInsert,       // INSERT of a fresh key ...
  kDelete,       // ... and the DELETE that takes it out again
  kKinds
};
const char* const kKindNames[kKinds] = {"point",  "prepared",    "call_read",
                                        "range",  "update",      "call_update",
                                        "insert", "delete"};
bool IsWrite(uint8_t k) { return k >= kUpdate; }

/// Statement streams of one run; each owns a range of insert keys above
/// every loaded key.
enum StreamId : uint64_t {
  kWireStream = 1,
  kWarmupStream,
  kEmbeddedStream,
  kProbeStream,
  kCountedStream
};

/// Immutable column of row `id`: the seeded function the reads check.
int32_t CValue(uint64_t seed, int64_t id) {
  return static_cast<int32_t>(Mix(seed * 0x100000001b3ull ^
                                  static_cast<uint64_t>(id)) %
                              1'000'000);
}

struct Stmt {
  uint8_t kind = kPoint;
  int64_t key = 0;
  int delta = 0;
  std::string sql;
};

/// One connection's seeded statement stream. Writes touch only keys
/// congruent to the connection's index, so concurrent writers never
/// contend for a row (the lock manager is no-wait); inserted keys come
/// from a range of the connection's own above every loaded key.
/// `data_seed` is the run's seed, which fixes the rows' contents;
/// `stream` tells apart the streams of the phases that share a run.
class StmtStream {
 public:
  StmtStream(uint64_t data_seed, uint64_t stream, int conn, int conns)
      : rng_(Mix(data_seed * 131 + stream * 7919 + static_cast<uint64_t>(conn)) |
             1),
        data_seed_(data_seed),
        conn_(conn),
        conns_(conns),
        next_insert_(static_cast<int64_t>(stream) * 100'000'000 +
                     static_cast<int64_t>(conn) * 10'000'000) {}

  Stmt Next() {
    const uint64_t roll = rng_.Uniform(100);
    Stmt s;
    // Reads 80%: point 35, prepared 20, call 20, range 5.
    // Writes 20%: update 8, call 6, insert/delete pairs 6.
    if (roll < 35) {
      s.kind = kPoint;
    } else if (roll < 55) {
      s.kind = kPrepared;
    } else if (roll < 75) {
      s.kind = kCallRead;
    } else if (roll < 80) {
      s.kind = kRange;
    } else if (roll < 88) {
      s.kind = kUpdate;
    } else if (roll < 94) {
      s.kind = kCallUpdate;
    } else {
      s.kind = pending_ >= 0 ? kDelete : kInsert;
    }
    switch (s.kind) {
      case kPoint:
      case kPrepared:
        s.key = static_cast<int64_t>(rng_.Uniform(kRows));
        s.sql = "SELECT id, c, bal FROM acct WHERE id = " + std::to_string(s.key);
        break;
      case kCallRead:
        s.key = static_cast<int64_t>(rng_.Uniform(kRows));
        s.sql = "CALL get_acct(" + std::to_string(s.key) + ")";
        break;
      case kRange:
        s.key = static_cast<int64_t>(rng_.Uniform(kRows - kRangeLen + 1));
        s.sql = "SELECT id, c FROM acct WHERE id BETWEEN " +
                std::to_string(s.key) + " AND " +
                std::to_string(s.key + kRangeLen - 1);
        break;
      case kUpdate:
      case kCallUpdate: {
        const int64_t slots = (kRows - conn_ + conns_ - 1) / conns_;
        s.key = static_cast<int64_t>(rng_.Uniform(slots)) * conns_ + conn_;
        s.delta = 1 + static_cast<int>(rng_.Uniform(9));
        s.sql = s.kind == kUpdate
                    ? "UPDATE acct SET bal = bal + " + std::to_string(s.delta) +
                          " WHERE id = " + std::to_string(s.key)
                    : "CALL credit(" + std::to_string(s.key) + ", " +
                          std::to_string(s.delta) + ")";
        break;
      }
      case kInsert:
        s.key = next_insert_++;
        s.sql = "INSERT INTO acct VALUES (" + std::to_string(s.key) + ", " +
                std::to_string(CValue(data_seed_, s.key)) + ", 0)";
        pending_ = s.key;
        break;
      case kDelete:
        s.key = pending_;
        s.sql = "DELETE FROM acct WHERE id = " + std::to_string(s.key);
        pending_ = -1;
        break;
    }
    return s;
  }

  /// The DELETE that restores the table size, if an INSERT is pending.
  bool TakePendingDelete(Stmt* s) {
    if (pending_ < 0) return false;
    s->kind = kDelete;
    s->key = pending_;
    s->sql = "DELETE FROM acct WHERE id = " + std::to_string(pending_);
    pending_ = -1;
    return true;
  }


 private:
  hdb::Rng rng_;
  uint64_t data_seed_;
  int conn_;
  int conns_;
  int64_t next_insert_;
  int64_t pending_ = -1;
};

/// Checks one statement's outcome. `c_skew` != 0 corrupts the expected
/// value (self-check of the checker).
bool CheckResult(uint64_t seed, const Stmt& s,
                 const std::vector<std::vector<Value>>& rows,
                 uint64_t rows_affected, int32_t c_skew) {
  const auto row_ok = [&](const std::vector<Value>& r, int64_t id) {
    return r.size() >= 2 && !r[0].is_null() && r[0].AsInt() == id &&
           !r[1].is_null() && r[1].AsInt() == CValue(seed, id) + c_skew;
  };
  switch (s.kind) {
    case kPoint:
    case kPrepared:
    case kCallRead:
      return rows.size() == 1 && row_ok(rows[0], s.key);
    case kRange: {
      if (rows.size() != kRangeLen) return false;
      std::vector<const std::vector<Value>*> sorted;
      for (const auto& r : rows) sorted.push_back(&r);
      std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
        return (*a)[0].AsInt() < (*b)[0].AsInt();
      });
      for (int i = 0; i < kRangeLen; ++i) {
        if (!row_ok(*sorted[i], s.key + i)) return false;
      }
      return true;
    }
    default:
      return rows_affected == 1;
  }
}

// --- client process ---------------------------------------------------

struct PhaseCmd {
  uint16_t port = 0;  // 0 = exit
  double start_s = 0;  // steady clock, shared with the client process
  int32_t millis = 0;
  /// > 0: each connection runs exactly this many statements from a fresh
  /// stream of its own, and `millis` is ignored.
  int32_t statements = 0;
  int32_t conns = 0;
  uint8_t traced = 0;
  uint8_t inject = 0;
  uint64_t seed = 0;
};

struct Sample {
  double end_s;
  float us;
  uint8_t kind;
  uint8_t ok;
};

struct PhaseSummary {
  uint64_t samples = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t overloads = 0;
  int64_t credits = 0;
  double wall_s = 0;
  uint32_t span_text_bytes = 0;
};

bool WriteAll(int fd, const void* p, size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = write(fd, c, n);
    if (w <= 0) return false;
    c += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* p, size_t n) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t r = read(fd, c, n);
    if (r <= 0) return false;
    c += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// One client connection's share of a phase.
struct ConnWork {
  std::vector<Sample> samples;
  uint64_t attempted = 0, failed = 0, overloads = 0;
  int64_t credits = 0;
};

void RunClientConn(const PhaseCmd& cmd, StmtStream* stream, int conn,
                   double deadline, ConnWork* out) {
  hdb::net::ClientOptions co;
  co.client_name = "perfbench";
  auto client_or = hdb::net::Client::Connect("127.0.0.1", cmd.port, co);
  if (!client_or.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  std::unique_ptr<hdb::net::Client> client = std::move(*client_or);
  auto prepared = client->Prepare("SELECT id, c, bal FROM acct WHERE id = ?");
  if (!prepared.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  int32_t skew = cmd.inject ? 1 : 0;
  const auto run = [&](const Stmt& s) {
    hdb::Result<hdb::net::NetResult> r = [&]() -> hdb::Result<hdb::net::NetResult> {
      if (s.kind != kPrepared) {
        spans::Span span("net.client.query");
        return client->Query(s.sql);
      }
      spans::Span span("net.client.prepared");
      {
        spans::Span bind("net.client.bind");
        const hdb::Status b =
            client->Bind(prepared->stmt_id, {Value::Int(static_cast<int32_t>(s.key))});
        if (!b.ok()) return b;
      }
      spans::Span exec("net.client.execute_prepared");
      return client->ExecutePrepared(prepared->stmt_id);
    }();
    bool ok = false;
    if (r.ok()) {
      ok = CheckResult(cmd.seed, s, r->rows, r->rows_affected,
                       IsWrite(s.kind) ? 0 : skew);
      if (!IsWrite(s.kind)) skew = 0;  // inject one wrong row at most
    } else if (r.status().code() == hdb::StatusCode::kOverloaded) {
      ++out->overloads;
    }
    if (ok && (s.kind == kUpdate || s.kind == kCallUpdate)) {
      out->credits += s.delta;
    }
    return ok;
  };
  uint64_t n = 0;
  while (cmd.statements > 0 ? n < static_cast<uint64_t>(cmd.statements)
                            : NowSeconds() < deadline) {
    const Stmt s = stream->Next();
    spans::SetStatement((static_cast<uint64_t>(conn) << 40) | ++n);
    const uint64_t t0 = NowNanos();
    const bool ok = run(s);
    const uint64_t t1 = NowNanos();
    out->samples.push_back({static_cast<double>(t1) / 1e9,
                            static_cast<float>(t1 - t0) / 1e3f, s.kind,
                            static_cast<uint8_t>(ok)});
    ++out->attempted;
    if (!ok) ++out->failed;
  }
  // Untimed: leave the table at its loaded size.
  Stmt del;
  if (stream->TakePendingDelete(&del)) {
    ++out->attempted;
    if (!run(del)) ++out->failed;
  }
  (void)client->Close();
}

int RunClientProcess(int cmd_fd, int res_fd, const std::string& span_path) {
  std::vector<StmtStream> streams;
  PhaseCmd cmd;
  while (ReadAll(cmd_fd, &cmd, sizeof(cmd)) && cmd.port != 0) {
    if (streams.empty()) {
      for (int c = 0; c < cmd.conns; ++c) {
        streams.emplace_back(cmd.seed, kWireStream, c, cmd.conns);
      }
    }
    std::vector<StmtStream> counted;
    if (cmd.statements > 0) {
      for (int c = 0; c < cmd.conns; ++c) {
        counted.emplace_back(cmd.seed, kCountedStream, c, cmd.conns);
      }
    }
    std::vector<StmtStream>& use = counted.empty() ? streams : counted;
    spans::Clear();
    spans::SetEnabled(cmd.traced != 0);
    std::vector<ConnWork> work(static_cast<size_t>(cmd.conns));
    const double start = cmd.start_s;
    const double deadline = start + cmd.millis / 1000.0;
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < cmd.conns; ++c) {
        threads.emplace_back(RunClientConn, std::cref(cmd), &use[c], c,
                             deadline, &work[c]);
      }
      for (auto& t : threads) t.join();
    }
    spans::SetEnabled(false);
    PhaseSummary sum;
    sum.wall_s = NowSeconds() - start;
    std::vector<Sample> all;
    for (const ConnWork& w : work) {
      all.insert(all.end(), w.samples.begin(), w.samples.end());
      sum.attempted += w.attempted;
      sum.failed += w.failed;
      sum.overloads += w.overloads;
      sum.credits += w.credits;
    }
    sum.samples = all.size();
    std::string span_text;
    if (cmd.traced) {
      for (const auto& [name, t] : spans::Summarize()) {
        char line[160];
        std::snprintf(line, sizeof(line), "%s %llu %.3f %.3f\n", name.c_str(),
                      static_cast<unsigned long long>(t.count), t.total_us,
                      t.self_us);
        span_text += line;
      }
      spans::WriteChromeTrace(span_path);
    }
    sum.span_text_bytes = static_cast<uint32_t>(span_text.size());
    if (!WriteAll(res_fd, &sum, sizeof(sum)) ||
        !WriteAll(res_fd, all.data(), all.size() * sizeof(Sample)) ||
        !WriteAll(res_fd, span_text.data(), span_text.size())) {
      return 11;
    }
  }
  return 0;
}

struct ClientProcess {
  pid_t pid = -1;
  int cmd_wr = -1;
  int res_rd = -1;
};

// --- database process -------------------------------------------------

struct WireDb {
  std::shared_ptr<hdb::os::StableStorage> media;
  hdb::engine::DatabaseOptions options;
  std::unique_ptr<Database> db;
  double setup_s = 0;    // excluding restart_s
  double restart_s = 0;
  hdb::wal::RecoveryStats recovery;
  int64_t expected_sum = 0;  // SUM(bal) the committed writes imply
};

int64_t SumBal(Database* db) {
  auto conn = ConnectOrDie(db);
  const auto r = ExecOrDie(conn.get(), "SELECT SUM(bal) FROM acct");
  if (r.rows.size() != 1 || r.rows[0].empty() || r.rows[0][0].is_null()) {
    return -1;
  }
  return r.rows[0][0].AsInt();
}

/// Runs `s` embedded; the prepared class runs as the text the server
/// executes for it.
bool RunEmbedded(Connection* c, uint64_t seed, const Stmt& s,
                 hdb::engine::QueryResult* out) {
  auto r = c->Execute(s.sql);
  if (!r.ok()) return false;
  const bool ok = CheckResult(seed, s, r->rows, r->rows_affected, 0);
  if (out != nullptr) *out = std::move(*r);
  return ok;
}

WireDb SetUp(uint64_t seed, Report* report) {
  const double start = NowSeconds();
  WireDb w;
  w.media = std::make_shared<hdb::os::StableStorage>(
      hdb::engine::DatabaseOptions{}.page_bytes);
  w.options.initial_pool_frames = kPoolFrames;
  // The pool is pinned: the data fits, and the governor would otherwise
  // grow it during the timed phase as the log lengthens the database's
  // size, so the run would not be steady.
  w.options.pool_governor.min_bytes = w.options.pool_governor.max_bytes =
      kPoolFrames * w.options.page_bytes;
  w.options.media = w.media;
  auto db = OpenOrDie(w.options);
  {
    auto conn = ConnectOrDie(db.get());
    Connection* c = conn.get();
    ExecOrDie(c, "CREATE TABLE acct (id INT NOT NULL, c INT, bal INT)");
    ExecOrDie(c, "CREATE INDEX acct_id ON acct (id)");
    std::vector<hdb::table::Row> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(i), Value::Int(CValue(seed, i)),
                      Value::Int(kInitialBal)});
    }
    const hdb::Status s = db->LoadTable("acct", rows);
    if (!s.ok()) Die("load acct: " + s.ToString());
    ExecOrDie(c, "CREATE PROCEDURE get_acct (:k) AS "
                 "SELECT id, c, bal FROM acct WHERE id = :k");
    ExecOrDie(c, "CREATE PROCEDURE credit (:k, :d) AS "
                 "UPDATE acct SET bal = bal + :d WHERE id = :k");
    // The write history: durable autocommit UPDATEs.
    hdb::Rng rng(Mix(seed ^ 0x4157) | 1);
    w.expected_sum = static_cast<int64_t>(kRows) * kInitialBal;
    for (int i = 0; i < kHistory; ++i) {
      const int key = static_cast<int>(rng.Uniform(kRows));
      const int delta = 1 + static_cast<int>(rng.Uniform(9));
      const auto r = ExecOrDie(c, "UPDATE acct SET bal = bal + " +
                                      std::to_string(delta) +
                                      " WHERE id = " + std::to_string(key));
      if (r.rows_affected != 1) Die("history UPDATE missed its row");
      w.expected_sum += delta;
      db->Tick(kHistoryTickMicros);
    }
  }
  // Crash: every media op fails from here, the process state vanishes
  // with the Database, and the media keeps only what was synced.
  w.media->ScheduleCrash(0);
  db.reset();
  w.media->PowerCycle();
  const double restart_start = NowSeconds();
  w.db = OpenOrDie(w.options);
  w.restart_s = NowSeconds() - restart_start;
  w.recovery = w.db->recovery_stats();

  // Every committed history write survived, then warm the pool and the
  // statement paths with the mix itself.
  ++report->attempted;
  if (SumBal(w.db.get()) != w.expected_sum) {
    ++report->failed;
    report->Fail("SUM(bal) after recovery differs from the committed history");
  }
  {
    auto conn = ConnectOrDie(w.db.get());
    StmtStream warm(seed, kWarmupStream, 0, 1);
    for (int i = 0; i < kWarmupStatements; ++i) {
      const Stmt s = warm.Next();
      ++report->attempted;
      if (!RunEmbedded(conn.get(), seed, s, nullptr)) {
        ++report->failed;
        report->Fail("warm-up statement failed: " + s.sql);
      } else if (s.kind == kUpdate || s.kind == kCallUpdate) {
        w.expected_sum += s.delta;
      }
    }
    Stmt del;
    if (warm.TakePendingDelete(&del)) {
      ++report->attempted;
      if (!RunEmbedded(conn.get(), seed, del, nullptr)) ++report->failed;
    }
  }
  w.setup_s = NowSeconds() - start - w.restart_s;
  return w;
}

/// Server, ticker and the wire phases run against it.
class Serving {
 public:
  Serving(Database* db, int workers) : db_(db) {
    hdb::net::ServerOptions so;
    so.workers = workers;
    auto server = hdb::net::Server::Start(db, so);
    if (!server.ok()) Die("server start: " + server.status().ToString());
    server_ = std::move(*server);
    ticker_ = std::thread([this] {
      auto last = std::chrono::steady_clock::now();
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const auto now = std::chrono::steady_clock::now();
        db_->Tick(std::chrono::duration_cast<std::chrono::microseconds>(
                      now - last)
                      .count());
        last = now;
      }
    });
  }
  ~Serving() {
    stop_.store(true);
    ticker_.join();
    server_->Stop();
  }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  uint16_t port() const { return server_->port(); }

 private:
  Database* db_;
  std::unique_ptr<hdb::net::Server> server_;
  std::atomic<bool> stop_{false};
  std::thread ticker_;
};

struct PhaseResult {
  PhaseSummary sum;
  std::vector<Sample> samples;
  std::string span_text;
  double cpu_s = 0;  // database process, until the last client finished
  double start_s = 0;
};

/// Runs one wire phase: for `seconds`, or when `statements` > 0 for that
/// many statements per connection.
PhaseResult RunWirePhase(const ClientProcess& cp, uint16_t port, double seconds,
                         int statements, int conns, bool traced,
                         const RunOptions& opts) {
  PhaseCmd cmd;
  cmd.port = port;
  cmd.millis = static_cast<int32_t>(seconds * 1000);
  cmd.statements = statements;
  cmd.conns = conns;
  cmd.traced = traced;
  cmd.inject = opts.inject_wrong_row;
  cmd.seed = opts.seed;
  PhaseResult out;
  const double cpu0 = ProcessCpuSeconds();
  out.start_s = NowSeconds();
  cmd.start_s = out.start_s;
  if (!WriteAll(cp.cmd_wr, &cmd, sizeof(cmd))) Die("client process gone");
  if (!ReadAll(cp.res_rd, &out.sum, sizeof(out.sum))) Die("client process died");
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.samples.resize(out.sum.samples);
  out.span_text.resize(out.sum.span_text_bytes);
  if (!ReadAll(cp.res_rd, out.samples.data(),
               out.samples.size() * sizeof(Sample)) ||
      !ReadAll(cp.res_rd, out.span_text.data(), out.span_text.size())) {
    Die("client process result truncated");
  }
  return out;
}

void StopClient(ClientProcess* cp) {
  PhaseCmd quit;
  (void)WriteAll(cp->cmd_wr, &quit, sizeof(quit));
  close(cp->cmd_wr);
  close(cp->res_rd);
  int status = 0;
  waitpid(cp->pid, &status, 0);
  SetChildProcess(0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("client process exited abnormally");
  }
}

std::vector<double> Latencies(const std::vector<Sample>& s, int which) {
  // which: 0 all, 1 reads, 2 committed writes
  std::vector<double> out;
  for (const Sample& x : s) {
    if (which == 1 && IsWrite(x.kind)) continue;
    if (which == 2 && (!IsWrite(x.kind) || !x.ok)) continue;
    out.push_back(x.us);
  }
  return out;
}

void PrintKindLatencies(const std::vector<Sample>& samples) {
  std::vector<double> us[kKinds];
  for (const Sample& x : samples) us[x.kind].push_back(x.us);
  std::printf("  %-14s %8s %12s %12s %12s\n", "statement", "count", "p50_us",
              "p99_us", "max_us");
  for (int k = 0; k < kKinds; ++k) {
    std::printf("  %-14s %8zu %12.1f %12.1f %12.1f\n", kKindNames[k],
                us[k].size(), Percentile(us[k], 0.5), Percentile(us[k], 0.99),
                Percentile(us[k], 1.0));
  }
}

void RecordConfig(const WireDb& w, int conns, int workers, Report* report) {
  const uint64_t pages = DataPages(w.db.get(), kTables, 1);
  report->Config("workload", "\"oltp_wire\"");
  report->ConfigNum("server_workers", workers);
  report->ConfigNum("connections", conns);
  report->ConfigNum("client_processes", 1);
  report->ConfigNum("rows", kRows);
  report->ConfigNum("data_pages_start", static_cast<double>(pages));
  report->ConfigNum("pool_frames_configured", kPoolFrames);
  report->ConfigNum("history_writes", kHistory);
  report->ConfigNum("restart_records_scanned",
                    static_cast<double>(w.recovery.scanned_records));
  if (pages >= w.db->pool().stats().current_frames) {
    Die("acct (" + std::to_string(pages) + " pages) does not fit the pool");
  }
}

void CheckFinalSum(const WireDb& w, int64_t credits, Report* report) {
  ++report->attempted;
  const int64_t got = SumBal(w.db.get());
  if (got != w.expected_sum + credits) {
    ++report->failed;
    report->Fail("SUM(bal) " + std::to_string(got) + " != committed " +
                 std::to_string(w.expected_sum + credits));
  }
}

void Account(const PhaseSummary& s, Report* report) {
  report->attempted += s.attempted;
  report->failed += s.failed;
  if (s.failed > 0) {
    report->Fail(std::to_string(s.failed) + " wire statements failed (" +
                 std::to_string(s.overloads) + " overloaded)");
  }
}

/// The same seeded mix, embedded through Connection::Execute from `conns`
/// threads: the baseline for net.wire_overhead_us.
struct EmbeddedResult {
  std::vector<double> latency_us;
  uint64_t attempted = 0, failed = 0, cached = 0, bypassed = 0, selects = 0;
  int64_t credits = 0;
};

EmbeddedResult RunEmbeddedPhase(Database* db, uint64_t seed, int conns,
                                double seconds) {
  std::vector<EmbeddedResult> parts(static_cast<size_t>(conns));
  const double deadline = NowSeconds() + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      EmbeddedResult& out = parts[c];
      auto conn = ConnectOrDie(db);
      StmtStream stream(seed, kEmbeddedStream, c, conns);
      const auto run = [&](const Stmt& s, bool timed) {
        hdb::engine::QueryResult r;
        const uint64_t t0 = NowNanos();
        const bool ok = RunEmbedded(conn.get(), seed, s, &r);
        if (timed) out.latency_us.push_back((NowNanos() - t0) / 1e3);
        ++out.attempted;
        if (!ok) ++out.failed;
        if (ok && (s.kind == kUpdate || s.kind == kCallUpdate)) {
          out.credits += s.delta;
        }
        if (!IsWrite(s.kind)) {
          ++out.selects;
          out.cached += r.used_cached_plan;
          out.bypassed += r.diag.bypassed;
        }
      };
      while (NowSeconds() < deadline) run(stream.Next(), true);
      Stmt del;
      if (stream.TakePendingDelete(&del)) run(del, false);
    });
  }
  for (auto& t : threads) t.join();
  EmbeddedResult all;
  for (const EmbeddedResult& p : parts) {
    all.latency_us.insert(all.latency_us.end(), p.latency_us.begin(),
                          p.latency_us.end());
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.cached += p.cached;
    all.bypassed += p.bypassed;
    all.selects += p.selects;
    all.credits += p.credits;
  }
  return all;
}

/// Adds the client process's span summary to the parent's table.
void PrintClientSpans(const std::string& text) {
  std::printf("client process spans:\n  %-28s %10s %12s %12s\n", "span",
              "count", "mean_us", "self_us");
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    char name[96];
    unsigned long long count = 0;
    double total = 0, self = 0;
    if (std::sscanf(line.c_str(), "%95s %llu %lf %lf", name, &count, &total,
                    &self) == 4 &&
        count > 0) {
      std::printf("  %-28s %10llu %12.2f %12.2f\n", name, count, total / count,
                  self / count);
    }
  }
}

}  // namespace


void RunOltpWire(const RunOptions& opts, Report* report) {
  const int conns = std::min(kConnections, opts.nproc);
  const int workers = std::min(kServerWorkers, opts.nproc);
  // Fork the client before this process starts any thread.
  ClientProcess cp;
  {
    int cmd[2], res[2];
    if (pipe(cmd) != 0 || pipe(res) != 0) Die("pipe");
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) Die("fork");
    if (pid == 0) {
      close(cmd[1]);
      close(res[0]);
      const std::string span_path = opts.out_dir + "/oltp_wire-seed" +
                                    std::to_string(opts.seed) +
                                    "-trace-client-spans.json";
      _exit(RunClientProcess(cmd[0], res[1], span_path));
    }
    close(cmd[0]);
    close(res[1]);
    cp = {pid, cmd[1], res[0]};
    SetChildProcess(pid);
  }

  if (!opts.trace) {
    std::vector<double> setups, restarts;
    WireDb w;
    for (int i = 0; i < kSetups; ++i) {
      w = WireDb{};  // the previous database closes before the next opens
      w = SetUp(opts.seed, report);
      setups.push_back(w.setup_s);
      restarts.push_back(w.restart_s);
    }
    RecordConfig(w, conns, workers, report);
    // Memory is read once set-up is done: during the timed phase the
    // simulated durable medium, which lives in this process, grows with
    // every write the run happens to complete.
    const double setup_rss_mb = PeakRssMb();
    PhaseResult p;
    size_t frames0 = 0, frames1 = 0;
    {
      Serving serving(w.db.get(), workers);
      frames0 = w.db->pool().stats().current_frames;
      p = RunWirePhase(cp, serving.port(), opts.seconds, 0, conns, false,
                       opts);
      frames1 = w.db->pool().stats().current_frames;
    }
    StopClient(&cp);
    Account(p.sum, report);
    CheckFinalSum(w, p.sum.credits, report);
    CheckFramesSteady(frames0, frames1, report);
    report->ConfigNum("pool_frames_start", static_cast<double>(frames0));
    report->ConfigNum("pool_frames_end", static_cast<double>(frames1));
    report->ConfigNum("data_pages_end",
                      static_cast<double>(DataPages(w.db.get(), kTables, 1)));
    report->ConfigNum("restart_s_median", Median(restarts));

    std::vector<Completion> done;
    for (const Sample& x : p.samples) {
      done.push_back({x.end_s, x.us, !IsWrite(x.kind)});
    }
    const PhaseStats m = Summarize(done, p.start_s, p.cpu_s);
    PrintKindLatencies(p.samples);
    report->ConfigNum("peak_rss_end_mb", PeakRssMb());
    ReportEndToEnd(m, Median(setups), setup_rss_mb, report);
    return;
  }

  // --- traced run ---------------------------------------------------
  WireDb w = SetUp(opts.seed, report);
  RecordConfig(w, conns, workers, report);
  Database* db = w.db.get();
  const double half = std::max(1.0, opts.seconds / 2.0);
  PhaseResult plain, traced, counted;
  std::map<std::string, double> s0, s1, c0, c1;
  size_t frames0 = 0, frames1 = 0;
  uint64_t counted_allocs = 0;
  EmbeddedResult embedded;
  {
    Serving serving(db, workers);
    // The untraced and traced halves differ only in spans.
    plain = RunWirePhase(cp, serving.port(), half, 0, conns, false, opts);
    s0 = Snap(db->metrics());
    frames0 = db->pool().stats().current_frames;
    traced = RunWirePhase(cp, serving.port(), half, 0, conns, true, opts);
    frames1 = db->pool().stats().current_frames;
    s1 = Snap(db->metrics());
    // Allocations are counted in a fixed-count phase of their own, on one
    // connection, so the counter is neither contended nor charged to the
    // trace.
    c0 = Snap(db->metrics());
    allocs::SetCounting(true);
    const uint64_t a0 = allocs::Count();
    counted = RunWirePhase(cp, serving.port(), 0, kCountedStatements, 1, false,
                           opts);
    counted_allocs = allocs::Count() - a0;
    allocs::SetCounting(false);
    c1 = Snap(db->metrics());
    embedded = RunEmbeddedPhase(db, opts.seed, conns, half / 2);
  }
  StopClient(&cp);
  Account(plain.sum, report);
  Account(traced.sum, report);
  Account(counted.sum, report);
  const int64_t credits = plain.sum.credits + traced.sum.credits +
                          counted.sum.credits + embedded.credits;
  report->attempted += embedded.attempted;
  report->failed += embedded.failed;
  if (embedded.failed > 0) report->Fail("embedded replay statements failed");
  CheckFramesSteady(frames0, frames1, report);
  report->ConfigNum("pool_frames_start", static_cast<double>(frames0));
  report->ConfigNum("pool_frames_end", static_cast<double>(frames1));
  report->ConfigNum("data_pages_end",
                    static_cast<double>(DataPages(w.db.get(), kTables, 1)));
  PrintClientSpans(traced.span_text);

  // Fixed-count probes, single-threaded, with spans on.
  spans::SetEnabled(true);
  StmtStream probe_stream(opts.seed, kProbeStream, 0, 1);
  double parse_us = 0;
  std::vector<Stmt> probe_stmts;
  for (int i = 0; i < kProbes; ++i) probe_stmts.push_back(probe_stream.Next());
  for (const Stmt& s : probe_stmts) {
    const uint64_t t0 = NowNanos();
    spans::Span span("engine.parse");
    if (!hdb::engine::Parse(s.sql).ok()) Die("parse failed: " + s.sql);
    parse_us += (NowNanos() - t0) / 1e3;
  }
  // Each SELECT runs kLayerReps times through Connection::Execute and as
  // many times layer by layer; the medians are compared. The unattributed
  // time is an estimate: Execute may take the optimizer bypass or a cached
  // plan, which the layer replay does not, so it can read below zero.
  double bind_us = 0, opt_us = 0, unattributed_us = 0;
  uint64_t layered = 0;
  {
    auto conn = ConnectOrDie(db);
    for (const Stmt& s : probe_stmts) {
      if (s.kind != kPoint && s.kind != kRange) continue;
      std::vector<double> exec_us, parts_us, b_us, o_us;
      for (int rep = 0; rep < kLayerReps; ++rep) {
        const uint64_t t0 = NowNanos();
        {
          spans::Span span("engine.execute");
          ExecOrDie(conn.get(), s.sql);
        }
        exec_us.push_back((NowNanos() - t0) / 1e3);
        const LayerTimes lt = RunSelectByLayer(db, s.sql);
        if (!lt.ok) Die("layer probe failed: " + s.sql);
        parts_us.push_back(lt.parse_us + lt.bind_us + lt.optimize_us +
                           lt.exec_us);
        b_us.push_back(lt.bind_us);
        o_us.push_back(lt.optimize_us);
      }
      bind_us += Median(b_us);
      opt_us += Median(o_us);
      unattributed_us += Median(exec_us) - Median(parts_us);
      ++layered;
    }
  }
  // Index probes on the workload's keys through the public B-tree.
  double probe_us = 0;
  {
    auto idx = db->catalog().GetIndex("acct_id");
    if (!idx.ok()) Die("no acct_id index");
    hdb::index::BTree* tree = db->btree((*idx)->oid);
    hdb::Rng rng(Mix(opts.seed ^ 0x1d) | 1);
    const uint64_t t0 = NowNanos();
    for (int i = 0; i < kProbes; ++i) {
      spans::Span span("index.probe");
      const double k = static_cast<double>(rng.Uniform(kRows - kRangeLen));
      auto has = tree->Contains(k);
      int n = 0;
      const hdb::Status st = tree->ScanRange(
          k, true, k + kRangeLen - 1, true, [&](double, hdb::Rid) {
            ++n;
            return true;
          });
      if (!has.ok() || !*has || !st.ok() || n != kRangeLen) {
        ++report->failed;
        report->Fail("index probe missed keys");
      }
      ++report->attempted;
    }
    probe_us = (NowNanos() - t0) / 1e3 / kProbes;
  }
  double scan_ns_per_row = 0;
  {
    auto acct = db->catalog().GetTable("acct");
    if (!acct.ok()) Die("no acct table");
    std::vector<hdb::table::Row> rows;
    std::vector<hdb::Rid> rids;
    uint64_t n = 0;
    const uint64_t t0 = NowNanos();
    {
      spans::Span span("table.next_rows");
      auto it = db->heap((*acct)->oid)->Scan();
      for (;;) {
        auto got = it.NextRows(1024, &rows, &rids);
        if (!got.ok()) Die("heap scan: " + got.status().ToString());
        if (*got == 0) break;
        n += *got;
      }
    }
    scan_ns_per_row = static_cast<double>(NowNanos() - t0) /
                      std::max<uint64_t>(1, n);
  }
  std::vector<double> qerrors;
  double range_qerr = 0;
  {
    auto conn = ConnectOrDie(db);
    for (const char* sql :
         {"SELECT id, c, bal FROM acct WHERE id = 777",
          "SELECT id, c FROM acct WHERE id BETWEEN 1000 AND 1019"}) {
      const auto r = ExecOrDie(conn.get(), std::string("EXPLAIN ANALYZE ") + sql);
      const std::vector<double> q = PlanQErrors(r.explain);
      qerrors.insert(qerrors.end(), q.begin(), q.end());
      if (std::strstr(sql, "BETWEEN") != nullptr && !q.empty()) {
        range_qerr = *std::max_element(q.begin(), q.end());
      }
    }
  }
  spans::SetEnabled(false);
  CheckFinalSum(w, credits, report);

  // --- per-layer metrics ----------------------------------------------
  const auto d = [&](const char* name) { return Delta(s0, s1, name); };
  const double n_stmt = std::max<double>(1, traced.sum.samples);
  const double n_counted = std::max<double>(1, counted.sum.samples);
  uint64_t writes = 0;
  for (const Sample& x : traced.samples) writes += IsWrite(x.kind) && x.ok;
  const double nl = std::max<double>(1, layered);
  const double selects = std::max<double>(1, embedded.selects);
  Layers l;
  AddRegistryLayers(s0, s1, n_stmt, &l);
  AddQErrors(qerrors, &l);
  l["net.wire_overhead_us"] = Percentile(Latencies(plain.samples, 0), 0.5) -
                              Percentile(embedded.latency_us, 0.5);
  l["net.frames_per_stmt"] = (d("net.frames_in") + d("net.frames_out")) / n_stmt;
  l["net.bytes_out_per_stmt"] = d("net.bytes_out") / n_stmt;
  l["net.write_stalls"] = d("net.write_stalls");
  l["engine.parse_us"] = parse_us / kProbes;
  l["engine.bind_us"] = bind_us / nl;
  l["engine.unattributed_us"] = unattributed_us / nl;
  l["engine.allocs_per_stmt"] = counted_allocs / n_counted;
  l["optimizer.optimize_us"] = opt_us / nl;
  l["optimizer.plan_cache_hit_ratio"] = embedded.cached / selects;
  l["optimizer.bypass_ratio"] = embedded.bypassed / selects;
  l["optimizer.qerror_max.oltp_range"] = range_qerr;
  l["exec.allocs_per_row"] =
      counted_allocs / std::max(1.0, Delta(c0, c1, "exec.rows_output"));
  l["exec.spill.bytes_written"] = d("exec.spill.bytes_written");
  l["exec.spill.bytes_read"] = d("exec.spill.bytes_read");
  l["storage.pool_frames_start"] = static_cast<double>(frames0);
  l["storage.pool_frames_end"] = static_cast<double>(frames1);
  l["index.probe_us"] = probe_us;
  l["table.scan_ns_per_row"] = scan_ns_per_row;
  l["wal.bytes_per_write"] = d("wal.bytes") / std::max<double>(1, writes);
  l["wal.commits_per_sync"] = writes / std::max(1.0, d("wal.fsyncs"));
  l["wal.checkpoints"] = d("checkpoint.count");
  l["wal.checkpoint_ms"] = d("checkpoint.micros") / 1000;
  l["wal.restart_records_scanned"] =
      static_cast<double>(w.recovery.scanned_records);
  l["wal.restart_redo_records"] = static_cast<double>(w.recovery.redo_records);
  l["latency_p95_us"] = Percentile(Latencies(plain.samples, 0), 0.95);
  l["latency_p99_us"] = Percentile(Latencies(plain.samples, 0), 0.99);
  l["write_p50_us"] = Percentile(Latencies(plain.samples, 2), 0.5);
  l["restart_s"] = w.restart_s;
  l["trace.throughput_untraced"] = plain.sum.samples / plain.sum.wall_s;
  l["trace.throughput_traced"] = traced.sum.samples / traced.sum.wall_s;
  ReportLayers(l, report);
}

}  // namespace perfbench
