// Parity + governor coverage for morsel-driven intra-query parallelism
// (paper §4.4, DESIGN.md §13, EXPERIMENTS C5).
//
//  * ParallelParity: the same SQL corpus executed serially and at
//    parallel.max_workers ∈ {2, 4, 8} must return exactly the same rows.
//    Queries without a top-level ORDER BY are compared as multisets
//    (exchange packet arrival order is nondeterministic by design);
//    ORDER BY queries are additionally checked to come back sorted. A
//    worker's error (division by zero in each exchange kind) must come
//    back as the serial run's, and exec.rows_decoded must move as it does
//    serially.
//  * ParallelRevocation: a parallel statement is revoked mid-query —
//    memory pressure end-to-end (the group-by crew crosses Eq. (5) and
//    sheds workers at a morsel boundary), MPL pressure at the governor
//    level (real AdmissionGate tickets drain the allowance).
//  * ParallelismGovernorTest: PickWorkers/Reassess clamp rules.
//  * TaskMemoryConcurrency: the DESIGN.md §13 charge/release contract
//    hammered from many threads — the TSan regression for the shared
//    statement account (wired into check_metrics.sh --tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "exec/admission_gate.h"
#include "exec/memory_governor.h"
#include "exec/parallel_governor.h"
#include "obs/metric_names.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace hdb {
namespace {

using engine::Connection;
using engine::Database;
using engine::DatabaseOptions;
using engine::QueryResult;

struct Db {
  explicit Db(DatabaseOptions opts = {}) {
    auto db = Database::Open(std::move(opts));
    EXPECT_TRUE(db.ok());
    database = std::move(*db);
    auto conn = database->Connect();
    EXPECT_TRUE(conn.ok());
    c = std::move(*conn);
  }

  QueryResult Exec(const std::string& sql) {
    auto r = c->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Database> database;
  std::unique_ptr<Connection> c;
};

// Deterministic LCG so every Database instance loads identical data.
struct Lcg {
  uint64_t s;
  explicit Lcg(uint64_t seed) : s(seed) {}
  uint32_t Next(uint32_t bound) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((s >> 33) % bound);
  }
};

constexpr int kFactRows = 20000;

void LoadCorpusTables(Db& db) {
  db.Exec("CREATE TABLE fact (k INT NOT NULL, g INT NOT NULL, v INT, "
          "s VARCHAR(16))");
  db.Exec("CREATE TABLE dim (k INT NOT NULL, tag INT, name VARCHAR(16))");
  Lcg rng(99);
  std::string multi_insert;
  for (int i = 0; i < kFactRows; ++i) {
    const int k = static_cast<int>(rng.Next(500));
    const int g = static_cast<int>(rng.Next(23));
    const bool null_v = rng.Next(37) == 0;
    std::string row = "(" + std::to_string(k) + ", " + std::to_string(g) +
                      ", " +
                      (null_v ? "NULL" : std::to_string(rng.Next(1000))) +
                      ", 's" + std::to_string(rng.Next(40)) + "')";
    if (multi_insert.empty()) {
      multi_insert = "INSERT INTO fact VALUES " + row;
    } else {
      multi_insert += ", " + row;
    }
    if ((i + 1) % 500 == 0) {
      db.Exec(multi_insert);
      multi_insert.clear();
    }
  }
  for (int i = 0; i < 400; ++i) {
    db.Exec("INSERT INTO dim VALUES (" + std::to_string(i) + ", " +
            std::to_string(i % 9) + ", 'd" + std::to_string(i % 11) + "')");
  }
}

DatabaseOptions ParallelOptions(int max_workers) {
  DatabaseOptions opts;
  opts.parallel.max_workers = max_workers;
  // Small thresholds so the 20k-row corpus genuinely fans out.
  opts.parallel.rows_per_worker = 1024;
  opts.parallel.min_table_rows = 256;
  opts.parallel.morsel_rows = 512;
  return opts;
}

std::string RowKey(const std::vector<Value>& row) {
  std::string key;
  for (const auto& v : row) {
    key += v.is_null() ? std::string("<null>") : v.ToString();
    key += '\x01';
  }
  return key;
}

std::vector<std::string> Canonical(const QueryResult& r, bool ordered) {
  std::vector<std::string> keys;
  keys.reserve(r.rows.size());
  for (const auto& row : r.rows) keys.push_back(RowKey(row));
  // ORDER BY ties (and all unordered queries) are canonicalized by a
  // full-row sort; ordered queries assert the sort-key order separately.
  if (!ordered) std::sort(keys.begin(), keys.end());
  return keys;
}

struct CorpusQuery {
  const char* sql;
  bool ordered;         // top-level ORDER BY with a unique sort key
  bool expect_parallel; // must actually run a parallel pipeline at w>1
};

const CorpusQuery kCorpus[] = {
    // Scan / filter / project fragments.
    {"SELECT k, g, v FROM fact WHERE v > 500", false, true},
    {"SELECT k + g, v FROM fact WHERE k < 100 AND v IS NOT NULL", false,
     true},
    {"SELECT s FROM fact WHERE s LIKE 's1%'", false, true},
    // Hash join (build side dim, probe side fact) + residual filter.
    {"SELECT fact.k, dim.tag, fact.v FROM fact, dim "
     "WHERE fact.k = dim.k AND dim.tag < 4",
     false, true},
    {"SELECT fact.g, dim.name FROM fact, dim "
     "WHERE fact.k = dim.k AND fact.v > 900",
     false, true},
    // Hash group by: parallel pre-aggregation + ordered merge; the merge
    // emission order is deterministic, and with ORDER BY it is total.
    {"SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact GROUP BY g "
     "ORDER BY g",
     true, true},
    {"SELECT g, COUNT(v) FROM fact GROUP BY g HAVING COUNT(*) > 100",
     false, true},
    // Scalar aggregate (one group, empty key).
    {"SELECT COUNT(*), SUM(v), AVG(v) FROM fact WHERE g < 5", false, true},
    // Hash distinct over a projected fragment.
    {"SELECT DISTINCT g FROM fact", false, true},
    {"SELECT DISTINCT s FROM fact WHERE k < 50", false, true},
    // Sort above a parallel fragment (unique key k makes order total).
    {"SELECT k, SUM(v) FROM fact GROUP BY k ORDER BY k", true, true},
    // LIMIT without ORDER BY pins the fragment serial (which rows the
    // limit keeps must not depend on packet arrival order) — parity
    // still holds on the row count, checked specially below.
    {"SELECT g FROM fact WHERE g = 7 LIMIT 10", false, false},
    // Group-by under LIMIT stays parallel: merge emission order is
    // deterministic either way.
    {"SELECT g, COUNT(*) FROM fact GROUP BY g ORDER BY g LIMIT 5", true,
     true},
    // Small table: under min_table_rows, stays serial by seeding.
    {"SELECT tag, COUNT(*) FROM dim GROUP BY tag", false, false},
    // Keys and arguments the workers read through the serial operators'
    // batch code: computed, NULL and two-column keys, computed aggregate
    // arguments, a scalar aggregate over no rows, NULL probe keys and a
    // computed join condition.
    {"SELECT g + 1, COUNT(*) FROM fact GROUP BY g + 1", false, true},
    {"SELECT v, COUNT(*) FROM fact GROUP BY v", false, true},
    {"SELECT g, v, COUNT(*) FROM fact WHERE k < 100 GROUP BY g, v", false,
     true},
    {"SELECT COUNT(*), SUM(v), MIN(s) FROM fact WHERE g > 100", false, true},
    {"SELECT DISTINCT g, v FROM fact WHERE k < 100", false, true},
    {"SELECT fact.g, dim.name FROM fact, dim WHERE fact.v = dim.k", false,
     true},
    {"SELECT fact.k, dim.tag FROM fact, dim "
     "WHERE fact.k = dim.k AND fact.v < dim.tag * 100",
     false, true},
    {"SELECT g, SUM(v * 2), AVG(v + k) FROM fact GROUP BY g", false, true},
};

TEST(ParallelParity, CorpusMatchesSerialAtEveryWidth) {
  Db serial;  // defaults: max_workers = 1, exchange never built
  LoadCorpusTables(serial);

  std::vector<std::vector<std::string>> expected;
  std::vector<size_t> expected_rows;
  for (const auto& q : kCorpus) {
    QueryResult r = serial.Exec(q.sql);
    EXPECT_EQ(r.exec_stats.parallel_pipelines, 0u)
        << q.sql << ": serial run must not build exchange operators";
    expected_rows.push_back(r.rows.size());
    expected.push_back(Canonical(r, q.ordered));
  }

  for (const int workers : {2, 4, 8}) {
    SCOPED_TRACE("max_workers=" + std::to_string(workers));
    Db par(ParallelOptions(workers));
    LoadCorpusTables(par);
    for (size_t i = 0; i < std::size(kCorpus); ++i) {
      const auto& q = kCorpus[i];
      SCOPED_TRACE(q.sql);
      QueryResult r = par.Exec(q.sql);
      if (q.expect_parallel) {
        EXPECT_GT(r.exec_stats.parallel_pipelines, 0u);
        EXPECT_GE(r.exec_stats.parallel_workers_started, 2u);
        EXPECT_GT(r.exec_stats.parallel_morsels, 0u);
      } else {
        EXPECT_EQ(r.exec_stats.parallel_pipelines, 0u);
      }
      ASSERT_EQ(r.rows.size(), expected_rows[i]);
      // LIMIT-without-ORDER-BY keeps an arbitrary subset; only the
      // count is contractual (and it ran serial anyway — same rows).
      EXPECT_EQ(Canonical(r, q.ordered), expected[i]);
    }
  }
}

// A worker's error reaches the client as the serial run's error, for each
// exchange kind, and leaves the connection able to run parallel queries:
// the crew is joined and its charges released on the error path.
TEST(ParallelParity, WorkerErrorMatchesSerialAndConnectionRecovers) {
  const char* kFailing[] = {
      "SELECT k / (g - 7) FROM fact",
      "SELECT g, SUM(k / (g - 7)) FROM fact GROUP BY g",
      "SELECT DISTINCT k / (g - 7) FROM fact",
      "SELECT fact.k, dim.tag FROM fact, dim "
      "WHERE fact.k = dim.k AND fact.v / (fact.g - 7) > 1",
  };
  const char* kAfter = "SELECT g, COUNT(*), SUM(v) FROM fact GROUP BY g";

  Db serial;
  LoadCorpusTables(serial);
  std::vector<std::string> serial_errors;
  for (const char* sql : kFailing) {
    auto r = serial.c->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    serial_errors.push_back(r.status().ToString());
    EXPECT_NE(serial_errors.back().find("division by zero"),
              std::string::npos)
        << serial_errors.back();
  }
  const auto expected_after = Canonical(serial.Exec(kAfter), false);

  for (const int workers : {2, 4, 8}) {
    SCOPED_TRACE("max_workers=" + std::to_string(workers));
    Db par(ParallelOptions(workers));
    LoadCorpusTables(par);
    for (size_t i = 0; i < std::size(kFailing); ++i) {
      SCOPED_TRACE(kFailing[i]);
      // The statement is planned parallel, so the error comes from a
      // worker.
      const QueryResult plan =
          par.Exec(std::string("EXPLAIN ") + kFailing[i]);
      EXPECT_NE(plan.explain.find("parallel<="), std::string::npos)
          << plan.explain;
      auto r = par.c->Execute(kFailing[i]);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().ToString(), serial_errors[i]);
      const QueryResult after = par.Exec(kAfter);
      EXPECT_GT(after.exec_stats.parallel_pipelines, 0u);
      EXPECT_EQ(Canonical(after, false), expected_after);
    }
  }
}

// exec.rows_decoded counts each decoded scan row once: a filtered
// parallel scan moves the registry counter exactly as the serial run does
// (the workers' counters are folded into the statement's once).
TEST(ParallelParity, RowsDecodedCounterMatchesSerial) {
  const char* kSql = "SELECT k, v FROM fact WHERE g < 5 AND v > 100";
  auto decoded = [](Db& db) {
    for (const auto& m : db.database->metrics().Snapshot()) {
      if (m.name == obs::kExecRowsDecoded) return m.value;
    }
    ADD_FAILURE() << "no " << obs::kExecRowsDecoded << " counter";
    return 0.0;
  };
  auto delta = [&](Db& db, bool parallel) {
    const double before = decoded(db);
    const QueryResult r = db.Exec(kSql);
    EXPECT_EQ(r.exec_stats.parallel_pipelines > 0, parallel);
    EXPECT_LT(r.exec_stats.rows_decoded, r.exec_stats.rows_scanned);
    EXPECT_EQ(decoded(db) - before,
              static_cast<double>(r.exec_stats.rows_decoded));
    return decoded(db) - before;
  };
  Db serial;
  LoadCorpusTables(serial);
  const double expected = delta(serial, false);
  EXPECT_GT(expected, 0);
  for (const int workers : {2, 4, 8}) {
    SCOPED_TRACE("max_workers=" + std::to_string(workers));
    Db par(ParallelOptions(workers));
    LoadCorpusTables(par);
    EXPECT_EQ(delta(par, true), expected);
  }
}

TEST(ParallelParity, ExplainAnalyzeReportsWorkers) {
  Db par(ParallelOptions(4));
  LoadCorpusTables(par);
  QueryResult r = par.Exec(
      "EXPLAIN ANALYZE SELECT g, COUNT(*) FROM fact GROUP BY g");
  EXPECT_NE(r.explain.find("workers="), std::string::npos) << r.explain;
  EXPECT_NE(r.explain.find("parallel<="), std::string::npos) << r.explain;
}

// Memory-pressure revocation end-to-end: a high-cardinality group by
// whose per-worker partial maps cross the statement's Eq. (5) soft limit
// mid-query. The governor must shed workers at a morsel boundary and the
// result must still be exact.
TEST(ParallelRevocation, MemoryPressureShedsWorkersMidQuery) {
  DatabaseOptions opts = ParallelOptions(4);
  // Tiny soft limit: Eq. (5) = pool pages / MPL. The group-by state
  // (20k distinct keys) crosses it long before the scan finishes.
  opts.memory_governor.multiprogramming_level = 64;
  Db db(opts);
  db.Exec("CREATE TABLE wide (k INT NOT NULL, v INT)");
  for (int chunk = 0; chunk < 20; ++chunk) {
    std::string sql;
    for (int i = 0; i < 1000; ++i) {
      const int k = chunk * 1000 + i;
      sql += (sql.empty() ? "INSERT INTO wide VALUES " : ", ");
      sql += "(" + std::to_string(k) + ", " + std::to_string(k % 97) + ")";
    }
    db.Exec(sql);
  }

  QueryResult r =
      db.Exec("SELECT k, COUNT(*), SUM(v) FROM wide GROUP BY k");
  EXPECT_EQ(r.rows.size(), 20000u);
  EXPECT_GT(r.exec_stats.parallel_pipelines, 0u);
  EXPECT_GE(r.exec_stats.parallel_workers_started, 2u);
  EXPECT_GT(r.exec_stats.parallel_workers_revoked, 0u)
      << "soft-limit pressure never revoked a worker";
}

// MPL-pressure revocation against the real AdmissionGate: once queued
// statements appear (or the MPL slots fill), Reassess drops the pipeline
// target to 1 and PickWorkers grants no parallelism at all.
TEST(ParallelRevocation, MplPressureDrainsAllowance) {
  exec::MemoryGovernorOptions mopts;
  mopts.multiprogramming_level = 4;
  storage::DiskManager disk(storage::kDefaultPageBytes, nullptr, nullptr);
  storage::BufferPool pool(&disk, storage::BufferPoolOptions{.initial_frames = 64});
  exec::MemoryGovernor memory(&pool, mopts);
  exec::AdmissionGate gate(&memory);
  exec::ParallelExecOptions popts;
  popts.max_workers = 8;
  exec::ParallelismGovernor gov(&memory, &gate, popts);

  // Idle gate: the statement's own slot plus the three idle ones.
  auto t0 = gate.Admit();  // the parallel statement itself
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(gov.PickWorkers(8, 0), 4);

  auto pipeline = gov.StartPipeline(4);
  EXPECT_EQ(gov.Reassess(pipeline.get(), nullptr), 4);

  // Two more statements admitted mid-query: idle slots shrink, the
  // morsel-boundary reassessment revokes workers (monotonically).
  auto t1 = gate.Admit();
  auto t2 = gate.Admit();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(gov.Reassess(pipeline.get(), nullptr), 2);
  EXPECT_EQ(pipeline->target.load(), 2);

  // Fill the gate and queue a waiter: allowance collapses to 1 — queued
  // statements own the slots extra workers would consume.
  auto t3 = gate.Admit();
  ASSERT_TRUE(t3.ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto t = gate.Admit();  // blocks: gate full at MPL 4
    admitted.store(true);
  });
  while (gate.stats().waiting == 0) std::this_thread::yield();
  EXPECT_EQ(gov.Reassess(pipeline.get(), nullptr), 1);
  EXPECT_EQ(gov.PickWorkers(8, 0), 1);
  t0->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());

  // Revocation is one-way: pressure easing never re-grows the pipeline.
  t1->Release();
  t2->Release();
  t3->Release();
  EXPECT_EQ(gov.Reassess(pipeline.get(), nullptr), 1);
}

TEST(ParallelismGovernorTest, PickWorkersClampsRequestAndMemory) {
  exec::MemoryGovernorOptions mopts;
  mopts.multiprogramming_level = 16;
  storage::DiskManager disk(storage::kDefaultPageBytes, nullptr, nullptr);
  storage::BufferPool pool(&disk, storage::BufferPoolOptions{.initial_frames = 64});
  exec::MemoryGovernor memory(&pool, mopts);
  exec::ParallelExecOptions popts;
  popts.max_workers = 4;
  exec::ParallelismGovernor gov(&memory, /*gate=*/nullptr, popts);

  EXPECT_EQ(gov.PickWorkers(0, 0), 1);
  EXPECT_EQ(gov.PickWorkers(1, 0), 1);
  EXPECT_EQ(gov.PickWorkers(3, 0), 3);
  EXPECT_EQ(gov.PickWorkers(100, 0), 4);  // max_workers cap

  // Memory clamp: each worker share must fit Eq. (5) up front. Soft
  // limit here is pool/MPL = 64/16 = 4 pages.
  EXPECT_EQ(gov.PickWorkers(4, /*per_worker_quota_pages=*/2), 2);
  EXPECT_EQ(gov.PickWorkers(4, /*per_worker_quota_pages=*/8), 1);
  EXPECT_EQ(gov.PickWorkers(4, /*per_worker_quota_pages=*/1), 4);
}

TEST(ParallelismGovernorTest, ReassessRevokesOnMemoryPressure) {
  exec::MemoryGovernorOptions mopts;
  mopts.multiprogramming_level = 8;
  storage::DiskManager disk(storage::kDefaultPageBytes, nullptr, nullptr);
  storage::BufferPool pool(&disk, storage::BufferPoolOptions{.initial_frames = 64});
  exec::MemoryGovernor memory(&pool, mopts);
  exec::ParallelExecOptions popts;
  popts.max_workers = 8;
  exec::ParallelismGovernor gov(&memory, nullptr, popts);

  auto task = memory.BeginTask();
  auto pipeline = gov.StartPipeline(4);
  EXPECT_EQ(gov.Reassess(pipeline.get(), task.get()), 4);

  // Push the statement over Eq. (5): soft limit is 64/8 = 8 pages.
  ASSERT_TRUE(task->ChargeBytes(9 * storage::kDefaultPageBytes).ok());
  ASSERT_TRUE(task->over_soft_limit());
  EXPECT_EQ(gov.Reassess(pipeline.get(), task.get()), 1);

  // Releasing the memory does not re-grow the pipeline (one-way).
  task->ReleaseBytes(9 * storage::kDefaultPageBytes);
  EXPECT_EQ(gov.Reassess(pipeline.get(), task.get()), 1);
}

// The DESIGN.md §13 concurrency contract on the shared statement
// account: worker charges, releases, and soft-limit polls from many
// threads while the coordinator charges through the spill path. Run
// under TSan via check_metrics.sh --tsan; the invariant checked here is
// exact conservation of the account.
TEST(TaskMemoryConcurrency, ConcurrentChargersConserveAccount) {
  exec::MemoryGovernorOptions mopts;
  mopts.multiprogramming_level = 2;
  storage::DiskManager disk(storage::kDefaultPageBytes, nullptr, nullptr);
  storage::BufferPool pool(&disk,
                           storage::BufferPoolOptions{.initial_frames = 1024});
  exec::MemoryGovernor memory(&pool, mopts);
  auto task = memory.BeginTask();

  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::atomic<uint64_t> kills{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&task, &kills, t] {
      for (int i = 0; i < kRounds; ++i) {
        const uint64_t bytes = 64 + static_cast<uint64_t>((t * 37 + i) % 512);
        Status s = task->ChargeBytesFromWorker(bytes);
        if (!s.ok()) {
          // Eq. (4) kill is an acceptable outcome under contention; the
          // charge was not applied, so nothing to release.
          kills.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (i % 3 == 0) (void)task->over_soft_limit();
        task->ReleaseBytes(bytes);
      }
    });
  }
  // Coordinator-side traffic through the spill-scheduler entry point.
  for (int i = 0; i < 200; ++i) {
    const uint64_t bytes = 4096;
    if (task->ChargeBytes(bytes).ok()) {
      task->ReleaseBytes(bytes);
    }
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(task->bytes_charged(), 0u)
      << "account must balance exactly after all charges are released "
         "(kills observed: "
      << kills.load() << ")";
}

}  // namespace
}  // namespace hdb
