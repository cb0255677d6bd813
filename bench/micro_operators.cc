// Operator microbenchmarks (google-benchmark): throughput of the hot
// primitives behind the paper's mechanisms — the lock-free lookaside
// queue (§2.2), clock reference accounting, histogram estimation (§3),
// order-preserving hashing, expression evaluation, and telemetry
// primitives (counter add, histogram record) for the instrumentation
// overhead budget. Build once with default flags and once with
// -DHDB_TELEMETRY=OFF to compare (EXPERIMENTS.md "obs-overhead").
#include <benchmark/benchmark.h>

#include "common/ophash.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "optimizer/expr.h"
#include "stats/histogram.h"
#include "storage/clock_replacer.h"
#include "storage/lookaside_queue.h"
#include "workloads.h"

namespace hdb {
namespace {

// ---------------------------------------------------------------------------
// End-to-end executor throughput (the substrate every governor decision is
// capped by): full SQL pipeline over a resident table, reported as rows/s
// of base-table input. scripts/bench_smoke.sh prints these rates next to
// BENCH_exec.json as a trajectory, and bench/exec_work counts the work of
// the same statements over the same data (bench/workloads.h), so names and
// shapes must stay stable.
// ---------------------------------------------------------------------------

bench::BenchDb& ExecDb() {
  static bench::BenchDb* db = [] {
    auto* d = new bench::BenchDb();
    bench::LoadExecTables(*d);
    return d;
  }();
  return *db;
}

void RunExecBench(benchmark::State& state, const std::string& sql,
                  size_t expect_rows) {
  bench::BenchDb& db = ExecDb();
  for (auto _ : state) {
    auto r = db.conn->Execute(sql);
    if (!r.ok() || r->rows.size() != expect_rows) {
      state.SkipWithError("query failed or row count drifted");
      return;
    }
    benchmark::DoNotOptimize(r->rows);
  }
  // Throughput in base-table rows consumed per second.
  state.SetItemsProcessed(state.iterations() * bench::kExecRows);
}

void BM_ExecSeqScan(benchmark::State& state) {
  RunExecBench(state, bench::kExecSeqScan.sql,
               static_cast<size_t>(bench::kExecRows));
}
BENCHMARK(BM_ExecSeqScan);

void BM_ExecFilter(benchmark::State& state) {
  static const size_t expected = [] {
    auto r = ExecDb().conn->Execute(bench::kExecFilter.sql);
    return r.ok() ? r->rows.size() : 0;
  }();
  RunExecBench(state, bench::kExecFilter.sql, expected);
}
BENCHMARK(BM_ExecFilter);

void BM_ExecAggregate(benchmark::State& state) {
  RunExecBench(state, bench::kExecAggregate.sql, 64);
}
BENCHMARK(BM_ExecAggregate);

void BM_ExecHashJoin(benchmark::State& state) {
  RunExecBench(state, bench::kExecHashJoin.sql, 1);
}
BENCHMARK(BM_ExecHashJoin);

void BM_LookasideQueuePushPop(benchmark::State& state) {
  storage::LookasideQueue q(1024);
  for (auto _ : state) {
    q.Push(7);
    benchmark::DoNotOptimize(q.Pop());
  }
}
BENCHMARK(BM_LookasideQueuePushPop);

void BM_LookasideQueueContended(benchmark::State& state) {
  static storage::LookasideQueue* q = nullptr;
  if (state.thread_index() == 0) q = new storage::LookasideQueue(4096);
  for (auto _ : state) {
    q->Push(static_cast<uint32_t>(state.thread_index()));
    benchmark::DoNotOptimize(q->Pop());
  }
  if (state.thread_index() == 0) {
    delete q;
    q = nullptr;
  }
}
BENCHMARK(BM_LookasideQueueContended)->Threads(4);

void BM_ClockReplacerReference(benchmark::State& state) {
  storage::ClockReplacer clock(4096);
  for (uint32_t i = 0; i < 4096; ++i) {
    clock.RecordReference(i);
    clock.SetEvictable(i, true);
  }
  Rng rng(1);
  for (auto _ : state) {
    clock.RecordReference(static_cast<uint32_t>(rng.Uniform(4096)));
  }
}
BENCHMARK(BM_ClockReplacerReference);

void BM_ClockReplacerVictim(benchmark::State& state) {
  storage::ClockReplacer clock(4096);
  for (uint32_t i = 0; i < 4096; ++i) {
    clock.RecordReference(i);
    clock.SetEvictable(i, true);
  }
  uint32_t next = 0;
  for (auto _ : state) {
    auto v = clock.Victim();
    benchmark::DoNotOptimize(v);
    clock.RecordReference(next);
    clock.SetEvictable(next, true);
    next = (next + 1) % 4096;
  }
}
BENCHMARK(BM_ClockReplacerVictim);

void BM_OrderPreservingHash(benchmark::State& state) {
  const Value v = Value::String("category-17");
  for (auto _ : state) {
    benchmark::DoNotOptimize(OrderPreservingHash(v));
  }
}
BENCHMARK(BM_OrderPreservingHash);

void BM_HistogramEstimateEquals(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(static_cast<double>(rng.Uniform(1000)));
  }
  const auto h = stats::Histogram::Build(TypeId::kInt, std::move(values));
  double v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.EstimateEquals(v));
    v = v < 999 ? v + 1 : 0;
  }
}
BENCHMARK(BM_HistogramEstimateEquals);

void BM_HistogramFeedback(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(static_cast<double>(rng.Uniform(1000)));
  }
  auto h = stats::Histogram::Build(TypeId::kInt, std::move(values));
  double lo = 0;
  for (auto _ : state) {
    h.FeedbackRange(lo, lo + 50, 0.08);
    lo = lo < 900 ? lo + 13 : 0;
  }
}
BENCHMARK(BM_HistogramFeedback);

void BM_ExpressionEvaluate(benchmark::State& state) {
  using namespace hdb::optimizer;
  // (k >= 10 AND k < 500) OR name LIKE '%gadget%'
  auto expr = Expr::Or(
      Expr::And(Expr::Compare(CompareOp::kGe, Expr::Column(0, 0, TypeId::kInt),
                              Expr::Literal(Value::Int(10))),
                Expr::Compare(CompareOp::kLt, Expr::Column(0, 0, TypeId::kInt),
                              Expr::Literal(Value::Int(500)))),
      Expr::Like(Expr::Column(0, 1, TypeId::kVarchar), "%gadget%"));
  std::vector<Value> row = {Value::Int(250), Value::String("the gadget x")};
  RowContext ctx;
  ctx.rows = {&row};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->EvaluatesToTrue(ctx));
  }
}
BENCHMARK(BM_ExpressionEvaluate);

void BM_ValueHashPartition(benchmark::State& state) {
  Rng rng(3);
  std::vector<Value> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back(Value::Int(static_cast<int32_t>(rng.Uniform(100000))));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys[i & 4095].Hash() % 8);
    ++i;
  }
}
BENCHMARK(BM_ValueHashPartition);

void BM_TelemetryCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.RegisterCounter("bench.counter");
  for (auto _ : state) {
    c->Add();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryCounterAddContended(benchmark::State& state) {
  // Function-local static: thread-safe construction, so every worker can
  // register (idempotently) before the state-loop barrier.
  static obs::MetricsRegistry registry;
  obs::Counter* c = registry.RegisterCounter("bench.contended");
  for (auto _ : state) {
    c->Add();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_TelemetryCounterAddContended)->Threads(4);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::LatencyHistogram* h = registry.RegisterHistogram("bench.latency");
  int64_t micros = 1;
  for (auto _ : state) {
    h->Record(micros);
    micros = micros < 1'000'000 ? micros * 3 : 1;
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_TelemetryHistogramRecord);

}  // namespace
}  // namespace hdb

BENCHMARK_MAIN();
