#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <variant>

#include "alloc_count.h"
#include "engine/binder.h"
#include "engine/parser.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "perfbench.h"
#include "spans.h"

namespace perfbench {

using hdb::engine::Connection;
using hdb::engine::Database;
using hdb::engine::DatabaseOptions;
using hdb::engine::QueryResult;

namespace {
int g_child = 0;
}  // namespace

void SetChildProcess(int pid) { g_child = pid; }

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  if (g_child > 0) {
    kill(g_child, SIGKILL);
    waitpid(g_child, nullptr, 0);
  }
  std::exit(3);
}

std::unique_ptr<Database> OpenOrDie(const DatabaseOptions& options) {
  auto db = Database::Open(options);
  if (!db.ok()) Die("open: " + db.status().ToString());
  return std::move(*db);
}

std::unique_ptr<Connection> ConnectOrDie(Database* db) {
  auto conn = db->Connect();
  if (!conn.ok()) Die("connect: " + conn.status().ToString());
  return std::move(*conn);
}

QueryResult ExecOrDie(Connection* conn, const std::string& sql) {
  auto r = conn->Execute(sql);
  if (!r.ok()) Die("statement failed: " + sql + ": " + r.status().ToString());
  return std::move(*r);
}

uint64_t DataPages(Database* db, const char* const* tables, size_t n) {
  uint64_t pages = 0;
  for (size_t i = 0; i < n; ++i) {
    auto table = db->catalog().GetTable(tables[i]);
    if (!table.ok()) Die("no table " + std::string(tables[i]));
    pages += (*table)->page_count.get();
    for (hdb::catalog::IndexDef* idx :
         db->catalog().TableIndexes((*table)->oid)) {
      if (const hdb::index::IndexStats* s = db->index_stats(idx->oid)) {
        pages += s->leaf_pages.get();
      }
    }
  }
  return pages;
}

LayerTimes RunSelectByLayer(Database* db, const std::string& sql) {
  LayerTimes t;
  const auto us_since = [](uint64_t start) {
    return static_cast<double>(NowNanos() - start) / 1e3;
  };

  uint64_t start = NowNanos();
  hdb::Result<hdb::engine::StatementAst> parsed = [&] {
    spans::Span span("engine.parse");
    return hdb::engine::Parse(sql);
  }();
  t.parse_us = us_since(start);
  if (!parsed.ok()) return t;
  const auto* select = std::get_if<hdb::engine::SelectAst>(&*parsed);
  if (select == nullptr) return t;

  start = NowNanos();
  hdb::Result<hdb::optimizer::Query> bound = [&] {
    spans::Span span("engine.bind");
    hdb::engine::Binder binder(&db->catalog());
    return binder.BindSelect(*select);
  }();
  t.bind_us = us_since(start);
  if (!bound.ok()) return t;

  // The context Connection::Execute builds for a statement.
  auto task = db->memory_governor().BeginTask();
  hdb::optimizer::OptimizerContext ctx;
  ctx.catalog = &db->catalog();
  ctx.stats = &db->stats();
  ctx.pool = &db->pool();
  ctx.index_stats = db->IndexStatsProvider();
  ctx.index_prober = db->IndexProber();
  ctx.predicted_soft_limit_pages = static_cast<double>(
      db->memory_governor().PredictedSoftLimitPages());
  ctx.governor = db->options().optimizer_governor;
  ctx.arena_budget_bytes = db->options().optimizer_arena_bytes;
  ctx.parallel_max_workers = db->options().parallel.max_workers;
  ctx.parallel_rows_per_worker = db->options().parallel.rows_per_worker;
  ctx.parallel_min_table_rows = db->options().parallel.min_table_rows;

  start = NowNanos();
  hdb::Result<hdb::optimizer::PlanPtr> plan = [&] {
    spans::Span span("optimizer.optimize");
    hdb::optimizer::Optimizer opt(std::move(ctx));
    return opt.Optimize(*bound, /*allow_bypass=*/false);
  }();
  t.optimize_us = us_since(start);
  if (!plan.ok()) return t;

  hdb::exec::ExecContext ec;
  ec.pool = &db->pool();
  ec.table_heap = [db](uint32_t oid) { return db->heap(oid); };
  ec.index = [db](uint32_t oid) { return db->btree(oid); };
  ec.memory = task.get();
  ec.num_quantifiers = bound->quantifiers.size();
  ec.batch_cap = db->options().exec_batch_cap;
  if (db->options().parallel.max_workers > 1) {
    ec.parallel = &db->parallel_governor();
  }
  const uint64_t allocs_before = allocs::Count();
  start = NowNanos();
  auto rows = [&] {
    spans::Span span("exec.execute");
    return hdb::exec::ExecuteToRows(plan->get(), &ec);
  }();
  t.exec_us = us_since(start);
  t.exec_allocs = allocs::Count() - allocs_before;
  if (!rows.ok()) return t;
  t.rows = rows->size();
  t.ok = true;
  return t;
}

std::string WriteRunFiles(const RunOptions& opts, const Report& report) {
  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) +
                           (opts.trace ? "-trace" : "");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"config\": %s,\n \"result\": %s}\n",
                 report.ConfigJson().c_str(), report.ResultJson().c_str());
    std::fclose(f);
  }
  if (!opts.trace) return "";
  const std::string path = stem + "-spans.json";
  if (!spans::WriteChromeTrace(path)) return "";
  return path;
}

}  // namespace perfbench
