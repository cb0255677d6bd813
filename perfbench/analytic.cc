// `analytic` and `analytic_parallel`: one embedded connection runs eight
// named query shapes round robin over a star schema whose fact table is
// at least four times the buffer pool. The two workloads differ only in
// parallel.max_workers (1 vs the core count).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/rng.h"
#include "perfbench.h"
#include "spans.h"

namespace perfbench {

namespace {

using hdb::Value;
using hdb::engine::Connection;
using hdb::engine::Database;

constexpr int kFactRows = 200'000;
constexpr int kDim0Rows = 1024;
constexpr int kDim1Rows = 64;
constexpr int kGroups = 64;
constexpr size_t kPoolFrames = 512;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Executions per shape in the traced run's fixed-count probes.
constexpr int kProbeReps = 3;

const char* const kTables[] = {"fact", "dim0", "dim1"};

/// The generated star schema, kept to compute every shape's expected
/// result independently of the engine.
struct StarData {
  std::vector<int32_t> g, d0, d1;
  std::vector<double> v;  // quarter steps, so every SUM is exact
  std::vector<int32_t> dim0_attr, dim1_attr;
};

StarData Generate(uint64_t seed) {
  StarData d;
  hdb::Rng rng(Mix(seed) | 1);
  d.g.resize(kFactRows);
  d.d0.resize(kFactRows);
  d.d1.resize(kFactRows);
  d.v.resize(kFactRows);
  for (int i = 0; i < kFactRows; ++i) {
    d.g[i] = static_cast<int32_t>(rng.Uniform(kGroups));
    d.d0[i] = static_cast<int32_t>(rng.Uniform(kDim0Rows));
    d.d1[i] = static_cast<int32_t>(rng.Uniform(kDim1Rows));
    d.v[i] = static_cast<double>(rng.Uniform(40'000)) / 4.0;
  }
  for (int i = 0; i < kDim0Rows; ++i) d.dim0_attr.push_back(i % 10);
  for (int i = 0; i < kDim1Rows; ++i) d.dim1_attr.push_back(i % 10);
  return d;
}

struct Shape {
  std::string name;
  std::string sql;
  uint64_t expected = 0;  // reference checksum from the generated data
};

using Rows = std::vector<std::vector<Value>>;

/// The eight shapes with their parameters drawn from the seed, and the
/// expected result of each computed straight from `d`.
std::vector<Shape> MakeShapes(const StarData& d, uint64_t seed) {
  hdb::Rng rng(Mix(seed ^ 0x5a5a) | 1);
  const int lo = static_cast<int>(rng.Uniform(9'900));
  const int attr = static_cast<int>(rng.Uniform(10));
  // Parameters move which rows qualify, never how many: every shape does
  // the same work on every seed.
  constexpr int kStarAttrBelow = 5;
  std::vector<Shape> shapes;

  {
    Rows rows;
    for (int i = 0; i < kFactRows; ++i) {
      rows.push_back({Value::Int(i), Value::Double(d.v[i])});
    }
    shapes.push_back({"scan_project", "SELECT id, v FROM fact",
                      ResultChecksum(rows)});
  }
  {
    Rows rows;
    for (int i = 0; i < kFactRows; ++i) {
      if (d.v[i] >= lo && d.v[i] <= lo + 100) {
        rows.push_back({Value::Int(i), Value::Double(d.v[i])});
      }
    }
    shapes.push_back({"filter",
                      "SELECT id, v FROM fact WHERE v BETWEEN " +
                          std::to_string(lo) + " AND " +
                          std::to_string(lo + 100),
                      ResultChecksum(rows)});
  }
  {
    struct Agg {
      int64_t n = 0;
      double sum = 0, mn = 1e300, mx = -1e300;
    };
    std::map<int, Agg> groups;
    for (int i = 0; i < kFactRows; ++i) {
      Agg& a = groups[d.g[i]];
      ++a.n;
      a.sum += d.v[i];
      a.mn = std::min(a.mn, d.v[i]);
      a.mx = std::max(a.mx, d.v[i]);
    }
    Rows rows;
    for (const auto& [g, a] : groups) {
      rows.push_back({Value::Int(g), Value::Bigint(a.n), Value::Double(a.sum),
                      Value::Double(a.mn), Value::Double(a.mx)});
    }
    shapes.push_back({"group_by",
                      "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact "
                      "GROUP BY g",
                      ResultChecksum(rows)});
  }
  {
    std::set<int> distinct(d.d0.begin(), d.d0.end());
    Rows rows;
    for (int k : distinct) rows.push_back({Value::Int(k)});
    shapes.push_back({"distinct", "SELECT DISTINCT d0 FROM fact",
                      ResultChecksum(rows)});
  }
  {
    Rows rows;
    for (int i = 0; i < kFactRows; ++i) {
      if (d.dim0_attr[d.d0[i]] == attr) {
        rows.push_back({Value::Int(i), Value::Int(attr)});
      }
    }
    shapes.push_back({"hash_join",
                      "SELECT fact.id, dim0.attr FROM fact, dim0 WHERE "
                      "fact.d0 = dim0.id AND dim0.attr = " +
                          std::to_string(attr),
                      ResultChecksum(rows)});
  }
  {
    std::map<int, std::pair<int64_t, double>> groups;
    for (int i = 0; i < kFactRows; ++i) {
      if (d.dim1_attr[d.d1[i]] < kStarAttrBelow) {
        auto& a = groups[d.dim0_attr[d.d0[i]]];
        ++a.first;
        a.second += d.v[i];
      }
    }
    Rows rows;
    for (const auto& [k, a] : groups) {
      rows.push_back(
          {Value::Int(k), Value::Bigint(a.first), Value::Double(a.second)});
    }
    shapes.push_back({"star_join",
                      "SELECT dim0.attr, COUNT(*), SUM(fact.v) FROM fact, "
                      "dim0, dim1 WHERE fact.d0 = dim0.id AND fact.d1 = "
                      "dim1.id AND dim1.attr < " +
                          std::to_string(kStarAttrBelow) +
                          " GROUP BY dim0.attr",
                      ResultChecksum(rows)});
  }
  const int sort_group = static_cast<int>(rng.Uniform(kGroups - 8));
  {
    std::vector<double> v;
    for (int i = 0; i < kFactRows; ++i) {
      if (d.g[i] >= sort_group && d.g[i] < sort_group + 8) v.push_back(d.v[i]);
    }
    std::partial_sort(v.begin(), v.begin() + 100, v.end(),
                      std::greater<double>());
    Rows rows;
    for (int i = 0; i < 100; ++i) rows.push_back({Value::Double(v[i])});
    shapes.push_back({"sort_limit",
                      "SELECT v FROM fact WHERE g BETWEEN " +
                          std::to_string(sort_group) + " AND " +
                          std::to_string(sort_group + 7) +
                          " ORDER BY v DESC LIMIT 100",
                      ResultChecksum(rows)});
  }
  {
    // Self-join on the key: the smaller side (a sixteenth of the fact
    // table) is still several times one statement's memory grant, so the
    // join spills.
    const int join_group = static_cast<int>(rng.Uniform(kGroups - 16));
    int64_t n = 0;
    double sum = 0;
    for (int i = 0; i < kFactRows; ++i) {
      if (d.g[i] >= join_group && d.g[i] < join_group + 4) {
        ++n;
        sum += d.v[i];
      }
    }
    shapes.push_back({"spill_join",
                      "SELECT COUNT(*), SUM(b.v) FROM fact a, fact b WHERE "
                      "a.id = b.id AND a.g BETWEEN " +
                          std::to_string(join_group) + " AND " +
                          std::to_string(join_group + 3) +
                          " AND b.g BETWEEN " + std::to_string(join_group) +
                          " AND " + std::to_string(join_group + 15),
                      ResultChecksum({{Value::Bigint(n), Value::Double(sum)}})});
  }
  return shapes;
}

/// sort_limit must also come back in order.
bool InOrder(const Shape& s, const Rows& rows) {
  if (s.name != "sort_limit") return true;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1][0].AsDouble() < rows[i][0].AsDouble()) return false;
  }
  return true;
}

struct AnalyticDb {
  std::unique_ptr<Database> db;
  std::unique_ptr<Connection> conn;
  double setup_s = 0;
};

/// Load, statistics and one untimed pass over every shape, checked
/// against the reference. Returns the set-up time.
AnalyticDb SetUp(const StarData& d, int workers,
                 const std::vector<Shape>& shapes, Report* report) {
  const double start = NowSeconds();
  AnalyticDb a;
  hdb::engine::DatabaseOptions o;
  o.initial_pool_frames = kPoolFrames;
  o.parallel.max_workers = workers;
  a.db = OpenOrDie(o);
  a.conn = ConnectOrDie(a.db.get());
  Connection* c = a.conn.get();
  ExecOrDie(c, "CREATE TABLE fact (id INT NOT NULL, g INT, d0 INT, d1 INT, "
               "v DOUBLE)");
  ExecOrDie(c, "CREATE TABLE dim0 (id INT NOT NULL, attr INT)");
  ExecOrDie(c, "CREATE TABLE dim1 (id INT NOT NULL, attr INT)");
  const auto load = [&](const char* table, std::vector<hdb::table::Row> rows) {
    const hdb::Status s = a.db->LoadTable(table, rows);
    if (!s.ok()) Die(std::string("load ") + table + ": " + s.ToString());
  };
  {
    std::vector<hdb::table::Row> rows;
    for (int i = 0; i < kDim0Rows; ++i) {
      rows.push_back({Value::Int(i), Value::Int(d.dim0_attr[i])});
    }
    load("dim0", std::move(rows));
  }
  {
    std::vector<hdb::table::Row> rows;
    for (int i = 0; i < kDim1Rows; ++i) {
      rows.push_back({Value::Int(i), Value::Int(d.dim1_attr[i])});
    }
    load("dim1", std::move(rows));
  }
  {
    std::vector<hdb::table::Row> rows;
    rows.reserve(kFactRows);
    for (int i = 0; i < kFactRows; ++i) {
      rows.push_back({Value::Int(i), Value::Int(d.g[i]), Value::Int(d.d0[i]),
                      Value::Int(d.d1[i]), Value::Double(d.v[i])});
    }
    load("fact", std::move(rows));
  }
  for (const Shape& s : shapes) {
    auto r = c->Execute(s.sql);
    ++report->attempted;
    if (!r.ok() || ResultChecksum(r->rows) != s.expected ||
        !InOrder(s, r->rows)) {
      ++report->failed;
      report->Fail("first pass of " + s.name + " differs from the reference" +
                   (r.ok() ? "" : ": " + r.status().ToString()));
    }
  }
  a.setup_s = NowSeconds() - start;
  return a;
}

struct LoopResult {
  uint64_t done = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<Completion> completions;
  std::vector<std::vector<double>> shape_us;  // per shape
  uint64_t cached = 0, bypassed = 0;
};

/// Closed loop over the shapes for `seconds`, each result checked; a
/// spill_join that did not spill counts as a failure.
LoopResult Loop(Connection* c, const std::vector<Shape>& shapes, double start,
                double seconds, bool traced, Report* report) {
  LoopResult out;
  out.shape_us.resize(shapes.size());
  spans::SetEnabled(traced);
  const double end = start + seconds;
  const double cpu0 = ProcessCpuSeconds();
  for (size_t i = 0; NowSeconds() < end; ++i) {
    const Shape& s = shapes[i % shapes.size()];
    spans::SetStatement(i + 1);
    const uint64_t t0 = NowNanos();
    hdb::Result<hdb::engine::QueryResult> r = [&] {
      spans::Span span("engine.execute");
      return c->Execute(s.sql);
    }();
    const double us = static_cast<double>(NowNanos() - t0) / 1e3;
    out.completions.push_back({NowSeconds(), static_cast<float>(us), true});
    out.shape_us[i % shapes.size()].push_back(us);
    ++out.done;
    ++report->attempted;
    if (!r.ok() || ResultChecksum(r->rows) != s.expected ||
        !InOrder(s, r->rows)) {
      ++report->failed;
      report->Fail(s.name + " returned a wrong result" +
                   (r.ok() ? "" : ": " + r.status().ToString()));
      continue;
    }
    if (s.name == "spill_join" && r->exec_stats.spill_bytes_written == 0) {
      ++report->failed;
      report->Fail("spill_join did not spill");
      continue;
    }
    out.cached += r->used_cached_plan;
    out.bypassed += r->diag.bypassed;
  }
  out.wall_s = NowSeconds() - start;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  spans::SetEnabled(false);
  return out;
}

void PrintShapeLatencies(const std::vector<Shape>& shapes,
                         const LoopResult& r) {
  std::printf("  %-14s %8s %12s %12s %12s\n", "shape", "count", "p50_us",
              "p95_us", "max_us");
  for (size_t i = 0; i < shapes.size(); ++i) {
    const std::vector<double>& v = r.shape_us[i];
    std::printf("  %-14s %8zu %12.0f %12.0f %12.0f\n", shapes[i].name.c_str(),
                v.size(), Percentile(v, 0.5), Percentile(v, 0.95),
                Percentile(v, 1.0));
  }
}

/// Median wall time of `reps` executions of one statement, in µs.
double TimeShape(Connection* c, const std::string& sql, int reps) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNanos();
    ExecOrDie(c, sql);
    us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
  }
  return Median(us);
}

void RecordConfig(const RunOptions& opts, int workers, Database* db,
                  Report* report) {
  const uint64_t fact_pages = DataPages(db, kTables, 1);
  report->Config("workload", "\"" + opts.workload + "\"");
  report->ConfigNum("parallel_max_workers", workers);
  report->ConfigNum("connections", 1);
  report->ConfigNum("fact_rows", kFactRows);
  report->ConfigNum("fact_pages", static_cast<double>(fact_pages));
  report->ConfigNum("data_pages_start",
                    static_cast<double>(DataPages(db, kTables, 3)));
  report->ConfigNum("pool_frames_configured", kPoolFrames);
  if (fact_pages < 4 * kPoolFrames) {
    Die("fact table (" + std::to_string(fact_pages) +
        " pages) is not 4x the pool");
  }
}

}  // namespace

void RunAnalytic(const RunOptions& opts, bool parallel, Report* report) {
  const int workers = parallel ? opts.nproc : 1;
  const StarData data = Generate(opts.seed);
  std::vector<Shape> shapes = MakeShapes(data, opts.seed);
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i].name != kShapeNames[i]) Die("shape list out of order");
  }
  if (opts.inject_wrong_row) shapes[3].expected ^= 1;  // distinct

  if (!opts.trace) {
    std::vector<double> setups;
    AnalyticDb a;
    for (int i = 0; i < kSetups; ++i) {
      a = AnalyticDb{};  // the previous database closes before the next
      a = SetUp(data, workers, shapes, report);
      setups.push_back(a.setup_s);
    }
    RecordConfig(opts, workers, a.db.get(), report);
    const double setup_rss_mb = PeakRssMb();  // as on oltp_wire
    const size_t frames0 = a.db->pool().stats().current_frames;
    const double start = NowSeconds();
    const LoopResult r =
        Loop(a.conn.get(), shapes, start, opts.seconds, false, report);
    const PhaseStats m = Summarize(r.completions, start, r.cpu_s);
    const size_t frames1 = a.db->pool().stats().current_frames;
    CheckFramesSteady(frames0, frames1, report);
    report->ConfigNum("pool_frames_start", static_cast<double>(frames0));
    report->ConfigNum("pool_frames_end", static_cast<double>(frames1));
    report->ConfigNum("data_pages_end",
                      static_cast<double>(DataPages(a.db.get(), kTables, 3)));
    PrintShapeLatencies(shapes, r);
    report->ConfigNum("peak_rss_end_mb", PeakRssMb());
    ReportEndToEnd(m, Median(setups), setup_rss_mb, report);
    return;
  }

  // --- traced run: fixed-count layer probes, then the timed loop with
  // spans off and on.
  AnalyticDb a = SetUp(data, workers, shapes, report);
  RecordConfig(opts, workers, a.db.get(), report);
  Database* db = a.db.get();
  Connection* c = a.conn.get();

  spans::SetEnabled(true);
  allocs::SetCounting(true);
  std::map<std::string, double> engine_us, exec_us, opt_us, qerr_max;
  double parse_sum = 0, bind_sum = 0, opt_sum = 0, unattributed_sum = 0;
  uint64_t stmt_allocs = 0, exec_allocs = 0, exec_rows = 0, probes = 0;
  std::vector<double> all_qerrors;
  double spill_written = 0, spill_read = 0;
  for (const Shape& s : shapes) {
    std::vector<double> e_us, x_us, o_us, parts;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      spans::SetStatement(++probes);
      const uint64_t a0 = allocs::Count();
      const uint64_t t0 = NowNanos();
      hdb::Result<hdb::engine::QueryResult> r = [&] {
        spans::Span span("engine.execute");
        return c->Execute(s.sql);
      }();
      e_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
      stmt_allocs += allocs::Count() - a0;
      if (!r.ok() || ResultChecksum(r->rows) != s.expected) {
        ++report->failed;
        report->Fail("probe of " + s.name + " returned a wrong result");
      }
      ++report->attempted;
      if (r.ok() && s.name == "spill_join") {
        spill_written += r->exec_stats.spill_bytes_written;
        spill_read += r->exec_stats.spill_bytes_read;
        if (r->exec_stats.spill_bytes_written == 0) {
          ++report->failed;
          report->Fail("spill_join did not spill");
        }
      }
      const LayerTimes lt = RunSelectByLayer(db, s.sql);
      if (!lt.ok) Die("layer probe failed for " + s.name);
      x_us.push_back(lt.exec_us);
      o_us.push_back(lt.optimize_us);
      parse_sum += lt.parse_us;
      bind_sum += lt.bind_us;
      opt_sum += lt.optimize_us;
      parts.push_back(lt.parse_us + lt.bind_us + lt.optimize_us + lt.exec_us);
      exec_allocs += lt.exec_allocs;
      exec_rows += lt.rows;
    }
    engine_us[s.name] = Median(e_us);
    exec_us[s.name] = Median(x_us);
    opt_us[s.name] = Median(o_us);
    unattributed_sum += Median(e_us) - Median(parts);
    auto explain = c->Execute("EXPLAIN ANALYZE " + s.sql);
    if (!explain.ok()) Die("EXPLAIN ANALYZE failed for " + s.name);
    const std::vector<double> q = PlanQErrors(explain->explain);
    qerr_max[s.name] = q.empty() ? 0 : *std::max_element(q.begin(), q.end());
    all_qerrors.insert(all_qerrors.end(), q.begin(), q.end());
  }
  allocs::SetCounting(false);
  spans::SetEnabled(false);

  // Fact-table scan straight off the heap.
  double scan_ns_per_row = 0;
  {
    auto fact = db->catalog().GetTable("fact");
    if (!fact.ok()) Die("no fact table");
    hdb::table::TableHeap* heap = db->heap((*fact)->oid);
    std::vector<double> per_row;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      std::vector<hdb::table::Row> rows;
      std::vector<hdb::Rid> rids;
      uint64_t n = 0;
      const uint64_t t0 = NowNanos();
      {
        spans::Span span("table.next_rows");
        auto it = heap->Scan();
        for (;;) {
          auto got = it.NextRows(1024, &rows, &rids);
          if (!got.ok()) Die("heap scan: " + got.status().ToString());
          if (*got == 0) break;
          n += *got;
        }
      }
      per_row.push_back(static_cast<double>(NowNanos() - t0) /
                        std::max<uint64_t>(1, n));
    }
    scan_ns_per_row = Median(per_row);
  }

  // Timed loop, untraced then traced; registry deltas over the untraced
  // half.
  const double half = std::max(1.0, opts.seconds / 2.0);
  const auto snap0 = Snap(db->metrics());
  const size_t frames0 = db->pool().stats().current_frames;
  const LoopResult plain = Loop(c, shapes, NowSeconds(), half, false, report);
  const size_t frames1 = db->pool().stats().current_frames;
  const auto snap1 = Snap(db->metrics());
  CheckFramesSteady(frames0, frames1, report);
  const LoopResult traced = Loop(c, shapes, NowSeconds(), half, true, report);
  report->ConfigNum("pool_frames_start", static_cast<double>(frames0));
  report->ConfigNum("pool_frames_end", static_cast<double>(frames1));
  report->ConfigNum("data_pages_end",
                    static_cast<double>(DataPages(db, kTables, 3)));

  // Speedup: the same two shapes on a serial and a parallel database. The
  // other database's first pass is also checked against the reference, so
  // serial and parallel agree shape by shape.
  double speedup_join = 0, speedup_group = 0;
  {
    AnalyticDb other = SetUp(data, parallel ? 1 : opts.nproc, shapes, report);
    Connection* serial = parallel ? other.conn.get() : c;
    Connection* par = parallel ? c : other.conn.get();
    const auto sql_of = [&](const char* name) {
      for (const Shape& s : shapes) {
        if (s.name == name) return s.sql;
      }
      return std::string();
    };
    constexpr int kReps = 5;
    speedup_join = TimeShape(serial, sql_of("hash_join"), kReps) /
                   TimeShape(par, sql_of("hash_join"), kReps);
    speedup_group = TimeShape(serial, sql_of("group_by"), kReps) /
                    TimeShape(par, sql_of("group_by"), kReps);
  }

  const double n_stmt = std::max<double>(1, plain.done);
  const double nprobe = std::max<double>(1, static_cast<double>(probes));
  Layers l;
  AddRegistryLayers(snap0, snap1, n_stmt, &l);
  AddQErrors(all_qerrors, &l);
  l["engine.parse_us"] = parse_sum / nprobe;
  l["engine.bind_us"] = bind_sum / nprobe;
  l["optimizer.optimize_us"] = opt_sum / nprobe;
  for (const Shape& s : shapes) {
    l["engine.execute_us." + s.name] = engine_us[s.name];
    l["optimizer.optimize_us." + s.name] = opt_us[s.name];
    l["optimizer.qerror_max." + s.name] = qerr_max[s.name];
    l["exec.execute_us." + s.name] = exec_us[s.name];
  }
  l["engine.unattributed_us"] = unattributed_sum / shapes.size();
  l["engine.allocs_per_stmt"] = stmt_allocs / nprobe;
  l["optimizer.plan_cache_hit_ratio"] = plain.cached / n_stmt;
  l["optimizer.bypass_ratio"] = plain.bypassed / n_stmt;
  l["exec.allocs_per_row"] =
      static_cast<double>(exec_allocs) / std::max<uint64_t>(1, exec_rows);
  l["exec.spill.bytes_written"] = spill_written / kProbeReps;
  l["exec.spill.bytes_read"] = spill_read / kProbeReps;
  l["exec.parallel.speedup.hash_join"] = speedup_join;
  l["exec.parallel.speedup.group_by"] = speedup_group;
  l["storage.pool_frames_start"] = static_cast<double>(frames0);
  l["storage.pool_frames_end"] = static_cast<double>(frames1);
  l["table.scan_ns_per_row"] = scan_ns_per_row;
  {
    std::vector<double> all;
    for (const auto& v : plain.shape_us) all.insert(all.end(), v.begin(), v.end());
    l["latency_p95_us"] = Percentile(all, 0.95);
    l["latency_p99_us"] = Percentile(all, 0.99);
  }
  l["trace.throughput_untraced"] = plain.done / plain.wall_s;
  l["trace.throughput_traced"] = traced.done / traced.wall_s;
  ReportLayers(l, report);
}

}  // namespace perfbench
