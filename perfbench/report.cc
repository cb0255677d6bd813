#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace perfbench {

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Report::Config(const std::string& key, const std::string& json_value) {
  config.push_back({key, json_value});
}

void Report::ConfigNum(const std::string& key, double v) { Config(key, Num(v)); }

void Report::Fail(const std::string& why) {
  // The first few reasons are enough to diagnose a run; the count of
  // failures is in the result line.
  constexpr int kPrinted = 5;
  if (!correct && printed_failures_ >= kPrinted) return;
  correct = false;
  ++printed_failures_;
  std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].first) + ": {\"value\": " +
           Num(metrics[i].second.first) +
           ", \"unit\": " + Quote(metrics[i].second.second) + "}";
  }
  return out + "}}";
}

std::string Report::ConfigJson() const {
  std::string out = "{";
  for (size_t i = 0; i < config.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(config[i].first) + ": " + config[i].second;
  }
  return out + "}";
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

PhaseStats Summarize(const std::vector<Completion>& done, double start_s,
                     double cpu_s) {
  PhaseStats out;
  std::vector<double> all, reads;
  double last = start_s;
  for (const Completion& c : done) {
    all.push_back(c.us);
    if (c.read) reads.push_back(c.us);
    last = std::max(last, c.end_s);
    const size_t slice = static_cast<size_t>((c.end_s - start_s) / kSliceS);
    if (slice >= out.slice_throughput.size()) {
      out.slice_throughput.resize(slice + 1, 0.0);
    }
    out.slice_throughput[slice] += 1 / kSliceS;
  }
  out.slice_throughput.resize(static_cast<size_t>((last - start_s) / kSliceS));
  const double n = static_cast<double>(all.size());
  out.statements = all.size();
  out.throughput = last > start_s ? n / (last - start_s) : 0;
  out.p50_us = Percentile(all, 0.50);
  out.p95_us = Percentile(all, 0.95);
  out.p99_us = Percentile(all, 0.99);
  out.above_p99 = static_cast<size_t>(std::count_if(
      all.begin(), all.end(), [&](double us) { return us > out.p99_us; }));
  out.read_p50_us = Percentile(reads, 0.50);
  out.cpu_us_per_stmt = n > 0 ? cpu_s * 1e6 / n : 0;
  return out;
}

void ReportEndToEnd(const PhaseStats& m, double setup_s, double peak_rss_mb,
                    Report* report) {
  report->ConfigNum("statements", static_cast<double>(m.statements));
  std::string list = "[";
  for (double t : m.slice_throughput) {
    list += (list.size() > 1 ? ", " : "") + Num(t);
  }
  report->Config("throughput_per_5s", list + "]");
  report->ConfigNum("latency_p95_us", m.p95_us);
  report->ConfigNum("latency_p99_us", m.p99_us);
  report->ConfigNum("samples_above_p99", static_cast<double>(m.above_p99));

  report->Metric("throughput_stmt_s", m.throughput, "stmt/s");
  report->Metric("latency_p50_us", m.p50_us, "us");
  report->Metric("read_p50_us", m.read_p50_us, "us");
  report->Metric("cpu_us_per_stmt", m.cpu_us_per_stmt, "us");
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

void CheckFramesSteady(size_t frames0, size_t frames1, Report* report) {
  ++report->attempted;
  if (frames0 != frames1) {
    ++report->failed;
    report->Fail("pool frames moved from " + std::to_string(frames0) + " to " +
                 std::to_string(frames1) + " during the timed phase");
  }
}

namespace {

struct LayerMetric {
  std::string name;
  const char* unit;
};

/// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<LayerMetric>& LayerTable() {
  static const std::vector<LayerMetric> table = [] {
    std::vector<LayerMetric> t;
    const auto add = [&](const std::string& name, const char* unit) {
      t.push_back({name, unit});
    };
    const auto per_shape = [&](const std::string& prefix, const char* unit) {
      for (const char* shape : kShapeNames) add(prefix + shape, unit);
    };
    add("net.wire_overhead_us", "us");
    add("net.frames_per_stmt", "count");
    add("net.bytes_out_per_stmt", "B");
    add("net.write_stalls", "count");
    add("engine.parse_us", "us");
    add("engine.bind_us", "us");
    per_shape("engine.execute_us.", "us");
    add("engine.unattributed_us", "us");
    add("engine.allocs_per_stmt", "count");
    add("optimizer.optimize_us", "us");
    per_shape("optimizer.optimize_us.", "us");
    add("optimizer.plan_cache_hit_ratio", "ratio");
    add("optimizer.bypass_ratio", "ratio");
    add("optimizer.qerror_max", "ratio");
    add("optimizer.qerror_geomean", "ratio");
    per_shape("optimizer.qerror_max.", "ratio");
    add("optimizer.qerror_max.oltp_range", "ratio");
    per_shape("exec.execute_us.", "us");
    add("exec.allocs_per_row", "count");
    add("exec.rows_scanned_per_row_out", "ratio");
    add("exec.batch.rows_per_batch", "count");
    add("exec.spill.bytes_written", "B");
    add("exec.spill.bytes_read", "B");
    add("exec.parallel.workers_started", "count");
    add("exec.parallel.workers_revoked", "count");
    add("exec.parallel.morsels", "count");
    add("exec.parallel.speedup.hash_join", "x");
    add("exec.parallel.speedup.group_by", "x");
    add("exec.admission.wait_us", "us");
    add("exec.mpl.changes", "count");
    add("storage.pool_hit_ratio", "ratio");
    add("storage.pins_per_stmt", "count");
    add("storage.evictions_per_stmt", "count");
    add("storage.pool_frames_start", "count");
    add("storage.pool_frames_end", "count");
    add("index.probe_us", "us");
    add("table.scan_ns_per_row", "ns");
    add("txn.lock_conflicts_per_kstmt", "count");
    add("wal.bytes_per_write", "B");
    add("wal.commits_per_sync", "ratio");
    add("wal.checkpoints", "count");
    add("wal.checkpoint_ms", "ms");
    add("wal.restart_records_scanned", "count");
    add("wal.restart_redo_records", "count");
    add("latency_p95_us", "us");
    add("latency_p99_us", "us");
    add("write_p50_us", "us");
    add("restart_s", "s");
    add("failure_ratio", "ratio");
    add("trace.throughput_untraced", "stmt/s");
    add("trace.throughput_traced", "stmt/s");
    add("trace.overhead_pct", "%");
    return t;
  }();
  return table;
}

}  // namespace

void AddRegistryLayers(const std::map<std::string, double>& before,
                       const std::map<std::string, double>& after,
                       double statements, Layers* out) {
  const auto d = [&](const char* name) { return Delta(before, after, name); };
  const double n = std::max(1.0, statements);
  const double hits = d("pool.hits"), misses = d("pool.misses");
  Layers& l = *out;
  l["exec.rows_scanned_per_row_out"] =
      d("exec.rows_scanned") / std::max(1.0, d("exec.rows_output"));
  l["exec.batch.rows_per_batch"] =
      d("exec.batch.rows") / std::max(1.0, d("exec.batch.batches"));
  l["exec.parallel.workers_started"] = d("exec.parallel.workers_started") / n;
  l["exec.parallel.workers_revoked"] = d("exec.parallel.workers_revoked") / n;
  l["exec.parallel.morsels"] = d("exec.parallel.morsels") / n;
  l["exec.admission.wait_us"] = d("gate.wait_micros.sum_us") / n;
  l["exec.mpl.changes"] = d("mpl.changes");
  l["storage.pool_hit_ratio"] = hits / std::max(1.0, hits + misses);
  l["storage.pins_per_stmt"] = (hits + misses) / n;
  l["storage.evictions_per_stmt"] = d("pool.evictions") / n;
  l["txn.lock_conflicts_per_kstmt"] = d("lock.conflicts") * 1000 / n;
}

void AddQErrors(const std::vector<double>& qerrors, Layers* out) {
  if (qerrors.empty()) return;
  double log_sum = 0;
  for (double q : qerrors) log_sum += std::log(q);
  (*out)["optimizer.qerror_max"] =
      *std::max_element(qerrors.begin(), qerrors.end());
  (*out)["optimizer.qerror_geomean"] =
      std::exp(log_sum / static_cast<double>(qerrors.size()));
}

void ReportLayers(const Layers& values, Report* report) {
  Layers v = values;
  v["failure_ratio"] = static_cast<double>(report->failed) /
                       std::max<double>(1, report->attempted);
  const double plain = v["trace.throughput_untraced"];
  v["trace.overhead_pct"] =
      plain > 0 ? (plain - v["trace.throughput_traced"]) / plain * 100 : 0;
  size_t known = 0;
  for (const LayerMetric& m : LayerTable()) {
    const auto it = v.find(m.name);
    known += it != v.end();
    report->Metric(m.name, it == v.end() ? 0 : it->second, m.unit);
  }
  if (known != v.size()) {
    for (const auto& [name, value] : v) {
      bool found = false;
      for (const LayerMetric& m : LayerTable()) found |= m.name == name;
      if (!found) {
        std::fprintf(stderr, "perfbench: unknown layer metric %s\n",
                     name.c_str());
      }
    }
    std::abort();
  }
}

std::map<std::string, double> Snap(const hdb::obs::MetricsRegistry& reg) {
  std::map<std::string, double> out;
  for (const hdb::obs::MetricSample& s : reg.Snapshot()) {
    if (s.kind == hdb::obs::MetricKind::kHistogram) {
      out[s.name + ".count"] = static_cast<double>(s.count);
      out[s.name + ".sum_us"] = static_cast<double>(s.sum_micros);
    } else {
      out[s.name] = s.value;
    }
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t RowHash(const std::vector<hdb::Value>& row) {
  uint64_t h = 0x51ed27u;
  for (const hdb::Value& v : row) {
    uint64_t bits = 0;
    if (!v.is_null()) {
      // Numeric values hash by their double image, so INT vs BIGINT
      // typing of an aggregate cannot change the checksum.
      const double d = v.AsDouble();
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(d));
    }
    h = Mix(h ^ bits);
  }
  return h;
}

uint64_t ResultChecksum(const std::vector<std::vector<hdb::Value>>& rows) {
  uint64_t sum = rows.size();
  for (const auto& r : rows) sum += RowHash(r);
  return sum;
}

std::vector<double> PlanQErrors(const std::string& explain) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < explain.size()) {
    size_t eol = explain.find('\n', pos);
    if (eol == std::string::npos) eol = explain.size();
    const std::string line = explain.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t est_at = line.find("(rows=");
    const size_t act_at = line.find("(actual rows=");
    if (est_at == std::string::npos || act_at == std::string::npos) continue;
    const double e =
        std::max(1.0, std::strtod(line.c_str() + est_at + 6, nullptr));
    const double a =
        std::max(1.0, std::strtod(line.c_str() + act_at + 13, nullptr));
    out.push_back(std::max(e, a) / std::min(e, a));
  }
  return out;
}

}  // namespace perfbench
