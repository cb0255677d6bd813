#include "spans.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "report.h"

namespace perfbench::spans {

namespace {

struct Record {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t stmt;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// One thread's spans. Owned by the global list, so spans of threads that
/// have exited are still summarized.
struct ThreadLog {
  int tid = 0;
  std::vector<Record> records;
};

/// Caps memory: a traced run stops recording past this many spans.
constexpr size_t kMaxRecords = 4u << 20;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_count{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu

thread_local ThreadLog* t_log = nullptr;
thread_local uint64_t t_current = 0;
thread_local uint64_t t_stmt = 0;

ThreadLog* Log() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->tid = static_cast<int>(g_logs.size());
    t_log = g_logs.back().get();
  }
  return t_log;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetStatement(uint64_t stmt_id) { t_stmt = stmt_id; }

Span::Span(const char* name) : name_(name) {
  if (!Enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = NowNanos();
}

Span::~Span() {
  if (id_ == 0) return;
  const uint64_t end = NowNanos();
  t_current = parent_;
  if (g_count.fetch_add(1, std::memory_order_relaxed) >= kMaxRecords) return;
  Log()->records.push_back({name_, id_, parent_, t_stmt, start_ns_, end});
}

std::map<std::string, Totals> Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Totals> out;
  for (const auto& log : g_logs) {
    // Children end before their parent, so one pass in record order
    // charges each child's duration to its parent's self time.
    std::unordered_map<uint64_t, double> child_us;
    for (const Record& r : log->records) {
      const double us = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
      Totals& t = out[r.name];
      ++t.count;
      t.total_us += us;
      const auto it = child_us.find(r.id);
      t.self_us += us - (it == child_us.end() ? 0.0 : it->second);
      if (it != child_us.end()) child_us.erase(it);
      if (r.parent != 0) child_us[r.parent] += us;
    }
  }
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"stmt\": %llu}}",
                   first ? "" : ",\n", r.name, log->tid, r.start_ns / 1e3,
                   (r.end_ns - r.start_ns) / 1e3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.stmt));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& log : g_logs) log->records.clear();
  g_count.store(0, std::memory_order_relaxed);
}

uint64_t Recorded() { return g_count.load(std::memory_order_relaxed); }

}  // namespace perfbench::spans
