// Deterministic work of the executor benchmark statements (DESIGN.md §9):
// heap allocations, page pins and execution batches of each BM_Exec*
// query over the micro_operators data (bench/workloads.h). Unlike their
// wall-clock rates these counts repeat exactly on any host, so
// BenchSmoke.compare gates on them (the "work" section of
// BENCH_exec.json, scripts/bench_compare.py).
//
//   exec_work [out.json]
//
// Each query runs kWarmup times, then kCounted times with counting on,
// in a fixed order. The counted phase runs twice, each time on a fresh
// database, and the binary exits 1 when the two disagree: nondeterminism
// fails on its own terms instead of passing as slack. The slow-statement
// capture is switched off (floor at its maximum) because it fires on wall
// time and allocates. Allocation counts depend on the C++ runtime, so the
// JSON records the toolchain they were taken with.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "workloads.h"

#ifndef HDB_BENCH_TOOLCHAIN
#define HDB_BENCH_TOOLCHAIN "unknown"
#endif

namespace {

// Counting global operator new: while g_counting is on, every allocation
// in the process adds one to g_allocs.
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* Allocate(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + align - 1) / align * align;
  for (;;) {
    if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) {
      return p;
    }
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace hdb;
using namespace hdb::bench;

namespace {

constexpr int kWarmup = 2;
constexpr int kCounted = 3;

struct Work {
  uint64_t allocs = 0;
  uint64_t page_pins = 0;
  uint64_t batches = 0;
  bool operator==(const Work&) const = default;
};

uint64_t PagePins(BenchDb& db) {
  const storage::BufferPoolStats s = db.db->pool().stats();
  return s.hits + s.misses;
}

// Runs `sql` once; adds its work to `work` when `work` is non-null.
void Run(BenchDb& db, const char* sql, Work* work) {
  const uint64_t pins0 = PagePins(db);
  const uint64_t allocs0 = g_allocs.load();
  g_counting.store(work != nullptr);
  auto r = db.conn->Execute(sql);
  g_counting.store(false);
  if (!r.ok()) {
    std::fprintf(stderr, "exec_work: %s failed: %s\n", sql,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  if (work != nullptr) {
    work->allocs += g_allocs.load() - allocs0;
    work->page_pins += PagePins(db) - pins0;
    work->batches += r->exec_stats.batches;
  }
}

// One counted phase on a fresh database, keyed by BENCH_exec.json name.
std::map<std::string, Work> CountOnFreshDb() {
  engine::DatabaseOptions opts;
  opts.statement_registry.slow_floor_micros =
      std::numeric_limits<uint64_t>::max();
  BenchDb db(opts);
  LoadExecTables(db);
  for (int i = 0; i < kWarmup; ++i) {
    for (const ExecQuery& q : kExecQueries) Run(db, q.sql, nullptr);
  }
  std::map<std::string, Work> out;
  for (const ExecQuery& q : kExecQueries) {
    Work& w = out[q.key];
    for (int i = 0; i < kCounted; ++i) Run(db, q.sql, &w);
  }
  return out;
}

std::vector<std::string> Cells(const std::string& name, const Work& w,
                               const char* repeats) {
  return {name, std::to_string(w.allocs), std::to_string(w.page_pins),
          std::to_string(w.batches), repeats};
}

}  // namespace

int main(int argc, char** argv) {
  const auto first = CountOnFreshDb();
  const auto second = CountOnFreshDb();

  std::printf("=== executor work per query (%d statements each, %s) ===\n",
              kCounted, HDB_BENCH_TOOLCHAIN);
  PrintHeader({"query", "allocs", "page_pins", "batches", "repeats"});
  for (const auto& [key, w] : first) {
    const Work& again = second.at(key);
    PrintRow(Cells(key, w, w == again ? "yes" : "NO"));
    if (!(w == again)) PrintRow(Cells("(2nd db)", again, ""));
  }
  if (first != second) {
    std::fprintf(stderr,
                 "exec_work: counts differ between two fresh databases\n");
    return 1;
  }

  if (argc > 1) {
    FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "exec_work: cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"toolchain\": \"%s\",\n"
                 "  \"statements_per_query\": %d,\n  \"queries\": {\n",
                 HDB_BENCH_TOOLCHAIN, kCounted);
    size_t i = 0;
    for (const auto& [key, w] : first) {
      std::fprintf(f,
                   "    \"%s\": {\"allocs\": %llu, \"page_pins\": %llu, "
                   "\"batches\": %llu}%s\n",
                   key.c_str(), static_cast<unsigned long long>(w.allocs),
                   static_cast<unsigned long long>(w.page_pins),
                   static_cast<unsigned long long>(w.batches),
                   ++i < first.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("exec_work: wrote %s\n", argv[1]);
  }
  return 0;
}
