#include "common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace hdb {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kCatalogDdl:
      return "CatalogDdl";
    case LockRank::kMetricsRegistry:
      return "MetricsRegistry";
    case LockRank::kNetServer:
      return "NetServer";
    case LockRank::kNetSession:
      return "NetSession";
    case LockRank::kAdmissionGate:
      return "AdmissionGate";
    case LockRank::kEngineObjects:
      return "EngineObjects";
    case LockRank::kCatalog:
      return "Catalog";
    case LockRank::kCheckpointGovernor:
      return "CheckpointGovernor";
    case LockRank::kPoolGovernor:
      return "PoolGovernor";
    case LockRank::kTaskMemory:
      return "TaskMemory";
    case LockRank::kMplController:
      return "MplController";
    case LockRank::kLockManager:
      return "LockManager";
    case LockRank::kTxnManager:
      return "TxnManager";
    case LockRank::kTableHeap:
      return "TableHeap";
    case LockRank::kIndex:
      return "Index";
    case LockRank::kStatsRegistry:
      return "StatsRegistry";
    case LockRank::kHistogram:
      return "Histogram";
    case LockRank::kProcStats:
      return "ProcStats";
    case LockRank::kParallelDispenser:
      return "ParallelDispenser";
    case LockRank::kParallelQueue:
      return "ParallelQueue";
    case LockRank::kParallelMerge:
      return "ParallelMerge";
    case LockRank::kBufferPool:
      return "BufferPool";
    case LockRank::kWalGroupCommit:
      return "WalGroupCommit";
    case LockRank::kWalFlush:
      return "WalFlush";
    case LockRank::kWalBuffer:
      return "WalBuffer";
    case LockRank::kDiskManager:
      return "DiskManager";
    case LockRank::kStableStorage:
      return "StableStorage";
    case LockRank::kMemoryEnv:
      return "MemoryEnv";
    case LockRank::kDecisionLog:
      return "DecisionLog";
    case LockRank::kTracer:
      return "Tracer";
    case LockRank::kNetProvider:
      return "NetProvider";
    case LockRank::kStatementRegistry:
      return "StatementRegistry";
    case LockRank::kStatementTrace:
      return "StatementTrace";
  }
  return "Unknown";
}

#if defined(HDB_LOCK_RANK_ENABLED)

namespace lock_rank_internal {

namespace {

// Deepest legitimate chain today is ~8 (DDL → gate → heap → WAL → disk →
// media plus telemetry); 32 leaves generous headroom for future subsystems.
constexpr int kMaxHeld = 32;

struct HeldLock {
  const void* mutex;
  LockRank rank;
  LockMode mode;
  const char* file;
  uint32_t line;
};

struct HeldStack {
  HeldLock entries[kMaxHeld];
  int depth = 0;
};

thread_local HeldStack tl_held;

[[noreturn]] void Die(const char* what, const HeldLock* held, LockRank rank,
                      const LockSite& site) {
  if (held != nullptr) {
    std::fprintf(stderr,
                 "hdb lock-rank violation: %s\n"
                 "  attempted: rank %u (%s) at %s:%u\n"
                 "  while holding: rank %u (%s) acquired at %s:%u\n",
                 what, static_cast<unsigned>(rank), LockRankName(rank),
                 site.file_name(), static_cast<unsigned>(site.line()),
                 static_cast<unsigned>(held->rank), LockRankName(held->rank),
                 held->file, held->line);
  } else {
    std::fprintf(stderr,
                 "hdb lock-rank violation: %s\n"
                 "  attempted: rank %u (%s) at %s:%u\n",
                 what, static_cast<unsigned>(rank), LockRankName(rank),
                 site.file_name(), static_cast<unsigned>(site.line()));
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void OnAcquire(const void* mutex, LockRank rank, LockMode mode,
               const LockSite& site) {
  HeldStack& stack = tl_held;

  // Highest-ranked held entry (the binding constraint) and whether this
  // exact mutex is already held by this thread.
  const HeldLock* top = nullptr;
  const HeldLock* same_mutex = nullptr;
  bool same_rank_all_shared = true;
  for (int i = 0; i < stack.depth; ++i) {
    const HeldLock& held = stack.entries[i];
    if (top == nullptr || held.rank >= top->rank) top = &held;
    if (held.mutex == mutex) same_mutex = &held;
    if (held.rank == rank && held.mode != LockMode::kShared) {
      same_rank_all_shared = false;
    }
  }

  if (same_mutex != nullptr && mode != LockMode::kRecursive) {
    Die("recursive acquisition of a non-recursive lock", same_mutex, rank,
        site);
  }
  if (top != nullptr) {
    if (top->rank > rank) {
      Die("out-of-order acquisition (lower rank while holding higher)", top,
          rank, site);
    }
    if (top->rank == rank) {
      switch (mode) {
        case LockMode::kExclusive:
          Die("same-rank acquisition in exclusive mode", top, rank, site);
        case LockMode::kShared:
          // Two shared holds at one rank are how a single statement scans
          // two tables; an exclusive hold at the rank makes that a deadlock
          // recipe, so only all-shared stacking passes.
          if (!same_rank_all_shared) {
            Die("shared acquisition at a rank held exclusively", top, rank,
                site);
          }
          break;
        case LockMode::kRecursive:
          break;
      }
    }
  }

  if (stack.depth >= kMaxHeld) {
    Die("held-lock stack overflow (raise kMaxHeld)", top, rank, site);
  }
  stack.entries[stack.depth++] =
      HeldLock{mutex, rank, mode, site.file_name(), site.line()};
}

void OnRelease(const void* mutex) {
  HeldStack& stack = tl_held;
  // Scan from the top: releases are usually LIFO, but guards like the WAL
  // flusher's staged unlocks release out of order legitimately.
  for (int i = stack.depth - 1; i >= 0; --i) {
    if (stack.entries[i].mutex != mutex) continue;
    for (int j = i; j < stack.depth - 1; ++j) {
      stack.entries[j] = stack.entries[j + 1];
    }
    --stack.depth;
    return;
  }
  std::fprintf(stderr,
               "hdb lock-rank violation: release of a lock this thread does "
               "not hold (unlock on the wrong thread, or double unlock)\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace lock_rank_internal

#endif  // HDB_LOCK_RANK_ENABLED

}  // namespace hdb
